"""Pulsed-probe dynamics of the coupled membrane-cavity sidebands.

When the probe envelope eps_p(t) varies in time, the slowly varying
sideband amplitudes V = (q_plus, c_plus) obey the linear system

    dV/dt = -M V + F(t),        F(t) = (0, eps_p(t))

with the 2x2 complex matrix M built from the steady state.  Writing
v = gamma_m - i*d, u = 2*kappa - i*(Delta + d), s = m*v*u, its entries are

    A = (-m*u*(i*d*gamma_m + d^2 - omega_m^2) + i*alpha) / s
    B = hbar * g * conj(c0) / (m*v)
    C = i * g * c0
    D = 2*kappa + i*(Delta - d)

The quadratic detuning term in A enters with a positive sign: that is the
sign for which the constant-forcing fixed point V = M^{-1} F reproduces
the frequency-domain response exactly, which this package treats as a
hard consistency requirement between its two halves.

Two integrators are provided and serve as independent oracles for each
other: classical fixed-step RK4, and an exponential integrator that
diagonalizes M once and propagates each step exactly for a forcing that
is interpolated linearly across the step (exact for constant forcing at
any step size).  In the eigenbasis the exponential step is a scalar
linear recurrence per mode, which is solved in blocks by a prefix scan
instead of a step-by-step loop.

The membrane displacement is reconstructed as

    q(t) = q0 + 2 * Re[ q_plus(t) * scale * exp(-i*d*t) ]

which is real by construction and reduces to q0 + 2*q_plus*cos(d*t) for
real q_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .params import HBAR, DerivedConstants, ParameterError, SystemParams
from .steady_state import SteadyState

PULSE_SHAPES = ("sech", "gaussian", "rectangle", "constant")

# A start time at least this many pulse widths before the pulse centre makes
# the zero initial condition indistinguishable from a drive switched on in
# the infinite past.
QUIET_START_WIDTHS = 20.0

# RK4 stability margin: dt * spectral_radius(M) must not exceed this.
MAX_STEP_RADIUS = 0.1

METHOD_RK4 = "rk4"
METHOD_EXPM = "expm"

# Steps per block of the exponential integrator.  Its work arrays, the
# sampled forcing among them, hold one block, so memory does not grow with
# the step count; a block this long makes the per-block numpy calls cheap
# next to the per-step forcing calls.
_EXPM_BLOCK = 4096


class InstabilityError(ArithmeticError):
    """The sideband system matrix has a non-decaying eigenmode."""


class StepSizeError(ArithmeticError):
    """Requested integration step violates the RK4 stability margin."""


@dataclass(frozen=True)
class SystemMatrix:
    """Relaxation matrix M of the sideband pair at a fixed probe detuning."""

    a: complex
    b: complex
    c: complex
    d: complex
    delta: float  # rad/s, detuning the matrix was built at
    eigenvalues: tuple[complex, complex]

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @property
    def spectral_radius(self) -> float:
        return max(abs(self.eigenvalues[0]), abs(self.eigenvalues[1]))

    @property
    def slowest_rate(self) -> float:
        """Smallest eigenvalue real part: the inverse of the longest relaxation time."""
        return min(self.eigenvalues[0].real, self.eigenvalues[1].real)


@dataclass(frozen=True)
class PulseSpec:
    """Probe envelope eps_p(t) = amplitude * shape((t - center)/width).

    ``width`` sets the envelope timescale explicitly; the default used by
    the command line is a tenth of a mirror period, i.e. a sudden kick on
    the mechanical timescale.  ``rectangle`` is amplitude inside
    |t - center| <= width/2; ``constant`` ignores center and width.
    """

    shape: str
    amplitude: float  # 1/s, peak probe drive
    width: float  # s
    center: float = 0.0  # s

    def __post_init__(self) -> None:
        if self.shape not in PULSE_SHAPES:
            raise ParameterError(
                f"pulse shape must be one of {PULSE_SHAPES}, got {self.shape!r}"
            )
        if not (0 < self.width < math.inf):
            raise ParameterError(
                f"pulse width must be positive and finite, got {self.width!r}"
            )
        if not (0 <= self.amplitude < math.inf):
            raise ParameterError(
                f"pulse amplitude must be non-negative and finite, got {self.amplitude!r}"
            )
        if not math.isfinite(self.center):
            raise ParameterError(f"pulse center must be finite, got {self.center!r}")

    def envelope(self, t: float) -> float:
        """Instantaneous probe drive at time t (scalar, 1/s)."""
        if self.shape == "constant":
            return self.amplitude
        x = (t - self.center) / self.width
        if self.shape == "sech":
            # sech overflows for |x| > ~710; the tail is exactly 0 there anyway
            if abs(x) > 700.0:
                return 0.0
            return self.amplitude / math.cosh(x)
        if self.shape == "gaussian":
            return self.amplitude * math.exp(-0.5 * x * x)
        return self.amplitude if abs(x) <= 0.5 else 0.0


Forcing = Union[PulseSpec, Callable[[float], complex]]


@dataclass(frozen=True)
class Trajectory:
    """Time series of the sideband pair, plus the reconstructed displacement."""

    times: np.ndarray  # s, strictly increasing
    q_plus: np.ndarray  # complex, m
    c_plus: np.ndarray  # complex, dimensionless
    q_total: np.ndarray | None = None  # m, filled by reconstruct_displacement


def build_matrix(
    delta: float,
    params: SystemParams,
    derived: DerivedConstants,
    steady: SteadyState,
) -> SystemMatrix:
    """Assemble the 2x2 sideband matrix and verify that it relaxes.

    Both eigenvalues must have positive real part; otherwise the
    linearized dynamics grow without bound (parametric instability at
    high pump power) and InstabilityError is raised.
    """
    if not math.isfinite(delta):
        raise ParameterError(f"probe detuning must be finite, got {delta!r}")
    m = params.mirror_mass
    om = params.mirror_freq
    gm = params.mirror_damping
    kappa = params.cavity_decay
    det = params.effective_detuning
    g = derived.coupling_constant
    c0 = steady.cavity_amp

    v = gm - 1j * delta
    u = 2.0 * kappa - 1j * (det + delta)
    s = m * v * u
    if s == 0:
        raise ParameterError("degenerate sideband matrix: m*v*u vanished")
    dd = m * u * (1j * delta * gm + delta * delta - om * om)
    a = (-dd + 1j * steady.alpha) / s
    b = HBAR * g * c0.conjugate() / (m * v)
    c = 1j * g * c0
    d = 2.0 * kappa + 1j * (det - delta)

    eig = np.linalg.eigvals(np.array([[a, b], [c, d]]))
    if eig[0].real <= 0 or eig[1].real <= 0:
        raise InstabilityError(
            "sideband matrix has a non-decaying eigenmode: eigenvalues "
            f"{eig[0]:.6e} and {eig[1]:.6e}"
        )
    return SystemMatrix(
        a=complex(a),
        b=complex(b),
        c=complex(c),
        d=complex(d),
        delta=float(delta),
        eigenvalues=(complex(eig[0]), complex(eig[1])),
    )


def steady_response(matrix: SystemMatrix, eps_p: complex = 1.0) -> np.ndarray:
    """Fixed point M^{-1} F under constant drive: V with dV/dt = 0."""
    force = np.array([0.0, eps_p], dtype=complex)
    return np.linalg.solve(matrix.as_array(), force)


def _as_callable(forcing: Forcing) -> Callable[[float], complex]:
    if isinstance(forcing, PulseSpec):
        return forcing.envelope
    if callable(forcing):
        return forcing
    raise ParameterError(f"forcing must be a PulseSpec or a callable, got {forcing!r}")


def _check_quiet_start(forcing: Forcing, t_start: float) -> None:
    if not isinstance(forcing, PulseSpec) or forcing.shape == "constant":
        return
    earliest = forcing.center - QUIET_START_WIDTHS * forcing.width
    if t_start > earliest:
        raise ParameterError(
            "integration must start at least "
            f"{QUIET_START_WIDTHS:g} pulse widths before the pulse centre "
            f"(t_start <= {earliest:.6e} s) so the zero initial state is "
            "consistent; pass require_quiet_start=False to override"
        )


def _phi1(z: complex) -> complex:
    """(e^z - 1)/z, series for small |z| to avoid cancellation."""
    if abs(z) < 0.25:
        total, term = 1.0 + 0j, 1.0 + 0j
        for k in range(1, 18):
            term *= z / (k + 1)
            total += term
        return total
    return (np.exp(z) - 1.0) / z


def _phi2(z: complex) -> complex:
    """(e^z - 1 - z)/z^2, series for small |z|."""
    if abs(z) < 0.25:
        total, term = 0.5 + 0j, 0.5 + 0j
        for k in range(1, 18):
            term *= z / (k + 2)
            total += term
        return total
    return (np.exp(z) - 1.0 - z) / (z * z)


def _expm_trajectory(
    matrix: SystemMatrix,
    f: Callable[[float], complex],
    t0: float,
    h: float,
    n_steps: int,
    stride: int,
) -> Trajectory:
    """Exponential integrator, solved as a recurrence in the eigenbasis of M.

    With M = S diag(lam) S^-1 and z = -lam*h, y = S^-1 V obeys per step

        y_{n+1} = e^z y_n + S^-1[:, 1] * (h phi1(z) f_n + h phi2(z) (f_{n+1} - f_n)),

    exact for a forcing linear across the step.  Steps are taken in blocks
    of _EXPM_BLOCK: the block's forcing is sampled, the recurrence is
    solved from a zero start by a doubling prefix scan, and the state the
    previous block ended in is added as e^{kz} y_prev.  Only the recorded
    steps are kept, so memory stays O(block) for any step count.
    """
    lam, vecs = np.linalg.eig(matrix.as_array())
    z = -lam * h
    col = np.linalg.inv(vecs)[:, 1:]
    w1 = col * h * np.array([[_phi1(zi)] for zi in z])
    w2 = col * h * np.array([[_phi2(zi)] for zi in z])
    powers = np.exp(np.outer(z, np.arange(1, _EXPM_BLOCK + 1)))  # e^{kz}, k = 1..B

    y_prev = np.zeros((2, 1), dtype=complex)
    f_prev = f(t0)
    steps, states = [], []
    for lo in range(0, n_steps, _EXPM_BLOCK):
        hi = min(lo + _EXPM_BLOCK, n_steps)
        fs = np.array([f_prev] + [f(t0 + n * h) for n in range(lo + 1, hi + 1)], dtype=complex)
        f_prev = fs[-1]
        y = w1 * fs[:-1] + w2 * (fs[1:] - fs[:-1])
        # after the scan and the carry, y[:, i] is the state after step lo + i + 1
        k = 1
        while k < hi - lo:
            y[:, k:] += powers[:, k - 1 : k] * y[:, :-k]
            k *= 2
        y += powers[:, : hi - lo] * y_prev
        y_prev = y[:, -1:]
        n = np.arange(lo + 1, hi + 1)
        keep = (n % stride == 0) | (n == n_steps)
        steps.append(n[keep])
        states.append(y[:, keep])

    v = np.concatenate((np.zeros((2, 1)), vecs @ np.concatenate(states, axis=1)), axis=1)
    times = np.concatenate(([t0], t0 + np.concatenate(steps) * h))
    return Trajectory(times=times, q_plus=v[0], c_plus=v[1])


def integrate(
    matrix: SystemMatrix,
    forcing: Forcing,
    t_span: tuple[float, float],
    dt: float,
    method: str = METHOD_RK4,
    samples: int = 4096,
    require_quiet_start: bool = True,
) -> Trajectory:
    """Integrate dV/dt = -M V + F(t) from V(t_start) = 0.

    ``method="rk4"`` is classical fixed-step Runge-Kutta; it requires
    dt * spectral_radius(M) <= 0.1 and rejects larger steps with the
    maximal admissible dt in the message.  ``method="expm"`` propagates
    each step with the exact matrix exponential and a linear
    interpolation of the forcing across the step, so it has no stability
    bound and is exact (to roundoff) for constant forcing; it solves the
    steps in blocks rather than one at a time.

    The output is decimated to at most ``samples`` points regardless of
    the integration step; the first and last step are always included.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError(f"t_span must be finite, got {t_span!r}")
    if not (t1 > t0):
        raise ParameterError(f"t_span must satisfy t_end > t_start, got {t_span!r}")
    if not (0 < dt < math.inf):
        raise ParameterError(f"dt must be positive and finite, got {dt!r}")
    if method not in (METHOD_RK4, METHOD_EXPM):
        raise ParameterError(f"unknown integration method {method!r}")
    if samples < 2:
        raise ParameterError(f"samples must be >= 2, got {samples}")
    if require_quiet_start:
        _check_quiet_start(forcing, t0)

    rho = matrix.spectral_radius
    if method == METHOD_RK4 and dt * rho > MAX_STEP_RADIUS:
        raise StepSizeError(
            f"dt={dt:.6e} s violates the stability margin "
            f"dt*rho(M) <= {MAX_STEP_RADIUS}; use dt <= {MAX_STEP_RADIUS / rho:.6e} s"
        )

    f = _as_callable(forcing)
    # the 1e-9 guard keeps dt = span/n from producing n+1 steps via roundoff
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n_steps
    stride = max(1, -(-n_steps // (samples - 1)))  # ceil division

    if method == METHOD_EXPM:
        return _expm_trajectory(matrix, f, t0, h, n_steps, stride)

    rec_t = [t0]
    rec_q = [0j]
    rec_c = [0j]
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    q = 0j
    cc = 0j
    for n in range(n_steps):
        t = t0 + n * h
        f0 = f(t)
        fh = f(t + 0.5 * h)
        f1 = f(t + h)
        # k = -M V + F, unrolled for the 2x2 system
        k1q = -(a * q + b * cc)
        k1c = -(c * q + d * cc) + f0
        q2, c2 = q + 0.5 * h * k1q, cc + 0.5 * h * k1c
        k2q = -(a * q2 + b * c2)
        k2c = -(c * q2 + d * c2) + fh
        q3, c3 = q + 0.5 * h * k2q, cc + 0.5 * h * k2c
        k3q = -(a * q3 + b * c3)
        k3c = -(c * q3 + d * c3) + fh
        q4, c4 = q + h * k3q, cc + h * k3c
        k4q = -(a * q4 + b * c4)
        k4c = -(c * q4 + d * c4) + f1
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        cc = cc + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if (n + 1) % stride == 0 or n + 1 == n_steps:
            rec_t.append(t0 + (n + 1) * h)
            rec_q.append(q)
            rec_c.append(cc)

    return Trajectory(
        times=np.array(rec_t, dtype=float),
        q_plus=np.array(rec_q, dtype=complex),
        c_plus=np.array(rec_c, dtype=complex),
    )


def reconstruct_displacement(
    traj: Trajectory,
    steady: SteadyState,
    delta: float,
    amplitude_scale: float = 1.0,
) -> Trajectory:
    """Fill q_total(t) = q0 + 2*Re[q_plus(t) * scale * exp(-i*delta*t)].

    ``amplitude_scale`` is the dimensionless probe scale carried by
    DriveParams; the physical pulse amplitude is already part of the
    trajectory through the forcing.
    """
    phase = np.exp(-1j * delta * traj.times)
    q_total = steady.mirror_displacement + 2.0 * np.real(
        traj.q_plus * amplitude_scale * phase
    )
    return replace(traj, q_total=q_total)
