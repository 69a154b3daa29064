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

Two step rules are provided: classical fixed-step RK4, and an exponential
step that is exact for a forcing interpolated linearly across the step
(so for constant forcing at any step size).  For constant M each is the
linear recurrence

    V_{n+1} = P V_n + sum_j W_j f(t_n + j*h/q)

(RK4: q = 2, P and W_j polynomials in Z = -h*M; exponential: q = 1,
P = e^Z, phi-function weights W_j), and one engine solves it in blocks by
a prefix scan instead of a step-by-step loop.  Rules and engine are
fixed-order float64 polynomials in the real form of M, free of BLAS and
LAPACK.  Sharing them, the methods are no oracles for each other; the
per-step loops in the tests are.  The engine makes one forcing call per
block: a PulseSpec's envelope takes the block's time array (a plain
callable is still called once per time).  The envelope's exponential is
_exp, a range reduction and a Taylor polynomial in exactly rounded float64
array ops: numpy's SIMD exp and cosh, and libm's, differ in the last bit
from machine to machine, and a call to libm per sample is slow.

The membrane displacement is reconstructed as

    q(t) = q0 + 2 * Re[ q_plus(t) * exp(-i*d*t) ]

which is real by construction and reduces to q0 + 2*q_plus*cos(d*t) for
real q_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

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

# Steps per block of the time-stepping scan.  Its work arrays, the sampled
# forcing among them, hold one block, so memory does not grow with the step
# count.  Each block pays a fixed cost in numpy calls, the one forcing call
# among them, while the scan does log2(block) levels of work per step; a
# block this long spreads the fixed cost over thousands of steps.
_BLOCK = 4096

# E_c: the real-form columns that act on (Re, Im) of the probe-driven c
# component, through which both step rules take the forcing.
_FORCED = slice(2, 4)

# Taylor coefficients 1/k!, k < 19, of the exponential step: at spectral radius
# below 1 the terms left out sum to under 1/19! * 20/19 < 9e-18 (unit roundoff 1.1e-16).
_EXP_TAYLOR = tuple(1 / math.factorial(k) for k in range(19))

# _exp's reduction constants (fdlibm e_exp.c: _LN2_HI has 21 trailing zero bits, so
# k*_LN2_HI is exact for |k| < 2^21) and its Horner coefficients 1/13!, ..., 1/2!:
# at |r| <= ln2/2 the terms left out sum to under 5e-18 relative (0.05 ulp).
_INV_LN2 = 1.44269504088896338700e00
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_EXP_Q = tuple(1 / math.factorial(k) for k in range(13, 1, -1))


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

    def envelope(self, t: float | np.ndarray) -> float | np.ndarray:
        """Probe drive at time t (1/s): a float for a float, an array for a float64 array."""
        # far tails overflow x*x to inf, as floats do silently; a NaN time gives NaN
        with np.errstate(over="ignore", invalid="ignore"):
            x = (np.asarray(t, dtype=float) - self.center) / self.width
            if self.shape == "constant":
                y = np.full(np.shape(t), self.amplitude, dtype=float)
            elif self.shape == "sech":
                # sech x = 2e/(1 + e^2) = 2e - 2e e^2/(1 + e^2) with e = e^-|x|, which
                # underflows to 0 in the far tails; the second form weights the
                # roundings of its e^2 term by e^2/(1 + e^2), the first does not
                e = _exp(-np.abs(x))
                y = 2.0 * self.amplitude * e
                y -= y * (e * e / (1.0 + e * e))
            elif self.shape == "gaussian":
                y = self.amplitude * _exp(-0.5 * x * x)
            else:
                y = np.where(np.abs(x) <= 0.5, self.amplitude, 0.0)
        return y if np.ndim(t) else float(y)


def _exp(a) -> np.ndarray:
    """e^a for a <= 0, under 1 ulp for normal results, from exactly rounded float64 ops only.

    numpy's np.exp and libm's exp differ in the last bit from machine to machine,
    so the bytes would too.  Here a is clipped to [-746, 0] (e^-746 rounds to 0),
    reduced as a = k ln2 + r, |r| <= ln2/2, with fdlibm's two-part ln2 (k*_LN2_HI
    is exact), e^r is the Taylor polynomial 1 + r + r^2 (1/2! + ... + r^11/13!)
    by Horner, and 2^k is applied by ldexp.  A NaN's k casts to an arbitrary int
    (numpy warns as invalid) and the result stays NaN.
    """
    a = np.clip(a, -746.0, 0.0)
    k = np.rint(a * _INV_LN2)
    r = a - k * _LN2_HI
    r -= k * _LN2_LO
    p = _EXP_Q[0] * r
    p += _EXP_Q[1]
    for c in _EXP_Q[2:]:  # in place, and still one exactly rounded op each
        p *= r
        p += c
    p *= r * r
    p += r
    p += 1.0
    return np.ldexp(p, k.astype(np.intc))


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


def _sampler(forcing: Forcing) -> Callable[[np.ndarray], Sequence[complex]]:
    """The forcing at an array of times: a pulse's array envelope, or a callable once per time."""
    if isinstance(forcing, PulseSpec):
        return forcing.envelope
    if callable(forcing):
        return lambda ts: [forcing(t) for t in ts.tolist()]
    raise ParameterError(f"forcing must be a PulseSpec or a callable, got {forcing!r}")


def _dot(row, xs):
    """row[0]*xs[0] + row[1]*xs[1] + ..., elementwise and added left to right."""
    acc = row[0] * xs[0]
    for coef, x in zip(row[1:], xs[1:]):
        acc += coef * x
    return acc


def _apply(a: np.ndarray, x) -> np.ndarray:
    """a @ x as a fixed-order sum of float64 products, without BLAS and its machine-chosen order."""
    return _dot(a.T[:, :, None], x)


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix acting on (Re x0, Im x0, Re x1, Im x1, ...) as the complex m acts on x."""
    parts = np.stack([np.stack([m.real, -m.imag], -1), np.stack([m.imag, m.real], -1)], 1)
    return parts.reshape(2 * m.shape[0], 2 * m.shape[1])


def _powers(x: np.ndarray, n: int) -> list[np.ndarray]:
    """[1, x, x^2, ..., x^(n-1)], each power by _apply."""
    xs = [np.eye(len(x)), x]
    while len(xs) < n:
        xs.append(_apply(xs[-1], x))
    return xs


def _rk4_rule(matrix: SystemMatrix, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 as V' = P V + sum_j W_j f(t_n + j*h/2), j = 0, 1, 2, in real form.

    With Z = -h*M the four stages compose to P = 1 + Z + Z^2/2 + Z^3/6 + Z^4/24
    and W_j = h/6 * (1 + Z + Z^2/2 + Z^3/4, 4 + 2Z + Z^2/2, 1) E_c.
    """
    zk = _powers(-h * _real_form(matrix.as_array()), 5)
    p = _dot((1.0, 1.0, 1 / 2, 1 / 6, 1 / 24), zk)
    w = [h / 6 * _dot(c, zk)[:, _FORCED] for c in ((1.0, 1.0, 1 / 2, 1 / 4), (4.0, 2.0, 1 / 2), (1.0,))]
    return p, np.concatenate(w, axis=1)


def _expm_rule(matrix: SystemMatrix, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact step for a forcing linear across it, with Z = -h*M, in real form:

        V' = e^Z V + h (phi1 - phi2)(Z) E_c f_n + h phi2(Z) E_c f_{n+1}

    e^Z, h phi1(Z) E_c and h phi2(Z) E_c are the top block row of exp(A),
    A = [[Z, h E_c, 0], [0, 0, 1], [0, 0, 0]] (Van Loan 1978), taken as the
    Taylor polynomial of A/2^s squared s times, where h*rho(M)/2^s < 1: rho,
    unlike a norm, does not see the scaling between the q and c units.
    """
    z = -h * _real_form(matrix.as_array())
    n = len(z)
    a = np.zeros((n + 4, n + 4))
    a[:n, :n] = z
    a[:n, n : n + 2] = h * np.eye(n)[:, _FORCED]
    a[n : n + 2, n + 2 :] = np.eye(2)
    s = max(0, math.frexp(h * matrix.spectral_radius)[1])
    e = _dot(_EXP_TAYLOR, _powers(a / 2**s, len(_EXP_TAYLOR)))
    for _ in range(s):
        e = _apply(e, e)
    phi1, phi2 = e[:n, n : n + 2], e[:n, n + 2 :]
    return e[:n, :n], np.concatenate([phi1 - phi2, phi2], axis=1)


def _advance(
    p: np.ndarray,
    w: np.ndarray,
    sample: Callable[[np.ndarray], Sequence[complex]],
    t0: float,
    h: float,
    n_steps: int,
    stride: int,
) -> Trajectory:
    """Solve V_{n+1} = P V_n + sum_j W_j f(t0 + (n + j/q) h) from V_0 = 0, j = 0..q.

    P and the columns W_j come in real form, acting on (Re, Im) pairs, so
    the solve is float64 multiplies and adds in a fixed order and its bytes
    do not depend on whether the machine fuses the parts of a complex
    product.  Steps are taken in blocks of _BLOCK.  A block samples the
    forcing in one call at its distinct times after the first, whose sample
    the previous block carries over, forms each step's forcing term, adds
    the previous block's last state as P V to the first of them, and solves
    the recurrence by a doubling prefix scan with P, P^2, P^4, ...  Only the
    recorded steps are kept, so memory stays O(block) for any step count.
    """
    q = w.shape[1] // 2 - 1
    pows = [p]
    while 2 ** len(pows) < _BLOCK:
        pows.append(_apply(pows[-1], pows[-1]))

    last, f_prev, steps, states = np.zeros((len(p), 1)), sample(np.array([t0]))[0], [], []
    for lo in range(0, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - lo)
        fs = np.empty(q * n + 1, dtype=complex)
        fs[0], fs[1:] = f_prev, sample(t0 + np.arange(q * lo + 1, q * (lo + n) + 1) / q * h)
        f_prev = fs[-1]
        # sample j of step i is fs[q*i + j]; its (Re, Im) sit at 2*(q*i + j) + (0, 1)
        pairs = fs.view(float)
        y = _apply(w, [pairs[r :: 2 * q][:n] for r in range(w.shape[1])])
        y[:, :1] += _apply(p, last)
        # after the carry and the scan, y[:, i] is the state after step lo + i + 1
        for k, pk in enumerate(pows[: (n - 1).bit_length()]):
            y[:, 2**k :] += _apply(pk, y[:, : -(2**k)])
        last = y[:, -1:]
        first = -(lo + 1) % stride  # y's column of the block's first multiple of stride
        steps.append(np.arange(lo + 1 + first, lo + n + 1, stride))
        states.append(y[:, first::stride].copy())  # a copy, so the block itself is freed
    if n_steps % stride:
        steps.append([n_steps])
        states.append(last)

    v = np.concatenate([np.zeros((len(p), 1)), *states], axis=1)
    q_plus, c_plus = np.ascontiguousarray(v.T).view(complex).T.copy()
    times = np.concatenate(([t0], t0 + np.concatenate(steps) * h))
    return Trajectory(times=times, q_plus=q_plus, c_plus=c_plus)


def integrate(
    matrix: SystemMatrix,
    forcing: Forcing,
    t_span: tuple[float, float],
    dt: float,
    method: str = METHOD_RK4,
    samples: int = 4096,
) -> Trajectory:
    """Integrate dV/dt = -M V + F(t) from V(t_start) = 0.

    ``method="rk4"`` is classical fixed-step Runge-Kutta; it requires
    dt * spectral_radius(M) <= 0.1 and rejects larger steps with the
    maximal admissible dt in the message.  ``method="expm"`` propagates
    each step with the exact matrix exponential and a linear
    interpolation of the forcing across the step, so it has no stability
    bound and is exact (to roundoff) for constant forcing.  Both solve the
    steps in blocks rather than one at a time.  A pulse must be quiet at
    t_start (QUIET_START_WIDTHS widths early); a callable is not checked.

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
    if isinstance(forcing, PulseSpec) and forcing.shape != "constant":
        earliest = forcing.center - QUIET_START_WIDTHS * forcing.width
        if t0 > earliest:
            raise ParameterError(
                "integration must start at least "
                f"{QUIET_START_WIDTHS:g} pulse widths before the pulse centre "
                f"(t_start <= {earliest:.6e} s) so the zero initial state is consistent"
            )

    rho = matrix.spectral_radius
    if method == METHOD_RK4 and dt * rho > MAX_STEP_RADIUS:
        raise StepSizeError(
            f"dt={dt:.6e} s violates the stability margin "
            f"dt*rho(M) <= {MAX_STEP_RADIUS}; use dt <= {MAX_STEP_RADIUS / rho:.6e} s"
        )

    sample = _sampler(forcing)
    # the 1e-9 guard keeps dt = span/n from producing n+1 steps via roundoff
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n_steps
    stride = max(1, -(-n_steps // (samples - 1)))  # ceil division
    rule = _rk4_rule if method == METHOD_RK4 else _expm_rule
    return _advance(*rule(matrix, h), sample, t0, h, n_steps, stride)


def reconstruct_displacement(traj: Trajectory, steady: SteadyState, delta: float) -> Trajectory:
    """Fill q_total(t) = q0 + 2*Re[q_plus(t) * exp(-i*delta*t)].

    The real part is written out as Re q_plus cos + Im q_plus sin in float64
    ufuncs, so no complex multiply, whose parts a machine may fuse, enters.
    """
    phase = delta * traj.times
    q = traj.q_plus
    q_total = steady.mirror_displacement + 2.0 * (q.real * np.cos(phase) + q.imag * np.sin(phase))
    return replace(traj, q_total=q_total)
