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

The step rule is an exponential step, exact for a forcing interpolated
linearly across the step (so for constant forcing at any step size).
Classical fixed-step RK4 stays as a reference rule, taken only on request.
For constant M each is the linear recurrence

    V_{n+1} = P V_n + sum_j W_j f(t_n + j*h/q)

(RK4: q = 2, P and W_j polynomials in Z = -h*M; exponential: q = 1,
P = e^Z, phi-function weights W_j), and one engine solves it in blocks by
a prefix scan instead of a step-by-step loop.  The output keeps only
every stride-th state, so c steps, c a divisor of the stride, are first
composed into one step of the same form, (P^c, K) with c*q samples, and
the scan forms only the states at multiples of c.  Rules, fold and engine
are fixed-order float64 polynomials in the real form of M, free of BLAS
and LAPACK; so are M's two eigenvalues, the closed-form roots of
x^2 - (A + D) x + (AD - BC), the larger in magnitude first.  Sharing
rules, fold and engine, the methods are no oracles for each other; the
per-step loops in the tests are.  The drive is a PulseSpec's real
envelope, and each W_j is one real column, the response to a real unit
drive.  The envelope is sampled at every step's times all the same, on
an array of the times of _BLOCK steps or fewer per call.  A block's
calls fill one float64 sample matrix, which one product with the W
columns weighs, and a product of two small matrices forms all its terms
in one multiply, then adds them in the same order: numpy's call
overhead, not arithmetic, is what these small products cost.  The
envelope's exponential is _exp, a range reduction and a Taylor
polynomial in exactly rounded float64 array ops: numpy's SIMD exp and
cosh, and libm's, differ in the last bit from machine to machine, and a
call to libm per sample is slow.

The membrane displacement is reconstructed as

    q(t) = q0 + 2 * Re[ q_plus(t) * exp(-i*d*t) ]

which is real by construction and reduces to q0 + 2*q_plus*cos(d*t) for
real q_plus.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .params import HBAR, DerivedConstants, ParameterError, SystemParams, _require
from .response import InstabilityError, _check_detuning, stability
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

# Steps per block of the time-stepping scan, and the most steps whose forcing
# one call samples.  The work arrays hold one block or one call, so memory
# does not grow with the step count.  Each block pays a fixed cost in numpy
# calls while the scan does log2(block) levels of work per step; a block this
# long spreads the fixed cost over thousands of steps.
_BLOCK = 4096

# The most steps folded into one when only every stride-th state is kept: the
# fold is the largest divisor of the stride up to this.  Each folded step costs
# the scan as much as a single one, and its forcing term has c*q + 1 columns.
_FOLD = 16

# E_c: the real-form column of Re c, through which both step rules take the real drive.
_FORCED = slice(2, 3)

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
        _require("pulse width", self.width, "positive")
        _require("pulse amplitude", self.amplitude, "non-negative")
        _require("pulse center", self.center)

    def envelope(self, t: float | np.ndarray) -> float | np.ndarray:
        """Probe drive at time t (1/s): a float for a float, an array for a float64 array."""
        # far tails overflow x*x to inf, as floats do silently; a NaN time gives NaN
        # for sech and gaussian, 0.0 for rectangle and the amplitude for constant
        with np.errstate(over="ignore", invalid="ignore"):
            x = (np.asarray(t, dtype=float) - self.center) / self.width
            if self.shape == "constant":
                y = np.full(np.shape(t), self.amplitude, dtype=float)
            elif self.shape == "sech":
                # sech x = 2e/(1 + e^2) = 2e - 2e e^2/(1 + e^2) with e = e^-|x|, which
                # underflows to 0 in the far tails; the second form weights the
                # roundings of its e^2 term by e^2/(1 + e^2), the first does not.
                # The exact doubling comes last, so A e - A e e^2/(1 + e^2) <= A/2
                # cannot overflow where 2 A e would
                e = _exp(-np.abs(x))
                y = self.amplitude * e
                y -= y * (e * e / (1.0 + e * e))
                y *= 2.0
            elif self.shape == "gaussian":
                y = self.amplitude * _exp(-0.5 * x * x)
            else:
                y = np.where(np.abs(x) <= 0.5, self.amplitude, 0.0)
        return y if np.ndim(t) else float(y)


def _exp(a) -> np.ndarray:
    """e^a for a <= 0, under 1 ulp for normal results, from exactly rounded float64 ops only.

    numpy's np.exp and libm's exp differ in the last bit from machine to machine,
    so the bytes would too.  Every caller passes a <= 0 (-0 gives 1, as +0 does).
    Here a is raised to at least -746 (e^-746 rounds to 0), reduced as
    a = k ln2 + r, |r| <= ln2/2, with fdlibm's two-part ln2 (k*_LN2_HI is exact),
    e^r is the Taylor polynomial 1 + r + r^2 (1/2! + ... + r^11/13!) by Horner,
    and 2^k is applied by ldexp.  A NaN's k casts to an arbitrary int
    (numpy warns as invalid) and the result stays NaN.
    """
    a = np.maximum(a, -746.0)
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

    The detuning has the response's domain, |delta| < omega_c.  The
    eigenvalues are the roots of x^2 - (a + d) x + (ad - bc), the larger in
    magnitude first: (a + d)/2 plus or minus sqrt(((a - d)/2)^2 + bc), with
    the sign that adds to (a + d)/2 and so does not cancel, then the other
    as (ad - bc) over it (Vieta).  An entry or eigenvalue that overflows
    float64 raises ParameterError.  The working point must pass the response's
    stability gate, and both eigenvalues must have positive real part;
    otherwise the linearized dynamics grow without bound (parametric
    instability at high pump power) and InstabilityError is raised.
    """
    _check_detuning(delta, params)
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

    half, root = (a + d) / 2, cmath.sqrt((a - d) * (a - d) / 4 + b * c)
    big = half + root if (half.conjugate() * root).real >= 0 else half - root
    eig = (big, (a * d - b * c) / big if big else 0j)
    if not all(map(cmath.isfinite, (a, b, c, d, *eig))):
        raise ParameterError(f"sideband matrix at delta={delta:.6e} rad/s overflows float64: "
                             f"entries {a:.3e}, {b:.3e}, {c:.3e}, {d:.3e}, "
                             f"eigenvalues {eig[0]:.3e}, {eig[1]:.3e}")
    stability(params, steady.alpha)
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


def _apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x as a fixed-order sum of float64 products, without BLAS and its machine-chosen order.

    For a wide x, the forcing and the scan: one multiply and one add per column of a,
    each the size of the result, where _mul's terms would be a.shape[1] times larger.
    """
    cols = a.T[:, :, None]
    acc = cols[0] * x[0]
    for col, row in zip(cols[1:], x[1:]):
        acc += col * row
    return acc


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for small a and b, bit for bit _apply's: every term in one multiply, then one
    add.accumulate down the terms.  Its partial sums are its outputs, so it adds left to
    right; a reduce may sum pairwise, in another order."""
    return np.add.accumulate(a.T[:, :, None] * b[:, None, :])[-1]


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real matrix acting on (Re x0, Im x0, Re x1, Im x1, ...) as the complex m acts on x."""
    parts = np.stack([np.stack([m.real, -m.imag], -1), np.stack([m.imag, m.real], -1)], 1)
    return parts.reshape(2 * m.shape[0], 2 * m.shape[1])


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """1, x, x^2, ..., x^(n-1), each power by _mul, stacked along a first axis."""
    xs = [np.eye(len(x)), x]
    while len(xs) < n:
        xs.append(_mul(xs[-1], x))
    return np.stack(xs)


def _series(coefs, xs: np.ndarray) -> np.ndarray:
    """coefs[0]*xs[0] + coefs[1]*xs[1] + ... of the stacked xs, added left to right, as one _mul."""
    k = len(coefs)
    return _mul(np.array([coefs]), xs[:k].reshape(k, -1)).reshape(xs.shape[1:])


def _rk4_rule(matrix: SystemMatrix, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 as V' = P V + sum_j W_j f(t_n + j*h/2), j = 0, 1, 2, in real form.

    With Z = -h*M the four stages compose to P = 1 + Z + Z^2/2 + Z^3/6 + Z^4/24
    and W_j = h/6 * (1 + Z + Z^2/2 + Z^3/4, 4 + 2Z + Z^2/2, 1) E_c.
    """
    zk = _powers(-h * _real_form(matrix.as_array()), 5)
    p = _series((1.0, 1.0, 1 / 2, 1 / 6, 1 / 24), zk)
    # each row its own product: a zero coefficient padding a shorter row could flip a -0
    w = [h / 6 * _series(c, zk)[:, _FORCED] for c in ((1.0, 1.0, 1 / 2, 1 / 4), (4.0, 2.0, 1 / 2), (1.0,))]
    return p, np.concatenate(w, axis=1)


def _expm_rule(matrix: SystemMatrix, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact step for a forcing linear across it, with Z = -h*M, in real form:

        V' = e^Z V + h (phi1 - phi2)(Z) E_c f_n + h phi2(Z) E_c f_{n+1}

    e^Z, h phi1(Z) E_c and h phi2(Z) E_c are the top block row of exp(A),
    A = [[Z, h E_c, 0], [0, 0, 1], [0, 0, 0]], n + 2 square (Van Loan 1978),
    taken as the Taylor polynomial of A/2^s squared s times, h*rho(M)/2^s < 1:
    rho, unlike a norm, does not see the scaling between the q and c units.
    """
    z = -h * _real_form(matrix.as_array())
    n = len(z)
    a = np.zeros((n + 2, n + 2))
    a[:n, :n] = z
    a[:n, n : n + 1] = h * np.eye(n)[:, _FORCED]
    a[n, n + 1] = 1.0
    s = max(0, math.frexp(h * matrix.spectral_radius)[1])
    xs = _powers(a / 2**s, len(_EXP_TAYLOR))
    if s == 0:
        e = _series(_EXP_TAYLOR, xs)
    else:
        # X = e^(A/2^s) - I squares as (I + X)^2 - I = 2X + X^2: the slow mode's
        # small entries are never rounded against the 1 of I, whose error doubles
        x = _series(_EXP_TAYLOR[1:], xs[1:])
        for _ in range(s):
            x = 2.0 * x + _mul(x, x)
        e = x + np.eye(n + 2)
    phi1, phi2 = e[:n, n : n + 1], e[:n, n + 1 :]
    return e[:n, :n], np.concatenate([phi1 - phi2, phi2], axis=1)


def _fold(p: np.ndarray, w: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """c consecutive steps of the rule (P, W) as one step (P^c, K) with q' = c*q samples.

    Step i of the c takes samples q*i + j, j = 0..q, so K_m = sum of
    P^(c-1-i) W_j over the i, j with q*i + j = m.  The c products
    P^(c-1-i) W are one _mul of the stacked powers; a column of K takes at
    most two terms, W_q of step i - 1 and W_0 of step i, added to zero.
    """
    n, q = len(p), w.shape[1] - 1
    pk = _powers(p, c + 1)
    terms = _mul(pk[c - 1 :: -1].reshape(c * n, n), w).reshape(c, n, q + 1)
    k = np.zeros((n, c * q + 1))
    k[:, :-1] += terms[:, :, :q].transpose(1, 0, 2).reshape(n, c * q)
    k[:, q::q] += terms[:, :, q].T
    return pk[c], k


def _scan(p, w, at, k0, n, every, v, f, per_call):
    """n steps of V' = P V + sum_j W_j f_(k0 + q*i + j), j = 0..q, from V = v and f_k0 = f.

    at(a, b) samples the real forcing f_k at the sample indices a <= k < b
    as a float64 array, called on at most per_call steps at a time, in
    order.  Steps are solved in blocks of _BLOCK.  A block's calls fill one
    float64 sample matrix, column i holding samples 0..q of step i (row 0
    is the carried sample, then row q of the column before), which one
    _apply of W weighs; the carried state is added as P V to the first
    step, then a doubling prefix scan with P, P^2, P^4, ... gives every
    state.  Returns the states after steps every, 2*every, ... (one array
    of columns per block), the state after step n and f_(k0 + q*n).
    """
    q = w.shape[1] - 1
    pows = [p]
    while len(pows) < (min(n, _BLOCK) - 1).bit_length():
        pows.append(_mul(pows[-1], pows[-1]))

    kept = []
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        xs = np.empty((q + 1, m))
        for a in range(0, m, per_call):
            b = min(a + per_call, m)
            xs[1:, a:b] = at(k0 + q * (lo + a) + 1, k0 + q * (lo + b) + 1).reshape(-1, q).T
        xs[0, 0], xs[0, 1:], f = f, xs[q, :-1], xs[q, -1]
        y = _apply(w, xs)
        del xs  # freed before the scan
        y[:, :1] += _mul(p, v)
        # after the carry and the scan, y[:, i] is the state after step lo + i + 1
        for k, pk in enumerate(pows[: (m - 1).bit_length()]):
            y[:, 2**k :] += _apply(pk, y[:, : -(2**k)])
        v = y[:, -1:]
        kept.append(y[:, -(lo + 1) % every :: every].copy())  # a copy, so the block is freed
    return kept, v, f


def _advance(
    p: np.ndarray,
    w: np.ndarray,
    sample: Callable[[np.ndarray], np.ndarray],
    t0: float,
    h: float,
    n_steps: int,
    stride: int,
) -> Trajectory:
    """Solve V_{n+1} = P V_n + sum_j W_j f(t0 + (n + j/q) h) from V_0 = 0, j = 0..q,
    keeping the states after every stride-th step and after the last.

    P and the columns W_j come in real form, P acting on (Re, Im) pairs and
    W_j the response to a real unit drive, whose float64 samples are f(t0)
    here, then calls of at most _BLOCK steps, so the solve is float64
    multiplies and adds in a fixed order, its memory O(block) for any step
    count, and its bytes do not depend on whether the machine fuses the
    parts of a complex product.  Only the kept states are needed, so c
    steps, c the largest divisor of stride up to _FOLD, are folded into one
    (_fold) and _scan solves n_steps // c such steps; the last n_steps % c
    steps, which hold no multiple of stride, take the rule itself.  Every
    step's forcing still enters, sampled once at each t0 + k h/q, in order.
    """
    q = w.shape[1] - 1
    c = max(d for d in range(1, _FOLD + 1) if stride % d == 0)
    n = n_steps // c

    def at(a: int, b: int) -> np.ndarray:
        return sample(t0 + np.arange(a, b) / q * h)

    v = np.zeros((len(p), 1))
    kept, v, f = _scan(*_fold(p, w, c), at, 0, n, stride // c, v, at(0, 1)[0], _BLOCK // c)
    _, v, _ = _scan(p, w, at, q * c * n, n_steps % c, stride, v, f, _BLOCK)
    steps = np.arange(stride, n_steps + 1, stride)
    if n_steps % stride:
        steps, kept = np.append(steps, n_steps), [*kept, v]

    v = np.concatenate([np.zeros((len(p), 1)), *kept], axis=1)
    q_plus, c_plus = np.ascontiguousarray(v.T).view(complex).T.copy()
    times = np.concatenate(([t0], t0 + steps * h))
    return Trajectory(times=times, q_plus=q_plus, c_plus=c_plus)


def integrate(
    matrix: SystemMatrix,
    forcing: PulseSpec,
    t_span: tuple[float, float],
    dt: float,
    method: str = METHOD_EXPM,
    samples: int = 4096,
) -> Trajectory:
    """Integrate dV/dt = -M V + F(t) from V(t_start) = 0.

    ``method="expm"``, the default, propagates each step with the exact
    matrix exponential and a linear interpolation of the forcing across
    the step, so it has no stability bound and is exact (to roundoff) for
    constant forcing.  ``method="rk4"`` is classical fixed-step
    Runge-Kutta, kept as a reference; it requires dt * spectral_radius(M)
    <= 0.1.  Both solve the steps in blocks rather than one at a time.  The
    forcing is a PulseSpec, quiet at t_start (QUIET_START_WIDTHS widths
    early) unless its shape is constant.

    The output is decimated to at most ``samples`` points regardless of
    the integration step: the state after every stride-th step, stride =
    ceil(n_steps / (samples - 1)), and always the first and last.  States
    in between are never formed, but every step's forcing enters, sampled
    once at each of its times.

    ParameterError refuses a forcing that is not a PulseSpec, a ``samples``
    that is not an integer >= 2, an RK4 step past that margin, naming the
    largest admissible dt, a step count that overflows float64, a sample
    spacing h/q at or below the float64 spacing at the span's largest |t| (the
    sample times would not be distinct), and a final state that is not
    finite: a PulseSpec's samples are finite, so that is the state overflowing.
    """
    if not isinstance(forcing, PulseSpec):
        raise ParameterError(f"forcing must be a PulseSpec, got {forcing!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError(f"t_span must be finite, got {t_span!r}")
    if not (t1 > t0):
        raise ParameterError(f"t_span must satisfy t_end > t_start, got {t_span!r}")
    _require("dt", dt, "positive")
    if method not in (METHOD_RK4, METHOD_EXPM):
        raise ParameterError(f"unknown integration method {method!r}")
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ParameterError(f"samples must be an integer, got {samples!r}") from None
    if samples < 2:
        raise ParameterError(f"samples must be >= 2, got {samples}")
    if forcing.shape != "constant":
        earliest = forcing.center - QUIET_START_WIDTHS * forcing.width
        if t0 > earliest:
            raise ParameterError(
                "integration must start at least "
                f"{QUIET_START_WIDTHS:g} pulse widths before the pulse centre "
                f"(t_start <= {earliest:.6e} s) so the zero initial state is consistent"
            )

    rho = matrix.spectral_radius
    if method == METHOD_RK4 and dt * rho > MAX_STEP_RADIUS:
        raise ParameterError(
            f"dt={dt:.6e} s violates the stability margin "
            f"dt*rho(M) <= {MAX_STEP_RADIUS}; use dt <= {MAX_STEP_RADIUS / rho:.6e} s"
        )

    steps = (t1 - t0) / dt
    if not math.isfinite(steps):
        raise ParameterError(f"step count (t_end - t_start)/dt overflows float64: "
                             f"t_span {t_span!r}, dt={dt!r}")
    # the 1e-9 guard keeps dt = span/n from producing n+1 steps via roundoff
    n_steps = max(1, math.ceil(steps - 1e-9))
    h = (t1 - t0) / n_steps
    p, w = (_rk4_rule if method == METHOD_RK4 else _expm_rule)(matrix, h)
    if h / (w.shape[1] - 1) <= math.ulp(max(abs(t0), abs(t1))):  # h/q: the sample spacing
        raise ParameterError(f"dt={dt!r} s is too small to space distinct sample "
                             f"times over t_span {t_span!r}")
    stride = max(1, -(-n_steps // (samples - 1)))  # ceil division
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is refused below
        traj = _advance(p, w, forcing.envelope, t0, h, n_steps, stride)
    if not (np.isfinite(traj.q_plus[-1]) and np.isfinite(traj.c_plus[-1])):
        raise ParameterError("the final state is not finite: the state overflows float64")
    return traj


def reconstruct_displacement(traj: Trajectory, steady: SteadyState, delta: float) -> Trajectory:
    """Fill q_total(t) = q0 + 2*Re[q_plus(t) * exp(-i*delta*t)].

    The real part is written out as Re q_plus cos + Im q_plus sin in float64
    ufuncs, so no complex multiply, whose parts a machine may fuse, enters.
    """
    phase = delta * traj.times
    q = traj.q_plus
    q_total = steady.mirror_displacement + 2.0 * (q.real * np.cos(phase) + q.imag * np.sin(phase))
    return replace(traj, q_total=q_total)
