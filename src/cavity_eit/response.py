"""Linear response of the driven cavity to a weak probe.

The probe acquires first-order sidebands on top of the steady state; the
sideband amplitude per unit probe drive is the rational function

    c_plus(d) = [ m*(d^2 - om^2 + i*gm*d) * (2k - i*(D + d)) - i*alpha ]
                ---------------------------------------------------------
                [ m*(d^2 - om^2 + i*gm*d) * ((2k - i*d)^2 + D^2) + 2*D*alpha ]

with d the probe-pump detuning, om/gm the membrane frequency/damping,
k the cavity half-linewidth, D the effective detuning and alpha the
optomechanical interaction strength from the steady state.  Everything
else in this module is algebra on top of it:

* transmitted / reflected amplitudes  eps_T = 2k*c_plus,  eps_R = eps_T - 1
* spectra  T = |eps_T|^2,  R = |eps_R|^2
* group delay / advance  tau_X = Im[(d eps_X / d detuning) / eps_X],
  the exact quotient-rule derivative of the rational function
* the weak-coupling transparency half-width  Gamma = gm/2 + alpha / (4*m*om*k),
  affine in pump power, formed by power_sweep (see its validity note)
* the stability of the working point: ``stability(params, alpha)`` refuses an
  interaction strength at which a pole of c_plus does not decay; a sweep gates
  the alpha it solved at its largest pump.

Delays where the relevant amplitude magnitude falls below
``AMPLITUDE_FLOOR`` are reported as NaN rather than as a huge number:
1/eps_X amplifies roundoff without bound there, and at the empty-cavity
resonance eps_R is genuinely zero, so no finite value would be honest.
Where den is exactly zero eps_T and both delays are NaN, for a scalar
detuning as for an array.  No threshold is set on den, whose units depend
on the unit of time.  NaN propagates through tables and CSV output as a
gap, at any table length; the command line writes it as ``NaN`` and exits 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .params import DriveParams, ParameterError, SystemParams, _require, derive
from .steady_state import SteadyState, solve_steady

ArrayLike = Union[float, np.ndarray]

# |eps_X| below which a group delay is declared undefined.
AMPLITUDE_FLOOR = 1e-9


@dataclass(frozen=True)
class SpectrumTable:
    """Columnar probe response over a detuning grid."""

    delta: np.ndarray  # rad/s, strictly increasing
    eps_t: np.ndarray  # complex
    transmission: np.ndarray  # |eps_t|^2
    reflection: np.ndarray  # |eps_t - 1|^2
    phase_t: np.ndarray  # rad
    tau_t: np.ndarray  # s, NaN gaps where undefined
    tau_r: np.ndarray  # s
    power: float  # W, pump power the steady state was solved at


class InstabilityError(ArithmeticError):
    """The linearised dynamics about the working point have a mode that does not decay."""


class PowerPoint(NamedTuple):
    power: float  # W
    tau_t: float  # s
    tau_r: float  # s
    gamma_width: float  # rad/s
    transmission: float  # |eps_T|^2
    alpha: float  # kg rad^3/s^3, the steady state's interaction strength at this pump


def _pieces(delta: ArrayLike, params: SystemParams, alpha: ArrayLike):
    """Numerator and denominator of the response, plus their detuning derivatives."""
    d = np.asarray(delta, dtype=float)
    m = params.mirror_mass
    om = params.mirror_freq
    gm = params.mirror_damping
    k2 = 2.0 * params.cavity_decay
    det = params.effective_detuning

    chi = m * (d * d - om * om + 1j * gm * d)
    dchi = m * (2.0 * d + 1j * gm)
    u = k2 - 1j * (det + d)
    w = (k2 - 1j * d) ** 2 + det * det
    dw = -2j * (k2 - 1j * d)

    num = chi * u - 1j * alpha
    dnum = dchi * u - 1j * chi
    den = chi * w + 2.0 * det * alpha
    dden = dchi * w + chi * dw
    return num, dnum, den, dden


def _check_detuning(delta: ArrayLike, params: SystemParams) -> None:
    """Refuse max|delta| >= omega_c: the lower sideband omega_c - |delta| is not a light field."""
    worst = float(np.max(np.abs(delta), initial=0.0))  # an empty array passes; NaN if any is NaN
    _require("probe detuning", worst)
    omega_c = params.coupling_freq
    if worst >= omega_c:  # m*delta^4 in den overflows from about 4.6e79 rad/s
        raise ParameterError(f"probe detuning must be below omega_c = {omega_c!r} rad/s "
                             f"in magnitude, got {worst!r}")


def _mask_floor(tau: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """NaN where |eps| is below AMPLITUDE_FLOOR or itself NaN."""
    return np.where(np.abs(eps) >= AMPLITUDE_FLOOR, tau, np.nan)


def _response(delta: ArrayLike, params: SystemParams, alpha: ArrayLike):
    """The one evaluation of the response: eps_T and both exact delays.

    eps_T = (2k*num)/den; the delays are the quotient-rule log-derivatives.
    Every detuning is first checked against |delta| < omega_c.  Where den
    is exactly zero the quotient is undefined: eps_T and both delays are NaN
    there.  ``alpha`` may be an array at one ``delta``: num and den are affine
    in alpha, so each point rounds exactly as a scalar evaluation does.
    """
    _check_detuning(delta, params)
    num, dnum, den, dden = _pieces(delta, params, alpha)
    k2 = 2.0 * params.cavity_decay
    rnum = k2 * num - den  # eps_r = rnum / den
    drnum = k2 * dnum - dden
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_t = np.where(den == 0, complex(np.nan, np.nan), k2 * num / den)
        dlog_den = dden / den
        tau_t = np.imag(dnum / num - dlog_den)
        tau_r = np.imag(drnum / rnum - dlog_den)
    return eps_t, _mask_floor(tau_t, eps_t), _mask_floor(tau_r, eps_t - 1.0)


def stability(params: SystemParams, alpha: float) -> None:
    """Raise InstabilityError unless every pole of the probe response decays at alpha.

    The working point enters only through alpha = hbar*g^2*|c0|^2.  The poles
    delta = i*s are the roots of den, and so of the quartic (s^2 + a s + b) *
    (s^2 + c s + d) - r with, in units of omega_m, a = gm, b = 1, c = 4k,
    d = 4k^2 + D^2 and r = 2*D*alpha/m: the eigenvalues of the linearised
    dynamics.  All have Re s < 0 iff (Routh-Hurwitz; Aspelmeyer, Kippenberg &
    Marquardt, RMP 86, 1391 (2014))

        r < b*d                                               (static)
        a*c*[(b - d)^2 + (a + c)*(a*d + b*c)] + (a + c)^2 * r > 0   (oscillatory)

    The static bound is den(0) < 0, tested on den(0) as _pieces forms it, so a
    pump at which eps_T(0) is undefined is refused.  For D > 0 it is the one that
    binds, at alpha* = m*om^2*(4k^2 + D^2)/(2*D); for D < 0 only the second can.
    """
    om = params.mirror_freq
    with np.errstate(all="ignore"):  # an overflowing den(0) is -inf: static bound met
        static = _pieces(0.0, params, alpha)[2].real < 0
    a = params.mirror_damping / om
    x, y = 2.0 * params.cavity_decay / om, params.effective_detuning / om
    c, d = 2.0 * x, x * x + y * y
    r = 2.0 * y * (alpha / (params.mirror_mass * (om * om))) / om
    oscillatory = a * c * ((1.0 - d) * (1.0 - d) + (a + c) * (a * d + c)) + (a + c) * (a + c) * r > 0
    if not (static and oscillatory):
        raise InstabilityError(
            "unstable working point: the linearised dynamics have a non-decaying eigenvalue "
            f"(the {'oscillatory' if static else 'static'} Routh-Hurwitz bound fails "
            f"at alpha = {alpha:.6e})"
        )


def spectrum(
    delta_grid: Sequence[float] | np.ndarray,
    params: SystemParams,
    steady: SteadyState,
    power: float = math.nan,
) -> SpectrumTable:
    """Evaluate the probe response over a detuning grid.

    Per-point undefined delays appear as NaN gaps instead of aborting the
    sweep.
    """
    grid = np.asarray(delta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("delta grid must be a non-empty 1-D array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ParameterError("delta grid must be strictly increasing")

    eps_t, tau_t, tau_r = _response(grid, params, steady.alpha)
    return SpectrumTable(
        delta=grid,
        eps_t=eps_t,
        transmission=np.abs(eps_t) ** 2,
        reflection=np.abs(eps_t - 1.0) ** 2,
        phase_t=np.where(eps_t == 0, np.nan, np.angle(eps_t)),
        tau_t=tau_t,
        tau_r=tau_r,
        power=power,
    )


def power_sweep(
    powers: Sequence[float],
    delta: float,
    params: SystemParams,
) -> list[PowerPoint]:
    """Delays, transparency width, |eps_T|^2 and alpha at one detuning across pump powers.

    One steady state per power, one response evaluation per sweep.  Powers
    must be sorted ascending (DriveParams checks each); undefined delays are NaN.
    gamma_width is the weak-coupling half-width gamma_m/2 + G^2/(2*kappa), equal to
    1/tau_R at the probe resonance.  It is the slowest pole's decay rate only while
    G << kappa (Aspelmeyer, Kippenberg & Marquardt, RMP 86, 1391 (2014)): at the
    reference 5 uW, where G/kappa = 0.97, it is 38 % below that rate.
    """
    values = [float(p) for p in powers]
    if not values:
        raise ParameterError("power sweep needs at least one power")
    if values != sorted(values):
        raise ParameterError("pump powers must be sorted ascending")

    alpha = np.array([solve_steady(params, derive(params, DriveParams(p))).alpha for p in values])
    eps_t, tau_t, tau_r = _response(delta, params, alpha)
    gamma = params.mirror_damping / 2.0 + alpha / (
        4.0 * params.mirror_mass * params.mirror_freq * params.cavity_decay)
    # abs of each Python complex: np.abs over the array rounds |eps_T|^2 differently
    return [PowerPoint(p, t, r, g, abs(e) ** 2, a) for p, t, r, g, e, a in zip(
        values, tau_t.tolist(), tau_r.tolist(), gamma.tolist(), eps_t.tolist(), alpha.tolist())]
