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
* transparency half-width  Gamma = gm/2 + alpha / (4*m*om*k), affine in
  pump power.

Delays where the relevant amplitude magnitude falls below
``AMPLITUDE_FLOOR`` are reported as NaN rather than as a huge number:
1/eps_X amplifies roundoff without bound there, and at the empty-cavity
resonance eps_R is genuinely zero, so no finite value would be honest.
NaN propagates through tables and CSV output as a gap; command-line entry
points translate it to a nonzero exit status when a single requested
scalar is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .params import DriveParams, ParameterError, SystemParams, derive
from .steady_state import SteadyState, solve_steady

ArrayLike = Union[float, np.ndarray]

# |eps_X| below which a group delay is declared undefined.
AMPLITUDE_FLOOR = 1e-9
# |denominator| below which the response is undefined: NaN in grids and
# sweeps, DegenerateDenominatorError for a scalar amplitude.
DENOMINATOR_FLOOR = 1e-300


class DegenerateDenominatorError(ArithmeticError):
    """Response denominator vanished; inputs are outside the physical domain."""


@dataclass(frozen=True)
class DelayReport:
    """Group delay (tau > 0) or advance (tau < 0) of the two output ports."""

    tau_t: float  # s, transmission; NaN when |eps_t| < AMPLITUDE_FLOOR
    tau_r: float  # s, reflection; NaN when |eps_r| < AMPLITUDE_FLOOR


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

    def __len__(self) -> int:
        return len(self.delta)


class PowerPoint(NamedTuple):
    power: float  # W
    tau_t: float  # s
    tau_r: float  # s
    gamma_width: float  # rad/s


def _pieces(delta: ArrayLike, params: SystemParams, alpha: float):
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


def _check_detuning(delta: float, params: SystemParams) -> None:
    """Refuse |delta| >= omega_c: the lower sideband omega_c - |delta| is not a light field."""
    if not math.isfinite(delta):
        raise ParameterError(f"probe detuning must be finite, got {delta!r}")
    omega_c = derive(params, DriveParams(pump_power=0.0)).coupling_freq
    if abs(delta) >= omega_c:  # m*delta^4 in den overflows from about 4.6e79 rad/s
        raise ParameterError(f"probe detuning must be below omega_c = {omega_c!r} rad/s "
                             f"in magnitude, got {delta!r}")


def _mask_floor(tau: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """NaN where |eps| is below AMPLITUDE_FLOOR or itself NaN."""
    return np.where(np.abs(eps) >= AMPLITUDE_FLOOR, tau, np.nan)


def _response(delta: ArrayLike, params: SystemParams, alpha: float):
    """The one evaluation of the response: eps_T and both exact delays.

    eps_T = (2k*num)/den; the delays are the quotient-rule log-derivatives.
    Where |den| < DENOMINATOR_FLOOR the point is outside the physical
    domain: eps_T and both delays are NaN there, and the returned mask
    marks it so a scalar entry point can refuse it instead.
    """
    num, dnum, den, dden = _pieces(delta, params, alpha)
    degenerate = np.abs(den) < DENOMINATOR_FLOOR
    k2 = 2.0 * params.cavity_decay
    rnum = k2 * num - den  # eps_r = rnum / den
    drnum = k2 * dnum - dden
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_t = np.where(degenerate, complex(np.nan, np.nan), k2 * num / den)
        tau_t = np.imag(dnum / num - dden / den)
        tau_r = np.imag(drnum / rnum - dden / den)
    return eps_t, _mask_floor(tau_t, eps_t), _mask_floor(tau_r, eps_t - 1.0), degenerate


def transmitted_amplitude(
    delta: ArrayLike, params: SystemParams, steady: SteadyState
) -> complex | np.ndarray:
    """eps_T at scalar or array detunings.

    An array gets NaN at a degenerate denominator; a scalar raises
    DegenerateDenominatorError there.
    """
    eps_t, _, _, degenerate = _response(delta, params, steady.alpha)
    if np.ndim(delta) > 0:
        return eps_t
    if degenerate:
        raise DegenerateDenominatorError(
            f"response denominator below {DENOMINATOR_FLOOR} at delta={float(delta)!r}"
        )
    return complex(eps_t)


def c_plus(
    delta: ArrayLike, params: SystemParams, steady: SteadyState
) -> complex | np.ndarray:
    """Sideband amplitude per unit probe drive, eps_T/(2*kappa). Accepts scalars or arrays."""
    return transmitted_amplitude(delta, params, steady) / (2.0 * params.cavity_decay)


def group_delay_analytic(
    delta: float, params: SystemParams, steady: SteadyState
) -> DelayReport:
    """Group delay of both ports from the exact derivative of the response."""
    _, tau_t, tau_r, _ = _response(delta, params, steady.alpha)
    return DelayReport(tau_t=float(tau_t), tau_r=float(tau_r))


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
    _check_detuning(float(np.abs(grid[[0, -1]]).max()), params)

    eps_t, tau_t, tau_r, _ = _response(grid, params, steady.alpha)
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


def eit_width(params: SystemParams, steady: SteadyState) -> float:
    """Transparency half-width Gamma = gamma_m/2 + alpha / (4*m*omega_m*kappa), rad/s."""
    return params.mirror_damping / 2.0 + steady.alpha / (
        4.0 * params.mirror_mass * params.mirror_freq * params.cavity_decay
    )


def power_sweep(
    powers: Sequence[float],
    delta: float,
    params: SystemParams,
) -> list[PowerPoint]:
    """Delays and transparency width at one detuning across pump powers.

    The steady state is re-solved for every power.  Powers must be
    non-negative and sorted ascending; undefined delays propagate as NaN.
    """
    _check_detuning(delta, params)
    values = [float(p) for p in powers]
    if not values:
        raise ParameterError("power sweep needs at least one power")
    if any(p < 0 for p in values):
        raise ParameterError(f"pump powers must be non-negative, got {values!r}")
    if values != sorted(values):
        raise ParameterError("pump powers must be sorted ascending")

    out = []
    for p in values:
        steady = solve_steady(params, derive(params, DriveParams(pump_power=p)))
        report = group_delay_analytic(delta, params, steady)
        out.append(PowerPoint(p, report.tau_t, report.tau_r, eit_width(params, steady)))
    return out

