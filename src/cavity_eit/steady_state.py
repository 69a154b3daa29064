"""Probe-off working point of the driven cavity.

With the probe absent, the intracavity amplitude and the membrane
displacement settle to

    c0 = eps_c / (2*kappa + i*Delta)
    q0 = -hbar * g * |c0|^2 / (m * omega_m^2)

and the strength of the optomechanical interaction entering both the
linear response and the pulsed dynamics is

    alpha = hbar * g^2 * |c0|^2,

proportional to the intracavity photon number and hence to pump power.
alpha is computed exactly once, here, so the response and dynamics
modules cannot drift apart on its definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import HBAR, DerivedConstants, ParameterError, SystemParams


@dataclass(frozen=True)
class SteadyState:
    """Zeroth-order solution about which the probe response is linearized."""

    cavity_amp: complex  # c0, dimensionless photon amplitude
    photon_number: float  # |c0|^2
    mirror_displacement: float  # m, static radiation-pressure shift q0
    alpha: float  # kg rad^3/s^3, hbar*g^2*|c0|^2


def solve_steady(params: SystemParams, derived: DerivedConstants) -> SteadyState:
    """Solve the probe-off fixed point in one pass.

    No self-consistency loop is needed: the effective detuning already
    includes the static radiation-pressure shift by construction.  With
    g < 0 the displacement q0 comes out positive whenever light is in the
    cavity (the mode pushes the membrane toward longer cavity length).
    Raises ParameterError naming pump_power when alpha is not finite (q0's
    divisor m*omega_m^2 is a normal float64 by SystemParams' range rule).
    """
    denom = 2.0 * params.cavity_decay + 1j * params.effective_detuning
    c0 = derived.drive_amplitude / denom
    g = derived.coupling_constant
    a = abs(c0)
    n = a * a  # squares by products: a correctly rounded |c0|^2 on every libm
    alpha = HBAR * (g * g) * n
    if not math.isfinite(alpha):
        raise ParameterError(f"pump_power too large: alpha = hbar*g^2*|c0|^2 is {alpha!r}")
    q0 = -HBAR * g * n / (params.mirror_mass * (params.mirror_freq * params.mirror_freq))
    return SteadyState(
        cavity_amp=c0,
        photon_number=n,
        mirror_displacement=q0,
        alpha=alpha,
    )
