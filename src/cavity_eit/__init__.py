"""Optical response and pulsed dynamics of a double-ended optomechanical cavity.

A strong coupling laser dresses a Fabry-Perot cavity with a movable
membrane in the middle; this package computes what a weak probe sees:
transmission/reflection spectra, output phase, group delay and advance,
the pump-power dependence of the induced transparency window, and the
time-domain membrane/field response to pulsed probes.
"""

from .params import (
    C_LIGHT,
    HBAR,
    DriveParams,
    ParameterError,
    SystemParams,
    derive,
    load_params,
    reference_defaults,
)
from .steady_state import SteadyState, solve_steady
from .response import (
    AMPLITUDE_FLOOR,
    InstabilityError,
    power_sweep,
    spectrum,
)
from .dynamics import (
    PulseSpec,
    SystemMatrix,
    Trajectory,
    build_matrix,
    integrate,
    reconstruct_displacement,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDE_FLOOR",
    "C_LIGHT",
    "HBAR",
    "DriveParams",
    "InstabilityError",
    "ParameterError",
    "PulseSpec",
    "SteadyState",
    "SystemMatrix",
    "SystemParams",
    "Trajectory",
    "build_matrix",
    "derive",
    "integrate",
    "load_params",
    "power_sweep",
    "reconstruct_displacement",
    "reference_defaults",
    "solve_steady",
    "spectrum",
]
