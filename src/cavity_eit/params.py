"""Physical inputs and derived constants of the cavity-membrane system.

A partially transparent nanomechanical membrane sits in the middle of a
two-mirror Fabry-Perot cavity.  A strong coupling laser (power P_c) drives
the cavity; a weak probe beats against it at detuning delta.  Everything
downstream (steady state, linear response, pulsed dynamics) is a pure
function of the values held here.

Unit conventions, fixed once so no 2*pi factor can hide anywhere else:

* every angular quantity (mirror_freq, mirror_damping, cavity_decay,
  effective_detuning) is stored in rad/s.  Inputs quoted in Hz are
  converted at the loading boundary (``mirror_freq_hz`` and friends).
* cavity_decay holds the half-linewidth rate kappa; the total field decay
  appearing in the equations of motion is 2*kappa.
* the membrane damping for the reference configuration is 0.76 rad/s.
  That number is sometimes quoted in Hz; rad/s is adopted here because
  mirror_freq / quality factor = 2*pi*134 kHz / 1.1e6 = 0.765 rad/s
  matches it, while 2*pi*0.76 does not.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Union

HBAR = 1.054571817e-34  # J*s
C_LIGHT = 2.99792458e8  # m/s


class ParameterError(ValueError):
    """A physical input failed validation; the message names the field."""


def _require_positive(name: str, value: float) -> None:
    if not (value > 0) or not math.isfinite(value):
        raise ParameterError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Fixed constants of the cavity + membrane.

    effective_detuning is the pump-cavity detuning including the static
    radiation-pressure shift.  It is supplied directly (the reference
    configuration sets it equal to mirror_freq) instead of being solved
    from a bare cavity frequency, which would require an ill-conditioned
    fixed-point iteration that nothing downstream needs.
    """

    cavity_length: float  # m
    wavelength: float  # m, coupling laser
    mirror_mass: float  # kg
    mirror_freq: float  # rad/s
    mirror_damping: float  # rad/s
    cavity_decay: float  # rad/s, half-linewidth kappa
    effective_detuning: float  # rad/s, may be any real value

    def __post_init__(self) -> None:
        _require_positive("cavity_length", self.cavity_length)
        _require_positive("wavelength", self.wavelength)
        _require_positive("mirror_mass", self.mirror_mass)
        _require_positive("mirror_freq", self.mirror_freq)
        _require_positive("mirror_damping", self.mirror_damping)
        _require_positive("cavity_decay", self.cavity_decay)
        if not math.isfinite(self.effective_detuning):
            raise ParameterError(
                f"effective_detuning must be finite, got {self.effective_detuning!r}"
            )
        if self.mirror_damping >= self.mirror_freq:
            raise ParameterError(
                "mirror_damping must be smaller than mirror_freq "
                f"(underdamped oscillator), got {self.mirror_damping!r} >= "
                f"{self.mirror_freq!r}"
            )

    @property
    def quality_factor(self) -> float:
        return self.mirror_freq / self.mirror_damping


@dataclass(frozen=True)
class DriveParams:
    """Coupling-laser power.

    Linear-response quantities are per unit probe amplitude; the probe
    amplitude of a time-domain run is its pulse's ``amplitude``.
    """

    pump_power: float  # W

    def __post_init__(self) -> None:
        if not (self.pump_power >= 0) or not math.isfinite(self.pump_power):
            raise ParameterError(
                f"pump_power must be non-negative, got {self.pump_power!r}"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Quantities computed once from the raw inputs."""

    coupling_freq: float  # rad/s, 2*pi*c / wavelength
    coupling_constant: float  # rad/(s*m), -coupling_freq / cavity_length
    drive_amplitude: float  # 1/s, sqrt(2*kappa*P_c / (hbar*coupling_freq))


def derive(params: SystemParams, drive: DriveParams) -> DerivedConstants:
    """Compute the optical frequency, optomechanical coupling and pump rate.

    The coupling constant g = -omega_c/L is negative by convention: pushing
    the membrane toward positive displacement lowers the mode frequency.
    """
    omega_c = 2.0 * math.pi * C_LIGHT / params.wavelength
    g = -omega_c / params.cavity_length
    eps_c = math.sqrt(2.0 * params.cavity_decay * drive.pump_power / (HBAR * omega_c))
    return DerivedConstants(
        coupling_freq=omega_c, coupling_constant=g, drive_amplitude=eps_c
    )


def reference_defaults() -> tuple[SystemParams, DriveParams]:
    """Membrane-in-the-middle configuration used for all bundled figure data.

    L = 6.7 cm, lambda = 1064 nm, m = 40 ng, omega_m = 2*pi*134 kHz,
    gamma_m = 0.76 rad/s, kappa = omega_m/10, detuning = omega_m, and a
    5 microwatt pump.
    """
    omega_m = 2.0 * math.pi * 134e3
    params = SystemParams(
        cavity_length=6.7e-2,
        wavelength=1064e-9,
        mirror_mass=40e-12,  # 40 ng = 40e-12 kg
        mirror_freq=omega_m,
        mirror_damping=0.76,
        cavity_decay=omega_m / 10.0,
        effective_detuning=omega_m,
    )
    return params, DriveParams(pump_power=5e-6)


# JSON keys accepted by load_params besides the SI field names.  Each
# convenience key maps onto the base field named in the second column and is
# converted by one correctly rounded multiplication by an inexact constant, so
# {"pump_power_uw": 5} loads as 4.9999999999999996e-06, one ulp below 5e-06.
_CONVENIENCE_KEYS = {
    "mirror_freq_hz": ("mirror_freq", 2.0 * math.pi),
    "wavelength_nm": ("wavelength", 1e-9),
    "mirror_mass_ng": ("mirror_mass", 1e-12),
    "pump_power_uw": ("pump_power", 1e-6),
}
_SYSTEM_KEYS = tuple(f.name for f in fields(SystemParams))
_DRIVE_KEYS = tuple(f.name for f in fields(DriveParams))


def _param_dict(params: SystemParams, drive: DriveParams) -> dict:
    """Flat SI parameter document: the inverse of load_params."""
    return {**asdict(params), **asdict(drive)}


def load_params(
    source: Union[str, Path, dict]
) -> tuple[SystemParams, DriveParams]:
    """Load parameters from a JSON document (path or already-parsed dict).

    Keys match the field names of SystemParams / DriveParams in SI units;
    the convenience keys ``mirror_freq_hz``, ``wavelength_nm``,
    ``mirror_mass_ng`` and ``pump_power_uw`` are converted on load.
    Missing keys fall back to the reference defaults.  Unknown keys raise
    ParameterError so typos cannot silently revert a field to its default.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read parameter file {source}: {exc}")
        except json.JSONDecodeError as exc:
            raise ParameterError(f"parameter file {source} is not valid JSON: {exc}")
    else:
        doc = dict(source)
    if not isinstance(doc, dict):
        raise ParameterError(f"parameter document must be a JSON object, got {type(doc).__name__}")

    params, drive = reference_defaults()
    values: dict[str, float] = {}

    for key, raw in doc.items():
        field, scale = _CONVENIENCE_KEYS.get(key, (key, 1.0))
        if field not in _SYSTEM_KEYS and field not in _DRIVE_KEYS:
            raise ParameterError(f"unknown parameter key {key!r}")
        value = _as_number(key, raw) * scale
        if field in values:
            raise ParameterError(
                f"parameter {field!r} specified more than once (key {key!r})"
            )
        values[field] = value

    params = replace(params, **{k: v for k, v in values.items() if k in _SYSTEM_KEYS})
    drive = replace(drive, **{k: v for k, v in values.items() if k in _DRIVE_KEYS})
    return params, drive


def _as_number(key: str, raw: object) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParameterError(f"parameter {key!r} must be a number, got {raw!r}")
    return float(raw)
