import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

import cavity_eit as ce


@pytest.fixture(scope="session")
def ref():
    """Reference configuration at the default 5 uW pump."""
    params, drive = ce.reference_defaults()
    return params, drive


@pytest.fixture(scope="session")
def steady_5uw(ref):
    params, drive = ref
    return ce.solve_steady(params, ce.derive(params, drive))


def steady_at(params, power):
    """Steady state of `params` at pump power `power` (W)."""
    drive = ce.DriveParams(pump_power=power)
    return ce.solve_steady(params, ce.derive(params, drive))


def group_delay_fd(delta, params, steady):
    """Oracle for ce.group_delay_analytic: central differences of eps_T.

    The step is 1e-6 of the mirror frequency, with one Richardson halving
    (O(step^4) error).  It shares only eps_T, through the public array
    path, with the code it checks, and none of its derivative algebra.
    Like the library, it reports NaN where |eps_X| < ce.AMPLITUDE_FLOOR.
    """
    step = 1e-6 * params.mirror_freq

    def eps_t(d):
        return ce.transmitted_amplitude(np.atleast_1d(d), params, steady)[0]

    coarse = (eps_t(delta + step) - eps_t(delta - step)) / (2.0 * step)
    half = 0.5 * step
    fine = (eps_t(delta + half) - eps_t(delta - half)) / (2.0 * half)
    der = (4.0 * fine - coarse) / 3.0
    et = eps_t(delta)
    taus = [complex(der / eps).imag if abs(eps) >= ce.AMPLITUDE_FLOOR else math.nan
            for eps in (et, et - 1.0)]
    return ce.DelayReport(*taus)


@st.composite
def near_reference(draw, detuning_power_of_two=False):
    """Reference parameters with each rate and the mass scaled by 1/2 to 2, and a pump of 0-10 uW.

    With detuning_power_of_two the effective detuning is rounded to a power
    of two, so that 2*Delta*alpha = -chi*w holds exactly in degenerate_at_zero.
    """
    params, _ = ce.reference_defaults()
    fields = ("mirror_mass", "mirror_freq", "mirror_damping", "cavity_decay", "effective_detuning")
    params = dataclasses.replace(params, **{
        name: getattr(params, name) * 2.0 ** draw(st.floats(-1.0, 1.0)) for name in fields
    })
    if detuning_power_of_two:
        det = 2.0 ** round(math.log2(params.effective_detuning))
        params = dataclasses.replace(params, effective_detuning=det)
    return params, draw(st.floats(0.0, 10e-6))
