import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

import cavity_eit as ce
from cavity_eit import response


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


class Signal(ce.PulseSpec):
    """A drive given as a Python function of one time, on integrate's one forcing type.

    Its envelope calls ``f`` at each time, in order, and returns the values
    as float64.  Its shape is ``constant``, which the quiet-start check
    skips, so a signal that is already on at t_start passes.
    """

    def __init__(self, f):
        super().__init__("constant", 1.0, 1.0)
        object.__setattr__(self, "f", f)

    def envelope(self, t):
        return np.array([self.f(x) for x in t.tolist()], dtype=float)


def transmitted(delta, params, steady):
    """eps_T at scalar or array detunings, from the response's one evaluation; NaN where den = 0."""
    return response._response(delta, params, steady.alpha)[0][()]  # [()]: a scalar for a scalar


def one_point_delays(delta, params, steady):
    """(tau_t, tau_r) at one detuning: the analytic delays of a one-point ce.spectrum."""
    table = ce.spectrum([delta], params, steady)
    return float(table.tau_t[0]), float(table.tau_r[0])


def group_delay_fd(delta, params, steady):
    """(tau_t, tau_r) from central differences of eps_T.

    The oracle of the analytic delays of response._response, which
    ce.spectrum and ce.power_sweep report.

    Central differences at 16 steps, from 1e-4 of the mirror frequency
    down by halves, each one Richardson-combined with the next (O(step^4)
    error).  Truncation error falls with the step and roundoff grows as its
    inverse, so the estimate taken is the one that agrees best with its
    neighbour.  No single step serves the whole domain: where eps_T has a
    zero a few rad/s from omega_m, 1e-6 omega_m is 4e-3 of tau off, and
    where |eps_R| is 6e-4, 1e-7 omega_m is 1e-6 off.  It shares only eps_T,
    through the array path, with the code it checks, and none of its
    derivative algebra.  Like the library, it reports NaN where
    |eps_X| < ce.AMPLITUDE_FLOOR.
    """
    steps = 1e-4 * params.mirror_freq * 0.5 ** np.arange(16)
    eps = transmitted(np.concatenate(([delta], delta + steps, delta - steps)), params, steady)
    central = (eps[1:17] - eps[17:]) / (2.0 * steps)
    richardson = (4.0 * central[1:] - central[:-1]) / 3.0
    der = richardson[int(np.argmin(np.abs(np.diff(richardson)))) + 1]
    return tuple(complex(der / e).imag if abs(e) >= ce.AMPLITUDE_FLOOR else math.nan
                 for e in (eps[0], eps[0] - 1.0))


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
