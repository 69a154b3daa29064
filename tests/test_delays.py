import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity_eit as ce

from conftest import group_delay_fd, near_reference, one_point_delays, steady_at


def test_empty_cavity_resonant_delay(ref):
    # closed form at the empty-cavity resonance: tau_T = 1/(2 kappa)
    params, _ = ref
    st = steady_at(params, 0.0)
    tau_t, tau_r = one_point_delays(params.effective_detuning, params, st)
    assert tau_t == pytest.approx(1.0 / (2.0 * params.cavity_decay), rel=1e-9)
    assert math.isnan(tau_r)  # reflected amplitude is zero there


def test_fd_matches_closed_form_at_empty_resonance(ref):
    params, _ = ref
    st = steady_at(params, 0.0)
    tau_t, _ = group_delay_fd(params.effective_detuning, params, st)
    assert tau_t == pytest.approx(1.0 / (2.0 * params.cavity_decay), rel=1e-6)


def test_analytic_vs_fd_grid(ref):
    params, _ = ref
    grid = np.linspace(0.5, 1.5, 101) * params.mirror_freq
    for power in (0.0, 1e-6, 5e-6):
        st = steady_at(params, power)
        for d in grid:
            an = one_point_delays(float(d), params, st)
            fd = group_delay_fd(float(d), params, st)
            for a, f in zip(an, fd):
                if math.isnan(a) or math.isnan(f):
                    assert math.isnan(a) and math.isnan(f)
                    continue
                assert f == pytest.approx(a, rel=1e-6)


def test_flat_response_has_no_delay(ref):
    # an overdamped cavity barely disperses: tau_T at resonance is 1/(2 kappa)
    params, _ = ref
    broad = dataclasses.replace(params, cavity_decay=1e6 * params.mirror_freq)
    st = steady_at(broad, 0.0)
    tau_t, _ = one_point_delays(broad.effective_detuning, broad, st)
    assert abs(tau_t) < 1e-11


def test_delay_depends_on_power_only_through_interaction(ref):
    # two steady states with the interaction switched off give identical
    # delays no matter what photon number they carry
    params, _ = ref
    st_a = ce.SteadyState(cavity_amp=0j, photon_number=0.0, mirror_displacement=0.0, alpha=0.0)
    st_b = ce.SteadyState(cavity_amp=3e3 + 0j, photon_number=9e6, mirror_displacement=1e-13, alpha=0.0)
    d = 1.1 * params.mirror_freq
    assert one_point_delays(d, params, st_a) == one_point_delays(d, params, st_b)


def test_reflected_advance_exists_off_resonance(ref):
    # at 5 uW the transmitted delay at the probe resonance dominates the one
    # in the far wing, and the reflected delay is positive at every detuning
    # in 0.5..1.5 omega_m.  At 0.1 nW the reflected amplitude has near-zeros
    # a few hundred transparency widths either side of resonance (where the
    # cavity and mechanical contributions cancel); around them the reflected
    # port shows a group advance, while at resonance it is still delayed
    params, _ = ref
    st = steady_at(params, 5e-6)
    om = params.mirror_freq
    divisor = 4 * params.mirror_mass * om * params.cavity_decay
    gamma = params.mirror_damping / 2 + st.alpha / divisor
    center, _ = one_point_delays(om, params, st)
    wing, _ = one_point_delays(om + 30 * gamma, params, st)
    assert center > 10 * abs(wing) > 0
    strong = ce.spectrum(np.linspace(0.5 * om, 1.5 * om, 2001), params, st)
    assert np.nanmin(strong.tau_r) > 0

    weak = steady_at(params, 1e-10)
    gamma_weak = params.mirror_damping / 2 + weak.alpha / divisor
    assert one_point_delays(om, params, weak)[1] > 0
    grid = om * (1.0 + np.linspace(-1e-3, 1e-3, 2001))
    tau_r = ce.spectrum(grid, params, weak).tau_r
    i = int(np.nanargmin(tau_r))
    d = float(grid[i])
    assert tau_r[i] < 0
    assert abs(d - om) > 10 * gamma_weak
    _, an = one_point_delays(d, params, weak)
    _, fd = group_delay_fd(d, params, weak)
    assert fd == pytest.approx(an, rel=1e-6)


_REF, _ = ce.reference_defaults()


@settings(deadline=None)
@given(near_reference(), st.floats(0.1e-6, 10e-6), st.floats(0.5, 1.5))
@example(point=(dataclasses.replace(_REF, mirror_mass=2 * _REF.mirror_mass,
                                    mirror_freq=2 * _REF.mirror_freq), 0.0),
         power=1.4023765483745608e-07, x=1.0)
@example(point=(dataclasses.replace(_REF, mirror_freq=1683893.662324129,
                                    cavity_decay=2 * _REF.cavity_decay), 0.0),
         power=1e-7, x=0.5)
def test_analytic_vs_fd_over_parameters(point, power, x):
    # the examples defeat a fixed oracle step: eps_T has a zero about 19 rad/s
    # from the first, where 1e-6 omega_m is 8.8e-6 off, and |eps_R| is 6e-4 at
    # the second, where 1e-7 omega_m is 1.0e-6 off.  Over 15,000 random points
    # and the 2,187 corners of this domain (each scale 1/2, 1 or 2, a pump of
    # 0.1, 1 or 10 uW, x = 0.5, 1 or 1.5) the worst relative gap was 1.7e-8
    params, _ = point
    steady = steady_at(params, power)
    delta = x * params.mirror_freq
    an = one_point_delays(delta, params, steady)
    fd = group_delay_fd(delta, params, steady)
    for a, f in zip(an, fd):
        assert math.isnan(a) == math.isnan(f)
        if not math.isnan(a):
            assert f == pytest.approx(a, rel=1e-6)
