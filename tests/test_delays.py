import dataclasses
import math

import numpy as np
import pytest

import cavity_eit as ce
from cavity_eit.response import FD_STEP_FRACTION

from conftest import steady_at


def test_custom_step_recorded(ref, steady_5uw):
    # the default step is FD_STEP_FRACTION of the mirror frequency, and an
    # explicit step is the one used
    params, _ = ref
    om = params.mirror_freq
    default = ce.group_delay_fd(om, params, steady_5uw)
    assert FD_STEP_FRACTION == 1e-6
    assert default == ce.group_delay_fd(om, params, steady_5uw, step=FD_STEP_FRACTION * om)
    assert default != ce.group_delay_fd(om, params, steady_5uw, step=2.5)
    with pytest.raises(ce.ParameterError):
        ce.group_delay_fd(params.mirror_freq, params, steady_5uw, step=0.0)


def test_empty_cavity_resonant_delay(ref):
    # closed form at the empty-cavity resonance: tau_T = 1/(2 kappa)
    params, _ = ref
    st = steady_at(params, 0.0)
    rep = ce.group_delay_analytic(params.effective_detuning, params, st)
    assert rep.tau_t == pytest.approx(1.0 / (2.0 * params.cavity_decay), rel=1e-9)
    assert math.isnan(rep.tau_r)  # reflected amplitude is zero there


def test_fd_matches_closed_form_at_empty_resonance(ref):
    params, _ = ref
    st = steady_at(params, 0.0)
    rep = ce.group_delay_fd(params.effective_detuning, params, st)
    assert rep.tau_t == pytest.approx(1.0 / (2.0 * params.cavity_decay), rel=1e-6)


def test_analytic_vs_fd_grid(ref):
    params, _ = ref
    grid = np.linspace(0.5, 1.5, 101) * params.mirror_freq
    for power in (0.0, 1e-6, 5e-6):
        st = steady_at(params, power)
        for d in grid:
            an = ce.group_delay_analytic(float(d), params, st)
            fd = ce.group_delay_fd(float(d), params, st)
            for a, f in ((an.tau_t, fd.tau_t), (an.tau_r, fd.tau_r)):
                if math.isnan(a) or math.isnan(f):
                    assert math.isnan(a) and math.isnan(f)
                    continue
                assert f == pytest.approx(a, rel=1e-6)


def test_flat_response_has_no_delay(ref):
    # an overdamped cavity barely disperses: tau_T at resonance is 1/(2 kappa)
    params, _ = ref
    broad = dataclasses.replace(params, cavity_decay=1e6 * params.mirror_freq)
    st = steady_at(broad, 0.0)
    rep = ce.group_delay_analytic(broad.effective_detuning, broad, st)
    assert abs(rep.tau_t) < 1e-11


def test_delay_depends_on_power_only_through_interaction(ref):
    # two steady states with the interaction switched off give identical
    # delays no matter what photon number they carry
    params, _ = ref
    st_a = ce.SteadyState(cavity_amp=0j, photon_number=0.0, mirror_displacement=0.0, alpha=0.0)
    st_b = ce.SteadyState(cavity_amp=3e3 + 0j, photon_number=9e6, mirror_displacement=1e-13, alpha=0.0)
    d = 1.1 * params.mirror_freq
    assert ce.group_delay_analytic(d, params, st_a) == ce.group_delay_analytic(
        d, params, st_b
    )


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
    gamma = ce.eit_width(params, st)
    center = ce.group_delay_analytic(om, params, st)
    wing = ce.group_delay_analytic(om + 30 * gamma, params, st)
    assert center.tau_t > 10 * abs(wing.tau_t) > 0
    strong = ce.spectrum(np.linspace(0.5 * om, 1.5 * om, 2001), params, st)
    assert np.nanmin(strong.tau_r) > 0

    weak = steady_at(params, 1e-10)
    gamma_weak = ce.eit_width(params, weak)
    assert ce.group_delay_analytic(om, params, weak).tau_r > 0
    grid = om * (1.0 + np.linspace(-1e-3, 1e-3, 2001))
    tau_r = ce.spectrum(grid, params, weak).tau_r
    i = int(np.nanargmin(tau_r))
    d = float(grid[i])
    assert tau_r[i] < 0
    assert abs(d - om) > 10 * gamma_weak
    an = ce.group_delay_analytic(d, params, weak)
    fd = ce.group_delay_fd(d, params, weak)
    assert fd.tau_r == pytest.approx(an.tau_r, rel=1e-6)
