import dataclasses
import math

import numpy as np
import pytest

import cavity_eit as ce
from cavity_eit.cli import emit_figure_bundle
from cavity_eit.params import C_LIGHT, HBAR

from conftest import steady_at


def empty(params):
    return steady_at(params, 0.0)


# --- amplitude at a point ----------------------------------------------------


def test_empty_cavity_resonance_identity(ref):
    params, _ = ref
    et = ce.transmitted_amplitude(params.effective_detuning, params, empty(params))
    assert abs(et - 1.0) < 1e-12


def test_empty_cavity_closed_form(ref):
    # with no interaction the mechanical factor cancels:
    # c_plus = (2k - i(D+d)) / ((2k - i d)^2 + D^2)
    params, _ = ref
    st = empty(params)
    k2 = 2 * params.cavity_decay
    det = params.effective_detuning
    for d in np.linspace(0.5, 1.5, 7) * params.mirror_freq:
        expected = (k2 - 1j * (det + d)) / ((k2 - 1j * d) ** 2 + det**2)
        assert ce.c_plus(d, params, st) == pytest.approx(expected, rel=1e-12)


def test_c_plus_solves_linearised_equations(ref):
    # independent oracle: linearise
    #   dc/dt = -(2k + i D) c - i g q c + eps_c + eps_p exp(-i d t)
    #   m (q'' + gm q' + om^2 q) = -hbar g |c|^2
    # about the probe-off fixed point c0 = eps_c / (2k + i D) with
    # c = c0 + c_plus e^{-i d t} + c_minus e^{i d t},
    # q = q0 + Q e^{-i d t} + conj(Q) e^{i d t}, and solve the resulting
    # 3x3 system for (c_plus, conj(c_minus), Q) at unit probe drive
    params, _ = ref
    m, om, gm, k, det, L, lam = (
        params.mirror_mass,
        params.mirror_freq,
        params.mirror_damping,
        params.cavity_decay,
        params.effective_detuning,
        params.cavity_length,
        params.wavelength,
    )
    oc = 2 * math.pi * C_LIGHT / lam
    g = -oc / L
    rng = np.random.default_rng(12106830)
    powers = 10.0 ** rng.uniform(-12.0, math.log10(5e-6), 300)
    deltas = om * rng.uniform(0.5, 1.5, 300)
    for power, d in zip(powers, deltas):
        c0 = math.sqrt(2 * k * power / (HBAR * oc)) / (2 * k + 1j * det)
        system = np.array([
            [2 * k + 1j * (det - d), 0.0, 1j * g * c0],
            [0.0, 2 * k - 1j * (det + d), -1j * g * np.conj(c0)],
            [HBAR * g * np.conj(c0), HBAR * g * c0, m * (om**2 - d**2 - 1j * gm * d)],
        ])
        want = np.linalg.solve(system, np.array([1.0, 0.0, 0.0], dtype=complex))[0]
        got = ce.c_plus(float(d), params, steady_at(params, float(power)))
        assert got == pytest.approx(want, rel=1e-12), (power, d / om)


def test_resonance_transmission_5uw(ref, steady_5uw):
    params, _ = ref
    et = ce.transmitted_amplitude(params.mirror_freq, params, steady_5uw)
    assert et == pytest.approx(9.4735489503e-6 - 9.9998086161e-2j, rel=1e-9)
    assert abs(et) ** 2 == pytest.approx(0.01, rel=0.01)
    assert abs(et - 1.0) ** 2 == pytest.approx(1.0099806702, rel=1e-9)


def test_probe_response_fields(ref, steady_5uw):
    # a one-point spectrum and the scalar amplitude are the same response
    params, _ = ref
    d = 1.02 * params.mirror_freq
    table = ce.spectrum([d], params, steady_5uw)
    eps_t = ce.transmitted_amplitude(d, params, steady_5uw)
    assert table.eps_t[0] == pytest.approx(eps_t, rel=1e-15)
    assert eps_t == pytest.approx(
        2.0 * params.cavity_decay * ce.c_plus(d, params, steady_5uw), rel=1e-15
    )
    for et, t, r, phase in (
        (eps_t, abs(eps_t) ** 2, abs(eps_t - 1.0) ** 2, math.atan2(eps_t.imag, eps_t.real)),
        (table.eps_t[0], table.transmission[0], table.reflection[0], table.phase_t[0]),
    ):
        assert t == abs(et) ** 2
        assert r == abs(et - 1.0) ** 2
        assert phase == math.atan2(et.imag, et.real)
        assert -math.pi < phase <= math.pi


def test_empty_resonance_has_no_reflection(ref):
    params, _ = ref
    d = params.effective_detuning
    eps_t = ce.transmitted_amplitude(d, params, empty(params))
    table = ce.spectrum([d], params, empty(params))
    for et, r, phase in (
        (eps_t, abs(eps_t - 1.0) ** 2, math.atan2(eps_t.imag, eps_t.real)),
        (table.eps_t[0], table.reflection[0], table.phase_t[0]),
    ):
        assert abs(et - 1.0) < 1e-12
        assert r < 1e-12
        assert phase == pytest.approx(0.0, abs=1e-12)  # real positive amplitude


def test_phase_of_exact_zero_is_nan(ref):
    # at delta = -Delta = -omega_m the mechanical factor is purely imaginary
    # and the cavity factor real, so this interaction strength zeroes the
    # numerator exactly: eps_T = 0, whose phase is undefined
    params, _ = ref
    d = -params.effective_detuning
    assert d * d == params.mirror_freq**2
    alpha = params.mirror_mass * (params.mirror_damping * d) * (2 * params.cavity_decay)
    table = ce.spectrum([d, 0.0], params, dataclasses.replace(empty(params), alpha=alpha))
    assert table.eps_t[0] == 0
    assert math.isnan(table.phase_t[0])
    assert np.isfinite(table.phase_t[1])


def degenerate_at_zero(params):
    # at zero detuning both response factors are real, so an interaction
    # strength of -chi*w/(2*Delta) cancels the denominator exactly
    m, om = params.mirror_mass, params.mirror_freq
    chi_w = -m * om**2 * (4 * params.cavity_decay**2 + params.effective_detuning**2)
    return ce.SteadyState(
        cavity_amp=0j,
        photon_number=0.0,
        mirror_displacement=0.0,
        alpha=-chi_w / (2 * params.effective_detuning),
    )


def test_degenerate_denominator_detected(ref):
    params, _ = ref
    crafted = degenerate_at_zero(params)
    with pytest.raises(ce.DegenerateDenominatorError, match="denominator"):
        ce.c_plus(0.0, params, crafted)
    # the array path records a gap instead of aborting the sweep
    vals = ce.c_plus(np.array([0.0, params.mirror_freq]), params, crafted)
    assert np.isnan(vals[0])
    assert np.isfinite(vals[1])


def test_degenerate_denominator_is_one_rule(ref):
    # every path through the response treats the degenerate point alike:
    # grids, delays and sweeps get NaN (never +-inf), scalar amplitudes raise
    params, _ = ref
    crafted = degenerate_at_zero(params)
    om = params.mirror_freq
    table = ce.spectrum([0.0, om], params, crafted)
    for column in (table.eps_t.real, table.eps_t.imag, table.transmission,
                   table.reflection, table.phase_t, table.tau_t, table.tau_r):
        assert np.isnan(column[0])
        assert np.isfinite(column[1])
    report = ce.group_delay_analytic(0.0, params, crafted)
    assert math.isnan(report.tau_t) and math.isnan(report.tau_r)
    for fn in (ce.c_plus, ce.transmitted_amplitude):
        assert np.isnan(fn(np.array([0.0, om]), params, crafted)[0])
        with pytest.raises(ce.DegenerateDenominatorError, match="denominator"):
            fn(0.0, params, crafted)


def test_conjugation_symmetry(ref, steady_5uw):
    # flipping (delta, Delta) and the sign of the interaction term conjugates
    # the response; with the interaction on, flipping the frequencies alone
    # does not (the alpha terms break it), except at alpha = 0
    params, _ = ref
    flipped_params = dataclasses.replace(
        params, effective_detuning=-params.effective_detuning
    )
    flipped_steady = dataclasses.replace(steady_5uw, alpha=-steady_5uw.alpha)
    for d in np.linspace(0.6, 1.4, 5) * params.mirror_freq:
        lhs = ce.c_plus(-d, flipped_params, flipped_steady)
        rhs = np.conj(ce.c_plus(d, params, steady_5uw))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    st0 = empty(params)
    for d in np.linspace(0.6, 1.4, 5) * params.mirror_freq:
        lhs = ce.c_plus(-d, flipped_params, st0)
        rhs = np.conj(ce.c_plus(d, params, st0))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_vectorized_matches_scalar(ref, steady_5uw):
    # numpy's vector and scalar complex division differ in the last ulp
    params, _ = ref
    grid = np.linspace(0.8, 1.2, 11) * params.mirror_freq
    vec = ce.c_plus(grid, params, steady_5uw)
    for i, d in enumerate(grid):
        assert vec[i] == pytest.approx(ce.c_plus(float(d), params, steady_5uw), rel=1e-14)


# --- spectra ------------------------------------------------------------------


def test_empty_spectrum_is_lorentzian(ref):
    params, _ = ref
    st = empty(params)
    grid = np.linspace(0.5 * params.mirror_freq, 1.5 * params.mirror_freq, 401)
    table = ce.spectrum(grid, params, st)
    k2 = 2 * params.cavity_decay
    x = params.effective_detuning - grid
    expected = k2**2 / (k2**2 + x**2)
    assert np.allclose(table.transmission, expected, rtol=1e-10)
    assert table.transmission.max() == pytest.approx(1.0, abs=1e-12)
    assert grid[table.transmission.argmax()] == pytest.approx(
        params.effective_detuning
    )


def test_spectrum_dip_at_resonance_5uw(ref, steady_5uw):
    params, _ = ref
    om = params.mirror_freq
    gamma = ce.eit_width(params, steady_5uw)
    grid = np.linspace(0.5 * om, 1.5 * om, 2001)
    table = ce.spectrum(grid, params, steady_5uw)
    i_res = np.argmin(np.abs(grid - om))
    assert table.transmission[i_res] < 0.02  # deep dip
    # the feature is narrow on the cavity scale: transmission is restored a
    # couple of widths away on both sides
    left = np.abs(grid - (om - 2.5 * gamma)) < gamma / 4
    right = np.abs(grid - (om + 2.5 * gamma)) < gamma / 4
    assert table.transmission[left].max() > 0.8
    assert table.transmission[right].max() > 0.8


def test_quadrature_zero_crossings_at_resonance(ref, steady_5uw):
    # on the default grid the real quadrature changes sign within one step
    # of the mirror frequency, while the imaginary quadrature crosses about
    # 0.005 mirror frequencies below it
    params, _ = ref
    grid = np.linspace(0.5 * params.mirror_freq, 1.5 * params.mirror_freq, 2001)
    table = ce.spectrum(grid, params, steady_5uw)
    om = params.mirror_freq
    step = grid[1] - grid[0]
    near = np.abs(grid - om) <= step
    re = table.eps_t.real[near]
    assert np.sign(re).min() != np.sign(re).max()
    below = (grid > 0.98 * om) & (grid < om)
    im = table.eps_t.imag[below]
    assert np.sign(im).min() != np.sign(im).max()


def test_spectrum_recomputable_from_complex(ref, steady_5uw):
    params, _ = ref
    table = ce.spectrum(np.linspace(0.5 * params.mirror_freq, 1.5 * params.mirror_freq, 301), params, steady_5uw)
    assert np.allclose(table.transmission, np.abs(table.eps_t) ** 2, rtol=1e-12)
    assert np.allclose(table.reflection, np.abs(table.eps_t - 1) ** 2, rtol=1e-12)
    assert np.all(np.diff(table.delta) > 0)


def test_spectrum_gap_at_undefined_reflection_delay(ref):
    # empty cavity: the reflected amplitude vanishes at resonance, so its
    # delay is a NaN gap rather than an abort
    params, _ = ref
    om = params.effective_detuning
    grid = np.linspace(0.99 * om, 1.01 * om, 201)  # includes om exactly
    table = ce.spectrum(grid, params, empty(params))
    i = np.argmin(np.abs(grid - om))
    assert math.isnan(table.tau_r[i])
    assert np.isfinite(table.tau_t).all()


def test_spectrum_grid_validation(ref, steady_5uw):
    params, _ = ref
    with pytest.raises(ce.ParameterError):
        ce.spectrum(np.array([]), params, steady_5uw)
    with pytest.raises(ce.ParameterError):
        ce.spectrum(np.array([2.0, 1.0]), params, steady_5uw)


# --- transparency width -------------------------------------------------------


def test_width_zero_power(ref):
    params, _ = ref
    assert ce.eit_width(params, empty(params)) == params.mirror_damping / 2 == 0.38


def test_width_reference_value(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    # independent arithmetic straight from the definitions
    alpha = HBAR * der.coupling_constant**2 * der.drive_amplitude**2 / (
        4 * params.cavity_decay**2 + params.effective_detuning**2
    )
    expected = params.mirror_damping / 2 + alpha / (
        4 * params.mirror_mass * params.mirror_freq * params.cavity_decay
    )
    w = ce.eit_width(params, steady_5uw)
    assert w == pytest.approx(expected, rel=1e-12)
    assert w == pytest.approx(3.9710574643e4, rel=1e-9)
    assert w >= params.mirror_damping / 2


def test_width_power_homogeneity(ref):
    params, _ = ref
    gm2 = params.mirror_damping / 2
    g1 = ce.eit_width(params, steady_at(params, 1e-6))
    g2 = ce.eit_width(params, steady_at(params, 2e-6))
    g4 = ce.eit_width(params, steady_at(params, 4e-6))
    assert g4 - gm2 == 4.0 * (g1 - gm2)  # exact quadrupling
    assert g2 - gm2 == pytest.approx(2.0 * (g1 - gm2), rel=1e-13)


# --- power sweep ---------------------------------------------------------------


def test_power_sweep_validation(ref):
    params, _ = ref
    with pytest.raises(ce.ParameterError):
        ce.power_sweep([], 1.0, params)
    with pytest.raises(ce.ParameterError):
        ce.power_sweep([2e-6, 1e-6], 1.0, params)
    with pytest.raises(ce.ParameterError):
        ce.power_sweep([-1e-6, 1e-6], 1.0, params)


def test_power_sweep_reference_behaviour(ref):
    params, _ = ref
    powers = [p * 1e-6 for p in (0.2, 0.5, 1.0, 2.0, 5.0)]
    points = ce.power_sweep(powers, params.mirror_freq, params)
    taus = [p.tau_t for p in points]
    assert all(t > 0 for t in taus)
    assert all(a > b for a, b in zip(taus, taus[1:]))  # decreasing with power
    assert 1e-4 < max(taus) < 1e-1  # millisecond scale at low power
    widths = np.array([p.gamma_width for p in points])
    fit = np.polyfit(powers, widths, 1)
    resid = widths - np.polyval(fit, powers)
    assert np.abs(resid).max() < 1e-10 * np.abs(widths).max()


def test_power_sweep_zero_power_gap(ref):
    params, _ = ref
    (pt,) = ce.power_sweep([0.0], params.mirror_freq, params)
    assert math.isnan(pt.tau_r)  # reflected amplitude vanishes exactly there
    assert pt.tau_t > 0
    assert pt.gamma_width == params.mirror_damping / 2


def test_detuning_domain_ends_at_optical_frequency(ref, steady_5uw):
    # past omega_c = 2*pi*c/lambda the lower sideband is not a light field
    params, _ = ref
    omega_c = 2.0 * math.pi * C_LIGHT / params.wavelength
    for delta in (omega_c, -omega_c):
        with pytest.raises(ce.ParameterError, match="probe detuning"):
            ce.spectrum([delta], params, steady_5uw)
        with pytest.raises(ce.ParameterError, match="probe detuning"):
            ce.power_sweep([0.0, 5e-6], delta, params)
    # just inside, every value is finite but tau_t, masked because |eps_T| ~ 1e-10
    inside = np.nextafter(omega_c, 0)
    table = ce.spectrum([-inside, inside], params, steady_5uw)
    for column in (table.eps_t, table.transmission, table.reflection, table.phase_t, table.tau_r):
        assert np.isfinite(column).all()
    assert (np.abs(table.eps_t) < ce.AMPLITUDE_FLOOR).all() and np.isnan(table.tau_t).all()
    for delta in (-inside, inside):
        for point in ce.power_sweep([0.0, 5e-6], delta, params):
            assert math.isfinite(point.tau_r) and math.isfinite(point.gamma_width)


# --- phase unwrapping -----------------------------------------------------------


def test_unwrap_phase_stitches_jumps(tmp_path):
    # fig3's phase-unwrap step keeps each principal phase up to a multiple
    # of 2*pi and leaves no jump above pi, where the principal phase has one
    emit_figure_bundle("fig3", tmp_path)
    phase = np.loadtxt(tmp_path / "fig3_spectrum_1uw.csv", delimiter=",", skiprows=1, usecols=6)
    stitched = np.loadtxt(tmp_path / "fig3_phase_unwrapped.csv", delimiter=",", skiprows=1, usecols=2)
    turns = (stitched - phase) / (2.0 * math.pi)
    assert np.allclose(turns, np.round(turns), atol=1e-12)
    assert np.abs(np.diff(phase)).max() > math.pi
    assert np.abs(np.diff(stitched)).max() < math.pi
