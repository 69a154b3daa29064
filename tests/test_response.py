import cmath
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cavity_eit as ce
from cavity_eit import response
from cavity_eit.cli import emit_figure_bundle
from cavity_eit.params import C_LIGHT, HBAR

from conftest import near_reference, one_point_delays, steady_at, transmitted


def empty(params):
    return steady_at(params, 0.0)


# --- amplitude at a point ----------------------------------------------------


def test_empty_cavity_resonance_identity(ref):
    params, _ = ref
    et = transmitted(params.effective_detuning, params, empty(params))
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
        got = transmitted(d, params, st) / (2 * params.cavity_decay)
        assert got == pytest.approx(expected, rel=1e-12)


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
        got = transmitted(float(d), params, steady_at(params, float(power))) / (2 * k)
        assert got == pytest.approx(want, rel=1e-12), (power, d / om)


def test_resonance_transmission_5uw(ref, steady_5uw):
    params, _ = ref
    et = transmitted(params.mirror_freq, params, steady_5uw)
    assert et == pytest.approx(9.4735489503e-6 - 9.9998086161e-2j, rel=1e-9)
    assert abs(et) ** 2 == pytest.approx(0.01, rel=0.01)
    assert abs(et - 1.0) ** 2 == pytest.approx(1.0099806702, rel=1e-9)


def test_probe_response_fields(ref, steady_5uw):
    # a one-point spectrum and the scalar amplitude are the same response
    params, _ = ref
    d = 1.02 * params.mirror_freq
    table = ce.spectrum([d], params, steady_5uw)
    eps_t = transmitted(d, params, steady_5uw)
    assert table.eps_t[0] == pytest.approx(eps_t, rel=1e-15)
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
    eps_t = transmitted(d, params, empty(params))
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
    # strength of -chi*w/(2*Delta) cancels the denominator exactly.  Squares are
    # products, as in response._pieces: x**2 is libm's pow, which can round the
    # other way near a tie (omega_m = 668392.0093874397 rad/s)
    m, om, k = params.mirror_mass, params.mirror_freq, params.cavity_decay
    chi_w = -m * (om * om) * (4 * (k * k) + params.effective_detuning**2)
    return ce.SteadyState(
        cavity_amp=0j,
        photon_number=0.0,
        mirror_displacement=0.0,
        alpha=-chi_w / (2 * params.effective_detuning),
    )


def test_degenerate_denominator_detected(ref):
    params, _ = ref
    crafted = degenerate_at_zero(params)
    # a scalar point is a complex NaN; the array path records a gap
    # instead of aborting the sweep
    assert cmath.isnan(transmitted(0.0, params, crafted))
    vals = transmitted(np.array([0.0, params.mirror_freq]), params, crafted)
    assert np.isnan(vals[0])
    assert np.isfinite(vals[1])


def test_degenerate_denominator_is_one_rule(ref):
    # every path through the response treats the degenerate point alike:
    # amplitudes, grids, delays and sweeps get NaN, never +-inf or an error
    params, _ = ref
    crafted = degenerate_at_zero(params)
    om = params.mirror_freq
    table = ce.spectrum([0.0, om], params, crafted)
    for column in (table.eps_t.real, table.eps_t.imag, table.transmission,
                   table.reflection, table.phase_t, table.tau_t, table.tau_r):
        assert np.isnan(column[0])
        assert np.isfinite(column[1])
    tau_t, tau_r = one_point_delays(0.0, params, crafted)
    assert math.isnan(tau_t) and math.isnan(tau_r)
    scalar = transmitted(0.0, params, crafted)
    assert math.isnan(scalar.real) and math.isnan(scalar.imag)
    assert np.isnan(transmitted(np.array([0.0, om]), params, crafted)[0])


@settings(deadline=None)
@given(near_reference(), st.floats(-3.0, 3.0))
def test_reflected_amplitude_is_transmitted_minus_one(point, x):
    # tau_R is the log-derivative of (2k*num - den)/den, formed from _pieces without
    # dividing first; at a stable working point that quotient is eps_T - 1.  Both sides
    # round the same num and den through one product, one quotient and one subtraction,
    # so they differ by a few ulps of 1 + |eps_T| (20,000 draws gave at most 1.5)
    params, power = point
    steady = steady_at(params, power)
    assume(decays(params, steady.alpha))
    d = x * params.mirror_freq
    num, _, den, _ = response._pieces(d, params, steady.alpha)
    eps_r = complex((2.0 * params.cavity_decay * num - den) / den)
    eps_t = transmitted(d, params, steady)
    assert abs(eps_r - (eps_t - 1.0)) <= 4.0 * 2.0**-52 * (1.0 + abs(eps_t))


@settings(deadline=None)
@given(near_reference(), st.floats(-3.0, 3.0))
def test_conjugation_symmetry_over_parameters(point, x):
    # eps_T(-delta; -Delta, -alpha) = conj eps_T(delta; Delta, alpha)
    params, power = point
    steady = steady_at(params, power)
    flipped = dataclasses.replace(params, effective_detuning=-params.effective_detuning)
    d = x * params.mirror_freq
    lhs = transmitted(-d, flipped, dataclasses.replace(steady, alpha=-steady.alpha))
    rhs = np.conj(transmitted(d, params, steady))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@settings(deadline=None)
@given(near_reference(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20, unique=True))
def test_scalar_amplitude_matches_spectrum_over_parameters(point, xs):
    params, power = point
    steady = steady_at(params, power)
    grid = np.unique(np.multiply(xs, params.mirror_freq))  # two x may round to one delta
    table = ce.spectrum(grid, params, steady)
    for d, eps in zip(grid, table.eps_t):
        scalar = transmitted(float(d), params, steady)
        assert abs(scalar - eps) <= 1e-14 * abs(eps)


@settings(deadline=None)
@given(near_reference(detuning_power_of_two=True))
def test_degenerate_point_is_nan_on_every_path(point):
    # the amplitude (scalar and array), a spectrum, the delays and a power
    # sweep, whose steady state is replaced by the crafted one
    params, _ = point
    crafted = degenerate_at_zero(params)
    om = params.mirror_freq
    assert cmath.isnan(transmitted(0.0, params, crafted))
    amps = transmitted(np.array([0.0, om]), params, crafted)
    assert cmath.isnan(amps[0]) and np.isfinite(amps[1])
    table = ce.spectrum([0.0, om], params, crafted)
    assert cmath.isnan(table.eps_t[0]) and math.isnan(table.tau_t[0])
    tau_t, tau_r = one_point_delays(0.0, params, crafted)
    assert math.isnan(tau_t) and math.isnan(tau_r)
    with mock.patch.object(response, "solve_steady", return_value=crafted):
        (pt,) = ce.power_sweep([0.0], 0.0, params)
    assert math.isnan(pt.tau_t) and math.isnan(pt.tau_r)
    # den(0) = 0 is a pole on the real axis, at delta = 0: the static bound refuses it
    with pytest.raises(ce.InstabilityError, match="static"):
        response.stability(params, crafted.alpha)


# --- stability of the working point -------------------------------------------


def decays(params, alpha):
    """The stability gate's verdict at interaction strength alpha."""
    try:
        response.stability(params, alpha)
    except ce.InstabilityError:
        return False
    return True


def slowest_root(params, alpha):
    """The largest Re s over the roots of (s^2 + gm s + om^2)(s^2 + 4k s + 4k^2 + D^2) - 2 D alpha/m.

    In units of omega_m, by np.roots: the test oracle of response.stability.
    """
    om, det = params.mirror_freq, params.effective_detuning
    k, y = params.cavity_decay / om, det / om
    quartic = np.polymul([1.0, params.mirror_damping / om, 1.0], [1.0, 4.0 * k, 4.0 * k * k + y * y])
    quartic[-1] -= 2.0 * det * alpha / (params.mirror_mass * om**4)
    return np.roots(quartic).real.max()


@settings(deadline=None)
@given(near_reference(), st.floats(0.01, 3.0))
def test_stability_flips_at_static_bound(point, x):
    # for Delta > 0 the verdict flips at alpha* = m om^2 (4 k^2 + Delta^2) / (2 Delta)
    params, _ = point
    params = dataclasses.replace(params, effective_detuning=x * params.mirror_freq)
    m, om, k, det = params.mirror_mass, params.mirror_freq, params.cavity_decay, params.effective_detuning
    alpha_star = m * om * om * (4.0 * k * k + det * det) / (2.0 * det)
    assert decays(params, 0.0) and decays(params, alpha_star * (1.0 - 1e-9))
    assert not decays(params, alpha_star * (1.0 + 1e-9))
    assert not decays(params, 1e3 * alpha_star)


@settings(deadline=None)
@given(near_reference(), st.floats(-3.0, -0.01), st.floats(-16.0, -6.0))
def test_stability_matches_quartic_roots_below_resonance(point, x, log_power):
    # for Delta < 0 only the oscillatory bound can fail, near 50 pW at Delta = -omega_m
    params, _ = point
    params = dataclasses.replace(params, effective_detuning=x * params.mirror_freq)
    alpha = steady_at(params, 10.0**log_power).alpha
    top = slowest_root(params, alpha)
    assume(abs(top) > 1e-9)  # np.roots' sign is sure
    assert decays(params, alpha) == (top < 0)


@pytest.mark.parametrize("s", [1e-79, 1e-3, 1e3])
def test_spectrum_does_not_depend_on_time_unit(ref, steady_5uw, s):
    # the same system with time measured in units of 1/s: every rate and
    # detuning times s, alpha (kg rad^3/s^3) times s^3, the mass left alone.  eps_T is
    # unchanged and each delay divides by s.  At s = 1e-79 |den| is 8e-305 to
    # 3e-303 kg rad^4/s^4, so an absolute floor on it would blank the whole
    # spectrum; the worst relative differences measured are 1.8e-13 (eps_T)
    # and 8.4e-13 (tau_R)
    params, _ = ref
    fields = ("mirror_freq", "mirror_damping", "cavity_decay", "effective_detuning")
    scaled = dataclasses.replace(params, **{name: getattr(params, name) * s for name in fields})
    steady = dataclasses.replace(steady_5uw, alpha=steady_5uw.alpha * s**3)
    grid = np.linspace(0.5, 1.5, 2001) * params.mirror_freq
    want = ce.spectrum(grid, params, steady_5uw)
    got = ce.spectrum(grid * s, scaled, steady)
    for a, b in ((got.eps_t, want.eps_t), (got.tau_t * s, want.tau_t), (got.tau_r * s, want.tau_r)):
        assert (np.isnan(a) == np.isnan(b)).all()
        defined = ~np.isnan(b)
        assert (np.abs(a - b)[defined] <= 1e-11 * np.abs(b)[defined]).all()


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
        lhs = transmitted(-d, flipped_params, flipped_steady)
        rhs = np.conj(transmitted(d, params, steady_5uw))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    st0 = empty(params)
    for d in np.linspace(0.6, 1.4, 5) * params.mirror_freq:
        lhs = transmitted(-d, flipped_params, st0)
        rhs = np.conj(transmitted(d, params, st0))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_vectorized_matches_scalar(ref, steady_5uw):
    # numpy's vector and scalar complex division differ in the last ulp
    params, _ = ref
    grid = np.linspace(0.8, 1.2, 11) * params.mirror_freq
    vec = transmitted(grid, params, steady_5uw)
    for i, d in enumerate(grid):
        want = transmitted(float(d), params, steady_5uw)
        assert vec[i] == pytest.approx(want, rel=1e-14)


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
    gamma = params.mirror_damping / 2 + steady_5uw.alpha / (4 * params.mirror_mass * om * params.cavity_decay)
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
    assert empty(params).alpha == 0.0
    (pt,) = ce.power_sweep([0.0], params.mirror_freq, params)
    assert pt.gamma_width == params.mirror_damping / 2 == 0.38


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
    w = ce.power_sweep([drive.pump_power], params.mirror_freq, params)[0].gamma_width
    assert w == pytest.approx(expected, rel=1e-12)
    assert w == pytest.approx(3.9710574643e4, rel=1e-9)
    assert w >= params.mirror_damping / 2


def test_width_power_homogeneity(ref):
    params, _ = ref
    gm2 = params.mirror_damping / 2
    g1, g2, g4 = (pt.gamma_width for pt in ce.power_sweep([1e-6, 2e-6, 4e-6], params.mirror_freq, params))
    assert g4 - gm2 == 4.0 * (g1 - gm2)  # exact quadrupling
    assert g2 - gm2 == pytest.approx(2.0 * (g1 - gm2), rel=1e-13)


# --- power sweep ---------------------------------------------------------------


def test_power_sweep_validation(ref):
    params, _ = ref
    with pytest.raises(ce.ParameterError):
        ce.power_sweep([], 1.0, params)
    with pytest.raises(ce.ParameterError):
        ce.power_sweep([2e-6, 1e-6], 1.0, params)
    with pytest.raises(ce.ParameterError, match=r"^pump_power must be non-negative and finite, got -1e-06$"):
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


def per_point_sweep(powers, delta, params):
    """Oracle for ce.power_sweep: one steady state and one scalar response per power."""
    divisor = 4.0 * params.mirror_mass * params.mirror_freq * params.cavity_decay
    out = []
    for p in powers:
        steady = steady_at(params, p)
        eps_t, tau_t, tau_r = response._response(delta, params, steady.alpha)
        gamma = params.mirror_damping / 2.0 + steady.alpha / divisor
        out.append((p, float(tau_t), float(tau_r), gamma, abs(complex(eps_t)) ** 2, steady.alpha))
    return out


def float64_bytes(points):
    """The points as float64 bytes, every NaN replaced by one NaN."""
    values = np.array(points, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


@settings(deadline=None)
@given(near_reference(), st.lists(st.floats(-19.0, -3.0), max_size=30), st.floats(-3.0, 3.0))
def test_power_sweep_matches_scalar_path_over_parameters(point, log_powers, x):
    # one response evaluation over all alphas rounds every point as one evaluation per power
    params, power = point
    powers = sorted([0.0, power, *(10.0 ** e for e in log_powers)])
    for delta in (params.mirror_freq, 0.0, x * params.mirror_freq):
        points = ce.power_sweep(powers, delta, params)
        assert float64_bytes(points) == float64_bytes(per_point_sweep(powers, delta, params))


@settings(deadline=None, max_examples=5)
@given(near_reference())
@example((ce.reference_defaults()[0], 5e-6))
def test_sweep_point_carries_its_pumps_alpha(point):
    # the alpha each point carries, which the stability gate reads, is its pump's
    # steady-state alpha, and gamma_width is formed from it, bit for bit
    params, _ = point
    divisor = 4.0 * params.mirror_mass * params.mirror_freq * params.cavity_decay
    powers = [p * 1e-6 for p in np.linspace(0.1, 5.0, 50).tolist()]  # fig4's sweep
    for p, pt in zip(powers, ce.power_sweep(powers, params.mirror_freq, params), strict=True):
        alpha = ce.solve_steady(params, ce.derive(params, ce.DriveParams(p))).alpha
        assert pt.power == p and pt.alpha.hex() == alpha.hex()
        assert pt.gamma_width.hex() == (params.mirror_damping / 2.0 + pt.alpha / divisor).hex()


@settings(deadline=None)
@given(near_reference(), st.floats(-3.0, 3.0))
def test_sweep_transmission_is_squared_amplitude(point, x):
    # |eps_T|^2 of each sweep point rounds as abs(eps_T) ** 2 of its one-pump amplitude,
    # not as np.abs over the sweep's array
    params, power = point
    delta = x * params.mirror_freq
    for pt in ce.power_sweep([0.0, power], delta, params):
        want = abs(transmitted(delta, params, steady_at(params, pt.power))) ** 2
        assert float64_bytes([pt.transmission]) == float64_bytes([want])


@settings(deadline=None)
@given(near_reference(), st.floats(-3.0, 3.0))
def test_sweep_width_is_weak_coupling_formula(point, x):
    # Gamma of each sweep point is gamma_m/2 + alpha/(4 m omega_m kappa) of its one-pump alpha,
    # whatever the detuning
    params, power = point
    divisor = 4.0 * params.mirror_mass * params.mirror_freq * params.cavity_decay
    for pt in ce.power_sweep([0.0, power], x * params.mirror_freq, params):
        assert pt.gamma_width == params.mirror_damping / 2.0 + steady_at(params, pt.power).alpha / divisor


def test_power_sweep_matches_scalar_path_across_sign_change(ref):
    # a log grid over the pump at which tau_T switches sign at the probe resonance
    params, _ = ref
    powers = [0.0, *np.geomspace(1e-19, 5e-6, 400).tolist()]
    points = ce.power_sweep(powers, params.mirror_freq, params)
    assert float64_bytes(points) == float64_bytes(per_point_sweep(powers, params.mirror_freq, params))
    below = [pt.tau_t for pt in points if 1e-9 < pt.power < 2.43994e-9]
    above = [pt.tau_t for pt in points if 2.43994e-9 < pt.power < 1e-8]
    assert below and above and max(below) < 0 < min(above)


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
    derived = ce.derive(params, ce.DriveParams(pump_power=5e-6))
    for delta in (omega_c, -omega_c):
        with pytest.raises(ce.ParameterError, match="probe detuning"):
            ce.spectrum([delta], params, steady_5uw)
        with pytest.raises(ce.ParameterError, match="probe detuning"):
            ce.power_sweep([0.0, 5e-6], delta, params)
        with pytest.raises(ce.ParameterError, match="probe detuning"):
            ce.build_matrix(delta, params, derived, steady_5uw)
    # a scalar amplitude and a one-point spectrum refuse it too, before m*delta^4 can overflow
    for delta in (omega_c, -omega_c, 1e300):
        for entry in (transmitted, one_point_delays):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ce.ParameterError, match="probe detuning"):
                    entry(delta, params, steady_5uw)
    assert transmitted(np.array([]), params, steady_5uw).shape == (0,)
    # just inside, every value is finite but tau_t, masked because |eps_T| ~ 1e-10
    inside = np.nextafter(omega_c, 0)
    table = ce.spectrum([-inside, inside], params, steady_5uw)
    for column in (table.eps_t, table.transmission, table.reflection, table.phase_t, table.tau_r):
        assert np.isfinite(column).all()
    assert (np.abs(table.eps_t) < ce.AMPLITUDE_FLOOR).all() and np.isnan(table.tau_t).all()
    for delta in (-inside, inside):
        for point in ce.power_sweep([0.0, 5e-6], delta, params):
            assert math.isfinite(point.tau_r) and math.isfinite(point.gamma_width)
    # a scalar amplitude and a one-point spectrum return the same as the spectrum there
    for i, delta in enumerate((-inside, inside)):
        amp = transmitted(delta, params, steady_5uw)
        assert abs(amp - table.eps_t[i]) <= 1e-14 * abs(table.eps_t[i])
        assert amp.imag == pytest.approx(math.copysign(9.5116469e-11, delta), rel=1e-8)
        tau_t, tau_r = one_point_delays(delta, params, steady_5uw)
        assert math.isnan(tau_t)
        assert tau_r == pytest.approx(table.tau_r[i], rel=1e-12)
        assert tau_r == pytest.approx(5.3727518e-26, rel=1e-8)


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
