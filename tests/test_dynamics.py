import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import cavity_eit as ce
from cavity_eit import dynamics
from cavity_eit.cli import FIGURE_RUNS, main
from cavity_eit.dynamics import METHOD_EXPM, METHOD_RK4, PULSE_SHAPES
from cavity_eit.params import C_LIGHT, HBAR

from conftest import Signal, near_reference, one_point_delays, steady_at, transmitted


@pytest.fixture(scope="module")
def matrix_5uw():
    params, drive = ce.reference_defaults()
    der = ce.derive(params, drive)
    st = ce.solve_steady(params, der)
    return params, st, ce.build_matrix(params.mirror_freq, params, der, st)


def kick_width(params):
    return 0.1 * 2.0 * math.pi / params.mirror_freq


# --- matrix construction -----------------------------------------------------


def test_cavity_entry(matrix_5uw):
    params, _, M = matrix_5uw
    om = params.mirror_freq
    assert M.d == 2.0 * params.cavity_decay + 1j * (params.effective_detuning - om)
    assert M.d.real == pytest.approx(1.6838936623e5, rel=1e-10)


def test_decoupled_without_pump(ref):
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=0.0))
    st = steady_at(params, 0.0)
    d = 1.05 * params.mirror_freq
    M = ce.build_matrix(d, params, der, st)
    assert M.b == 0
    assert M.c == 0
    assert M.d == 2.0 * params.cavity_decay + 1j * (params.effective_detuning - d)
    om, gm = params.mirror_freq, params.mirror_damping
    expected_a = -(1j * d * gm + d * d - om * om) / (gm - 1j * d)
    assert M.a == pytest.approx(expected_a, rel=1e-12)


def test_trace_identity(matrix_5uw):
    _, _, M = matrix_5uw
    s = sum(M.eigenvalues)
    assert s == pytest.approx(M.a + M.d, rel=1e-12)


def test_eigenvalues_decay(matrix_5uw):
    _, _, M = matrix_5uw
    assert all(ev.real > 0 for ev in M.eigenvalues)
    assert M.slowest_rate == min(ev.real for ev in M.eigenvalues)
    assert M.spectral_radius == max(abs(ev) for ev in M.eigenvalues)


def test_instability_detected_at_high_power(ref):
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=2e-3))
    st = steady_at(params, 2e-3)
    with pytest.raises(ce.InstabilityError, match="eigenvalue"):
        ce.build_matrix(params.mirror_freq, params, der, st)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_zero_pump_slowest_rate_is_half_mirror_damping(ref):
    # the mechanical amplitude decays at gamma_m/2 when nothing couples to it
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=0.0))
    M = ce.build_matrix(params.mirror_freq, params, der, steady_at(params, 0.0))
    assert M.slowest_rate == pytest.approx(params.mirror_damping / 2, rel=1e-6)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_transfer_function_delay_is_frequency_domain_delay(ref):
    # a probe at delta + w is the envelope e^{-iwt}: V = (M - iw)^{-1} F, so the
    # time-domain group delay is d arg c_plus / dw = Re[(M^-2)_cc / (M^-1)_cc]
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=1e-6))
    st = steady_at(params, 1e-6)
    om = params.mirror_freq
    arr = ce.build_matrix(om, params, der, st).as_array()
    v = np.linalg.solve(arr, [0.0, 1.0])
    tau = (np.linalg.solve(arr, v)[1] / v[1]).real
    assert tau == pytest.approx(one_point_delays(om, params, st)[0], rel=1e-6)


def top_pole(params, power):
    """The largest Im delta of the probe response's poles at pump power `power` (W).

    The roots of den(delta) = chi(delta) w(delta) + 2 Delta alpha, the quartic
    denominator of response._pieces, are the poles of the probe response; the
    linearised dynamics relax exactly where every one has Im delta < 0.
    """
    m, om, gm = params.mirror_mass, params.mirror_freq, params.mirror_damping
    k2, det = 2.0 * params.cavity_decay, params.effective_detuning
    chi = m * np.array([1.0, 1j * gm, -om * om])  # m (d^2 + i gm d - om^2)
    w = np.array([-1.0, -2j * k2, k2 * k2 + det * det])  # (k2 - i d)^2 + det^2
    den = np.polymul(chi, w)
    den[-1] += 2.0 * det * steady_at(params, power).alpha
    return np.roots(den).imag.max()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_instability_threshold_is_where_response_poles_cross(ref):
    # the pump power P* at which a pole of the response crosses into Im delta > 0
    # is where the linearised dynamics must stop relaxing
    params, _ = ref
    om = params.mirror_freq
    lo, hi = 100e-6, 200e-6
    assert top_pole(params, lo) < 0 < top_pole(params, hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if top_pole(params, mid) < 0 else (lo, mid)
    assert 137e-6 < lo < 138e-6

    def build(power):
        der = ce.derive(params, ce.DriveParams(pump_power=power))
        return ce.build_matrix(om, params, der, steady_at(params, power))

    build(0.98 * lo)
    with pytest.raises(ce.InstabilityError):
        build(1.02 * lo)


@pytest.mark.xfail(strict=True, raises=ce.InstabilityError, reason="ROADMAP item 2")
def test_matrix_accepts_working_points_whose_poles_decay(ref):
    # at 5 uW every pole of the response decays (the slowest at 6.4e4 1/s), yet
    # the 2x2 model finds an eigenvalue with real part -4.1e3 1/s at
    # delta = 0.3 omega_m; it refuses about (0, 0.41] and [-3, -2.41] omega_m
    params, drive = ref
    assert top_pole(params, drive.pump_power) < 0
    der = ce.derive(params, drive)
    st = ce.solve_steady(params, der)
    for x in (0.3, -2.5):
        ce.build_matrix(x * params.mirror_freq, params, der, st)


def sideband_entries(delta, params, der, steady):
    """[[A, B], [C, D]] as the dynamics module docstring writes it, for LAPACK to solve."""
    m, om, gm = params.mirror_mass, params.mirror_freq, params.mirror_damping
    kappa, det, g, c0 = params.cavity_decay, params.effective_detuning, der.coupling_constant, steady.cavity_amp
    v = gm - 1j * delta
    u = 2.0 * kappa - 1j * (det + delta)
    a = (-m * u * (1j * delta * gm + delta * delta - om * om) + 1j * steady.alpha) / (m * v * u)
    b = HBAR * g * c0.conjugate() / (m * v)
    return np.array([[a, b], [1j * g * c0, 2.0 * kappa + 1j * (det - delta)]])


def random_working_points(n, seed=24):
    """n seeded draws: mass, omega_m and gamma_m x0.5-2, kappa x0.3-3, Delta and delta
    uniform over [-2, 2] and [-3, 3] omega_m, and a pump of 1 pW-10 mW, log-uniform."""
    rng = np.random.default_rng(seed)
    base, _ = ce.reference_defaults()
    for _ in range(n):
        x = 2.0 ** rng.uniform(-1.0, 1.0, 3)
        om = base.mirror_freq * x[1]
        params = dataclasses.replace(
            base, mirror_mass=base.mirror_mass * x[0], mirror_freq=om,
            mirror_damping=base.mirror_damping * x[2],
            cavity_decay=base.cavity_decay * 10.0 ** rng.uniform(math.log10(0.3), math.log10(3.0)),
            effective_detuning=rng.uniform(-2.0, 2.0) * om)
        der = ce.derive(params, ce.DriveParams(pump_power=10.0 ** rng.uniform(-12.0, -2.0)))
        yield rng.uniform(-3.0, 3.0) * om, params, der, ce.solve_steady(params, der)


def test_eigenvalues_match_lapack():
    # LAPACK as the oracle of the closed-form roots, over 3,000 draws (1,768 stable).
    # Against a 50-digit evaluation LAPACK is the less accurate: 2.4e-14 rho at worst
    # here, where the two eigenvalues lie close, against 4.1e-16 rho for the closed form
    stable = 0
    for delta, params, der, steady in random_working_points(3000):
        want = np.linalg.eigvals(sideband_entries(delta, params, der, steady))
        rho = np.abs(want).max()
        try:
            M = ce.build_matrix(delta, params, der, steady)
        except ce.InstabilityError:
            M = None
        if np.abs(want.real).min() > 1e-12 * rho:  # the verdict, where LAPACK's sign is sure
            assert (M is None) == (want.real.min() <= 0)
        if M is None:
            continue
        stable += 1
        l1, l2 = M.eigenvalues
        assert abs(l1) >= abs(l2)
        err = min(np.abs([l1, l2] - want).max(), np.abs([l2, l1] - want).max())
        assert err <= 1e-13 * rho
        # Vieta, relative to the size of the terms: a + d itself may be much
        # smaller than rho, and its relative error then grows
        assert abs(l1 + l2 - (M.a + M.d)) <= 1e-14 * (abs(l1) + abs(l2))
        assert abs(l1 * l2 - (M.a * M.d - M.b * M.c)) <= 1e-14 * abs(l1 * l2)
    assert stable > 1000


# --- pulse envelopes ----------------------------------------------------------


def test_pulse_shapes():
    w = 1e-6
    sech = ce.PulseSpec("sech", 2.0, w, center=0.0)
    assert sech.envelope(0.0) == 2.0
    assert sech.envelope(w) == pytest.approx(2.0 / math.cosh(1.0))
    assert sech.envelope(1.0) == 0.0  # far tail underflows to exactly zero

    gauss = ce.PulseSpec("gaussian", 1.0, w, center=3e-6)
    assert gauss.envelope(3e-6) == 1.0
    assert gauss.envelope(3e-6 + w) == pytest.approx(math.exp(-0.5))

    rect = ce.PulseSpec("rectangle", 1.5, w, center=0.0)
    assert rect.envelope(0.49 * w) == 1.5
    assert rect.envelope(0.51 * w) == 0.0

    const = ce.PulseSpec("constant", 0.7, w, center=123.0)
    assert const.envelope(-5.0) == 0.7


@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_sech_envelope_finite_at_largest_amplitude(matrix_5uw, method):
    # A sech x <= A for every amplitude: the envelope doubles last, so it cannot
    # overflow near the centre where 2 A e^-|x| would
    big = np.finfo(float).max
    pulse = ce.PulseSpec("sech", big, 1e-6, center=0.0)
    y = pulse.envelope(np.linspace(-5e-6, 5e-6, 10_001))
    assert np.isfinite(y).all() and (y <= big).all()
    assert pulse.envelope(0.0) == big
    _, _, M = matrix_5uw
    traj = ce.integrate(M, ce.PulseSpec("sech", 1e308, 1e-6, 25e-6), (0.0, 60e-6), 1e-8,
                        method=method)
    assert np.isfinite(traj.q_plus).all() and np.isfinite(traj.c_plus).all()


def oracle_envelope(pulse, t):
    """The scalar envelope the array one replaced, kept as its oracle."""
    if pulse.shape == "constant":
        return pulse.amplitude
    x = (t - pulse.center) / pulse.width
    if pulse.shape == "sech":
        # sech overflows for |x| > ~710; the tail is exactly 0 there anyway
        if abs(x) > 700.0:
            return 0.0
        return pulse.amplitude / math.cosh(x)
    if pulse.shape == "gaussian":
        return pulse.amplitude * math.exp(-0.5 * x * x)
    return pulse.amplitude if abs(x) <= 0.5 else 0.0


# x = t for a unit pulse at 0: the sech cut-off, the rectangle's edges, Gaussian
# tails that underflow to 0 and an x*x that overflows
EDGE_X = [
    700.0, np.nextafter(700.0, np.inf), 710.0, 1e6,
    0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
    38.0, 38.6, 39.0, 40.0, 1e155, 0.0,
]


def ulp_error(got: float, exact: Decimal) -> Decimal:
    """|got - exact| in ulps of exact's binade (2^-1074 below the normal range); at a
    power of two, in the smaller ulp of the binade below."""
    return abs(Decimal(got) - exact) / Decimal(math.ulp(math.nextafter(float(exact), 0.0)))


def decimal_envelope(pulse, t):
    """A sech or Gaussian pulse at 40 digits, from the float x and -x*x/2 the envelope forms."""
    x = (t - pulse.center) / pulse.width
    with localcontext() as ctx:
        ctx.prec = 40
        if pulse.shape == "sech":
            e = Decimal(-abs(x)).exp()
            return Decimal(pulse.amplitude) * 2 * e / (1 + e * e)
        return Decimal(pulse.amplitude) * Decimal(-0.5 * x * x).exp()


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_array_envelope_equals_scalar_oracle(shape):
    # constant and rectangle keep the oracle's bytes; sech and Gaussian come from
    # the portable _exp, so they are held to the oracle's libm values where those
    # are normal and to a 40-digit reference everywhere
    rng = np.random.default_rng(7)
    edges = np.array(EDGE_X + [-x for x in EDGE_X])
    pulse = ce.PulseSpec(shape, 1.7, 3e-6, 5e-5)
    for p, ts in ((ce.PulseSpec(shape, 1.3, 1.0), edges),
                  (pulse, pulse.center + pulse.width * rng.uniform(-60, 60, 5000))):
        got = p.envelope(ts)
        assert got.dtype == np.float64 and got.shape == ts.shape
        want = np.array([oracle_envelope(p, t) for t in ts.tolist()])
        if shape in ("constant", "rectangle"):
            assert np.array_equal(got, want)
        else:
            normal = want >= np.finfo(float).tiny
            assert np.abs(got[normal].view(np.int64) - want[normal].view(np.int64)).max() <= 3
            assert max(ulp_error(g, decimal_envelope(p, t))
                       for g, t in zip(got.tolist(), ts.tolist())) <= 2
        for t, g in zip(ts[::7].tolist(), got[::7].tolist()):
            y = p.envelope(t)
            assert type(y) is float and y == g


# Relative error bounds of the envelope in units of u = 2^-53, derived in
# test_envelope_relative_error_is_bounded's docstring.
ENVELOPE_BOUND_U = {"gaussian": 2.75, "sech": 9.0}


@pytest.mark.parametrize("shape, x_max", [("sech", 650.0), ("gaussian", 35.5)])
@settings(deadline=None)
@given(data=st.data(), amplitude=st.floats(2.0**-24, np.finfo(float).max))
def test_envelope_relative_error_is_bounded(shape, x_max, data, amplitude):
    """A sech or Gaussian sample against its 40-digit value at the same rounded argument.

    An ulp of a normal y is at most 2u|y|, so _exp's 0.87 ulp is a relative
    error e_x <= 1.74u, and every other float64 operation rounds once, by at
    most u.  Gaussian: A * _exp(a) rounds once more, 1.74u + u = 2.74u.
    sech: 2 A e (1 - s) with e = _exp(-|x|) and s = e^2/(1 + e^2).  A*e and
    y - y*s round once each (2u), and the doubling is exact.  s takes
    2 e_x/(1 + e^2) from e and u/(1 + e^2) from e*e, then 1 + e*e, the
    quotient and y*s add 3u; an error in s enters 1 - s weighted by
    s/(1 - s) = e^2 <= 1, so it adds at most (2 e_x + u) e^2/(1 + e^2) + 3u e^2
    <= 5.24u, at e = 1.  With e_x itself that is 1.74u + 2u + 5.24u = 8.98u
    to first order; the products of these terms are under 100u^2, far below
    the 0.02u that rounds it up to 9u.  Both bounds hold while every
    intermediate is normal: |x| is at most x_max and A >= 2^-24, so each
    sample is at least 2^-962.
    """
    x = data.draw(st.floats(-x_max, x_max), label="x")
    pulse = ce.PulseSpec(shape, amplitude, 1.0)
    got = pulse.envelope(np.array([x]))[0]
    want = decimal_envelope(pulse, x)
    with localcontext() as ctx:
        ctx.prec = 40
        error = abs(Decimal(float(got)) - want) / want
    assert error <= Decimal(ENVELOPE_BOUND_U[shape]) * Decimal(2.0**-53)


def test_exp_is_under_one_ulp():
    # against 40-digit exp: seeded points over [-745, 0], and every 1e-4 or so of
    # the reduced argument |r| <= ln2/2 around k = 0, -1 and -2
    rng = np.random.default_rng(11)
    a = np.concatenate([-rng.uniform(0, 745, 5000), np.linspace(-1.5 * math.log(2), 0, 10001)])
    got = dynamics._exp(a)
    assert got.dtype == np.float64 and got.shape == a.shape
    with localcontext() as ctx:
        ctx.prec = 40
        exact = [Decimal(x).exp() for x in a.tolist()]
        assert max(ulp_error(g, e) for g, e in zip(got.tolist(), exact)
                   if e >= Decimal(np.finfo(float).tiny)) < 1


def test_exp_end_points():
    assert dynamics._exp(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]
    assert dynamics._exp(np.array([-np.inf, -746.0, -746.5, -1e300])).tolist() == [0.0] * 4
    assert dynamics._exp(0.0) == 1.0


def test_pulse_validation():
    with pytest.raises(ce.ParameterError, match="shape"):
        ce.PulseSpec("triangle", 1.0, 1e-6)
    with pytest.raises(ce.ParameterError, match="width"):
        ce.PulseSpec("sech", 1.0, 0.0)
    with pytest.raises(ce.ParameterError, match="amplitude"):
        ce.PulseSpec("sech", -1.0, 1e-6)
    for bad in (math.inf, math.nan):
        with pytest.raises(ce.ParameterError, match="width"):
            ce.PulseSpec("sech", 1.0, bad)
        with pytest.raises(ce.ParameterError, match="amplitude"):
            ce.PulseSpec("sech", bad, 1e-6)
        with pytest.raises(ce.ParameterError, match="center"):
            ce.PulseSpec("sech", 1.0, 1e-6, center=bad)
    with pytest.raises(ce.ParameterError, match="center"):
        ce.PulseSpec("constant", 1.0, 1e-6, center=-math.inf)


# --- integration ---------------------------------------------------------------


def test_zero_forcing_stays_zero(matrix_5uw):
    _, _, M = matrix_5uw
    pulse = ce.PulseSpec("constant", 0.0, 1.0)
    for method in (METHOD_RK4, METHOD_EXPM):
        traj = ce.integrate(M, pulse, (0.0, 1e-4), 1e-7, method=method, samples=64)
        assert np.all(traj.q_plus == 0)
        assert np.all(traj.c_plus == 0)


def test_step_size_rejection(matrix_5uw):
    _, _, M = matrix_5uw
    pulse = ce.PulseSpec("constant", 1.0, 1.0)
    bad_dt = 1.0 / M.spectral_radius
    with pytest.raises(ce.ParameterError) as err:
        ce.integrate(M, pulse, (0.0, 1e-4), bad_dt, method=METHOD_RK4)
    assert f"{0.1 / M.spectral_radius:.6e}" in str(err.value)
    # the exponential path propagates exactly and takes any step
    traj = ce.integrate(M, pulse, (0.0, 1e-4), bad_dt, method=METHOD_EXPM, samples=8)
    assert np.isfinite(traj.c_plus).all()


def test_quiet_start_enforced(matrix_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    pulse = ce.PulseSpec("sech", 1.0, w, center=5 * w)  # too close to t_start
    with pytest.raises(ce.ParameterError, match="pulse"):
        ce.integrate(M, pulse, (0.0, 40 * w), 1e-8)
    # a constant drive is not checked: it has no quiet start to wait for
    traj = ce.integrate(M, ce.PulseSpec("constant", 1.0, w, center=5 * w), (0.0, 40 * w), 1e-8)
    assert np.isfinite(traj.c_plus).all()


def test_constant_forcing_relaxes_to_fixed_point(matrix_5uw):
    _, _, M = matrix_5uw
    target = np.linalg.solve(M.as_array(), [0.0, 1.0])
    pulse = ce.PulseSpec("constant", 1.0, 1.0)
    t_end = 12.0 / M.slowest_rate
    dt = 0.05 / M.spectral_radius
    traj = ce.integrate(M, pulse, (0.0, t_end), dt, samples=16)
    final = np.array([traj.q_plus[-1], traj.c_plus[-1]])
    assert (np.abs(final - target) / np.abs(target)).max() < 1e-3


def test_expm_exact_for_constant_forcing(matrix_5uw):
    _, _, M = matrix_5uw
    target = np.linalg.solve(M.as_array(), [0.0, 1.0])
    pulse = ce.PulseSpec("constant", 1.0, 1.0)
    t_end = 45.0 / M.slowest_rate
    traj = ce.integrate(M, pulse, (0.0, t_end), t_end / 500, method=METHOD_EXPM, samples=8)
    final = np.array([traj.q_plus[-1], traj.c_plus[-1]])
    assert np.abs(final - target).max() < 1e-9 * np.abs(target).max()


@settings(deadline=None)
@given(near_reference(), st.floats(-9.0, -5.0), st.floats(0.8, 1.2))
def test_fixed_point_matches_response_over_parameters(point, log_power, x):
    # under a constant unit drive the sideband pair relaxes to c_plus = eps_T/(2*kappa);
    # after 40 slowest decay times the transient is e^-40 of it; over 1,000 random
    # points the largest relative error measured was 1.2e-14
    params, _ = point
    power = 10.0**log_power
    delta = x * params.mirror_freq
    derived = ce.derive(params, ce.DriveParams(pump_power=power))
    steady = ce.solve_steady(params, derived)
    try:
        M = ce.build_matrix(delta, params, derived, steady)
    except ce.InstabilityError:
        reject()
    t_end = 40.0 / M.slowest_rate
    traj = ce.integrate(M, ce.PulseSpec("constant", 1.0, 1.0), (0.0, t_end), t_end / 400,
                        method=METHOD_EXPM, samples=8)
    want = transmitted(delta, params, steady) / (2.0 * params.cavity_decay)
    assert abs(traj.c_plus[-1] - want) <= 1e-12 * abs(want)


def test_doubling_amplitude_doubles_trajectory(matrix_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    dt = 0.02 / M.spectral_radius
    one = ce.integrate(M, ce.PulseSpec("sech", 1.0, w, 25 * w), (0.0, 60 * w), dt, samples=128)
    two = ce.integrate(M, ce.PulseSpec("sech", 2.0, w, 25 * w), (0.0, 60 * w), dt, samples=128)
    assert np.array_equal(two.q_plus, 2.0 * one.q_plus)
    assert np.array_equal(two.c_plus, 2.0 * one.c_plus)


def test_superposition(matrix_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    dt = 0.02 / M.spectral_radius
    p1 = ce.PulseSpec("sech", 1.0, w, 25 * w)
    p2 = ce.PulseSpec("gaussian", 0.7, 2 * w, 28 * w)
    t1 = ce.integrate(M, p1, (0.0, 60 * w), dt, samples=128)
    t2 = ce.integrate(M, Signal(p2.envelope), (0.0, 60 * w), dt, samples=128)
    both = ce.integrate(M, Signal(lambda t: p1.envelope(t) + p2.envelope(t)), (0.0, 60 * w), dt,
                        samples=128)
    for a, b, c in ((t1.q_plus, t2.q_plus, both.q_plus), (t1.c_plus, t2.c_plus, both.c_plus)):
        scale = np.abs(c).max()
        assert np.abs(a + b - c).max() < 1e-10 * scale


def test_rk4_and_expm_agree_on_sech_pulse(matrix_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    dt = w / 1000.0
    span = (0.0, 45 * w)
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)
    a = ce.integrate(M, pulse, span, dt, method=METHOD_RK4, samples=513)
    b = ce.integrate(M, pulse, span, dt, method=METHOD_EXPM, samples=513)
    assert np.array_equal(a.times, b.times)
    va = np.stack([a.q_plus, a.c_plus])
    vb = np.stack([b.q_plus, b.c_plus])
    assert np.abs(va - vb).max() < 1e-6 * np.abs(va).max()


def test_causality_for_gaussian_pulse(ref):
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=0.5e-6))
    st = steady_at(params, 0.5e-6)
    M = ce.build_matrix(params.mirror_freq, params, der, st)
    w = kick_width(params)
    pulse = ce.PulseSpec("gaussian", 1.0, w, 25 * w)
    traj = ce.integrate(M, pulse, (0.0, 40 * w), 0.02 / M.spectral_radius, samples=2048)
    mag = np.sqrt(np.abs(traj.q_plus) ** 2 + np.abs(traj.c_plus) ** 2)
    before = traj.times < pulse.center - 20 * w
    assert before.any()
    assert mag[before].max() < 1e-12 * mag.max()


def test_post_pulse_relaxation_rate(ref):
    # after the pulse the slower eigenmode survives alone; a log-linear fit
    # of |V| must recover its decay rate
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=0.5e-6))
    st = steady_at(params, 0.5e-6)
    M = ce.build_matrix(params.mirror_freq, params, der, st)
    w = kick_width(params)
    pulse = ce.PulseSpec("gaussian", 1.0, w, 25 * w)
    t_end = 25 * w + 4.5e-4
    traj = ce.integrate(M, pulse, (0.0, t_end), 0.02 / M.spectral_radius, samples=4096)
    mag = np.sqrt(np.abs(traj.q_plus) ** 2 + np.abs(traj.c_plus) ** 2)
    start = pulse.center + 5e-5  # let the fast mode die first
    mask = (traj.times > start) & (traj.times < start + 3.5e-4)
    slope = np.polyfit(traj.times[mask], np.log(mag[mask]), 1)[0]
    assert -slope == pytest.approx(M.slowest_rate, rel=0.05)


def test_sampling_is_bounded_and_ordered(matrix_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)
    traj = ce.integrate(M, pulse, (0.0, 60 * w), w / 200, samples=100)
    assert len(traj.times) <= 101
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(60 * w)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.q_plus) == len(traj.c_plus) == len(traj.times)


def test_integrate_validation(matrix_5uw):
    _, _, M = matrix_5uw
    pulse = ce.PulseSpec("constant", 1.0, 1.0)
    with pytest.raises(ce.ParameterError):
        ce.integrate(M, pulse, (1.0, 0.0), 1e-7)
    with pytest.raises(ce.ParameterError):
        ce.integrate(M, pulse, (0.0, 1.0), -1e-7)
    with pytest.raises(ce.ParameterError):
        ce.integrate(M, pulse, (0.0, 1e-4), 1e-7, method="euler")
    # samples is an integer >= 2: a NaN or infinity would keep every step
    for samples in (1, math.nan, math.inf, 100.0, 100.5, "100", None):
        with pytest.raises(ce.ParameterError, match="samples"):
            ce.integrate(M, pulse, (0.0, 1e-4), 1e-7, samples=samples)
    # non-finite times are refused before a step count is formed from them
    for method in (METHOD_RK4, METHOD_EXPM):
        for forcing in (lambda t: 0.0, "not a pulse", 3.0):
            with pytest.raises(ce.ParameterError, match="forcing"):
                ce.integrate(M, forcing, (0.0, 1e-4), 1e-7, method=method)
        for span in ((0.0, math.inf), (-math.inf, 1e-4), (0.0, math.nan)):
            with pytest.raises(ce.ParameterError, match="t_span"):
                ce.integrate(M, pulse, span, 1e-7, method=method)
        for dt in (math.inf, math.nan):
            with pytest.raises(ce.ParameterError, match="dt"):
                ce.integrate(M, pulse, (0.0, 1e-4), dt, method=method)
        # a step count past float64, and sample times too close to be distinct
        for span, dt in (((0.0, 1e-4), 5e-324), ((0.0, 1e300), 1e-10), ((-1e308, 1e308), 1e-9)):
            with pytest.raises(ce.ParameterError, match="step count"):
                ce.integrate(M, pulse, span, dt, method=method)
        for span, dt in (((0.0, 1e-4), 1e-300), ((0.0, 1e300), 1e-8), ((1.0, 1.0 + 1e-10), 1e-16)):
            with pytest.raises(ce.ParameterError, match="distinct sample times"):
                ce.integrate(M, pulse, span, dt, method=method)


@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_forcing_refused(matrix_5uw, method, bad):
    # one non-finite sample, mid-run, reaches the final state and is refused
    _, _, M = matrix_5uw
    with pytest.raises(ce.ParameterError, match="final state is not finite"):
        ce.integrate(M, Signal(lambda t: bad if 3e-6 <= t < 3.01e-6 else 0.0), (0.0, 1e-5), 1e-9,
                     method=method, samples=16)


# --- the blocked solve against the step-by-step integrators -------------------


def _phi1(z: complex) -> complex:
    """(e^z - 1)/z, series for small |z| to avoid cancellation."""
    if abs(z) < 0.25:
        total, term = 1.0 + 0j, 1.0 + 0j
        for k in range(1, 18):
            term *= z / (k + 1)
            total += term
        return total
    return (np.exp(z) - 1.0) / z


def _phi2(z: complex) -> complex:
    """(e^z - 1 - z)/z^2, series for small |z|."""
    if abs(z) < 0.25:
        total, term = 0.5 + 0j, 0.5 + 0j
        for k in range(1, 18):
            term *= z / (k + 2)
            total += term
        return total
    return (np.exp(z) - 1.0 - z) / (z * z)


def _expm_propagators(matrix, h):
    """Step matrices P, Ph1, Ph2 with V' = P V + Ph1 F_n + Ph2 (F_{n+1} - F_n).

    Formed through the eigendecomposition of M, independently of the Taylor
    polynomials of the library's step rules.
    """
    arr = matrix.as_array()
    lam, vecs = np.linalg.eig(arr)
    vinv = np.linalg.inv(vecs)
    z = -lam * h

    def assemble(diag):
        return vecs @ np.diag(diag) @ vinv

    prop = assemble(np.exp(z))
    ph1 = assemble(np.array([h * _phi1(zi) for zi in z]))
    ph2 = assemble(np.array([h * _phi2(zi) for zi in z]))
    return prop, ph1, ph2


def oracle_signal(pulse):
    """The pulse's scalar oracle as a Signal: called at each time, and not checked for a quiet start."""
    return Signal(lambda t: oracle_envelope(pulse, t))


def scalar_forcing(forcing):
    """The forcing as a function of one time: a Signal's own, a pulse's scalar oracle."""
    if isinstance(forcing, Signal):
        return forcing.f
    return lambda t: oracle_envelope(forcing, t)


def loop_expm(matrix, forcing, t_span, dt, samples):
    """The exponential integrator as a per-step loop: the oracle of the blocked solve."""
    f = scalar_forcing(forcing)
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n_steps
    stride = max(1, -(-n_steps // (samples - 1)))

    rec_t = [t0]
    rec_q = [0j]
    rec_c = [0j]
    prop, ph1, ph2 = _expm_propagators(matrix, h)
    state = np.zeros(2, dtype=complex)
    f_now = np.array([0.0, f(t0)], dtype=complex)
    for n in range(n_steps):
        f_next = np.array([0.0, f(t0 + (n + 1) * h)], dtype=complex)
        state = prop @ state + ph1 @ f_now + ph2 @ (f_next - f_now)
        f_now = f_next
        if (n + 1) % stride == 0 or n + 1 == n_steps:
            rec_t.append(t0 + (n + 1) * h)
            rec_q.append(state[0])
            rec_c.append(state[1])
    return ce.Trajectory(
        times=np.array(rec_t, dtype=float),
        q_plus=np.array(rec_q, dtype=complex),
        c_plus=np.array(rec_c, dtype=complex),
    )


def loop_rk4(matrix, forcing, t_span, dt, samples):
    """Classical RK4 as a per-step loop: the oracle of the blocked solve."""
    f = scalar_forcing(forcing)
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n_steps
    stride = max(1, -(-n_steps // (samples - 1)))

    rec_t = [t0]
    rec_q = [0j]
    rec_c = [0j]
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    q = 0j
    cc = 0j
    for n in range(n_steps):
        t = t0 + n * h
        f0 = f(t)
        fh = f(t + 0.5 * h)
        f1 = f(t + h)
        # k = -M V + F, unrolled for the 2x2 system
        k1q = -(a * q + b * cc)
        k1c = -(c * q + d * cc) + f0
        q2, c2 = q + 0.5 * h * k1q, cc + 0.5 * h * k1c
        k2q = -(a * q2 + b * c2)
        k2c = -(c * q2 + d * c2) + fh
        q3, c3 = q + 0.5 * h * k2q, cc + 0.5 * h * k2c
        k3q = -(a * q3 + b * c3)
        k3c = -(c * q3 + d * c3) + fh
        q4, c4 = q + h * k3q, cc + h * k3c
        k4q = -(a * q4 + b * c4)
        k4c = -(c * q4 + d * c4) + f1
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        cc = cc + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if (n + 1) % stride == 0 or n + 1 == n_steps:
            rec_t.append(t0 + (n + 1) * h)
            rec_q.append(q)
            rec_c.append(cc)

    return ce.Trajectory(
        times=np.array(rec_t, dtype=float),
        q_plus=np.array(rec_q, dtype=complex),
        c_plus=np.array(rec_c, dtype=complex),
    )


LOOPS = {METHOD_EXPM: loop_expm, METHOD_RK4: loop_rk4}


def assert_matches_loop(method, M, forcing, span, dt, samples):
    got = ce.integrate(M, forcing, span, dt, method=method, samples=samples)
    want = LOOPS[method](M, forcing, span, dt, samples)
    assert np.array_equal(got.times, want.times)
    for key in ("q_plus", "c_plus"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == complex
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    return got


def each_shape(method, matrix_5uw, shape):
    params, _, M = matrix_5uw
    w = kick_width(params)
    pulse = ce.PulseSpec(shape, 1.0, w, 25 * w)
    for samples in (257, 4000):  # below and above the 3000 steps
        assert_matches_loop(method, M, pulse, (0.0, 60 * w), w / 50, samples)


def callable_forcing(method, matrix_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)
    chirped = Signal(lambda t: pulse.envelope(t) * math.cos(0.3 * t / w))
    assert_matches_loop(method, M, chirped, (0.0, 60 * w), w / 50, 300)


def across_block_edges(method, M, n_steps):
    dt = 0.05 / M.spectral_radius
    t_end = n_steps * dt
    pulse = oracle_signal(ce.PulseSpec("sech", 1.0, t_end / 8, t_end / 2))  # not quiet at t = 0
    for samples in (2, 7, n_steps + 2):
        traj = assert_matches_loop(method, M, pulse, (0.0, t_end), dt, samples)
        assert traj.times[-1] == pytest.approx(t_end)
    assert len(traj.times) == n_steps + 1  # every step recorded at the largest samples


B = dynamics._BLOCK
BLOCK_EDGES = [1, 3, B - 1, B, B + 1, 5 * B + 7]

# Output strides: c steps, c the largest divisor of the stride up to _FOLD, are
# folded into one, and the last n_steps % c steps are taken singly.
F = dynamics._FOLD
# 1, 2, a prime at most F, a prime above it (no fold), F, a multiple of F, and
# one above B (4100 = 2^2 5^2 41, folding 10 steps)
FOLD_STRIDES = [1, 2, 13, 17, F, 3 * F, B + 4]


def fold_of(stride):
    return max(d for d in range(1, F + 1) if stride % d == 0)


def strided_run(stride, remainder):
    """(n_steps, samples) whose output stride is ``stride``, with n_steps % c == 0 or not."""
    m = max(3, 600 // stride)  # stride*m - e steps at m + 1 samples have this stride, 0 <= e < m
    n_steps = stride * m - (1 if remainder else 0)
    samples = m + 1
    assert -(-n_steps // (samples - 1)) == stride
    return n_steps, samples


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_expm_matches_loop_for_each_shape(matrix_5uw, shape):
    each_shape(METHOD_EXPM, matrix_5uw, shape)


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_rk4_matches_loop_for_each_shape(matrix_5uw, shape):
    each_shape(METHOD_RK4, matrix_5uw, shape)


def test_expm_matches_loop_for_callable_forcing(matrix_5uw):
    callable_forcing(METHOD_EXPM, matrix_5uw)


def test_rk4_matches_loop_for_callable_forcing(matrix_5uw):
    callable_forcing(METHOD_RK4, matrix_5uw)


@pytest.mark.parametrize("n_steps", BLOCK_EDGES)
def test_expm_matches_loop_across_block_edges(matrix_5uw, n_steps):
    across_block_edges(METHOD_EXPM, matrix_5uw[2], n_steps)


@pytest.mark.parametrize("n_steps", BLOCK_EDGES)
def test_rk4_matches_loop_across_block_edges(matrix_5uw, n_steps):
    across_block_edges(METHOD_RK4, matrix_5uw[2], n_steps)


@pytest.mark.parametrize("shape", PULSE_SHAPES)
@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_pulse_equals_its_scalar_oracle_across_block_edges(matrix_5uw, method, shape):
    # the same bytes whether a block samples the pulse's array envelope or calls
    # its envelope once per time, on either side of a block edge
    _, _, M = matrix_5uw
    dt = 0.05 / M.spectral_radius
    for n_steps in (B - 1, B, B + 1):
        t_end = n_steps * dt
        pulse = ce.PulseSpec(shape, 1.0, t_end / 60, t_end / 2)
        got = ce.integrate(M, pulse, (0.0, t_end), dt, method=method, samples=n_steps + 2)
        want = ce.integrate(M, Signal(pulse.envelope), (0.0, t_end), dt, method=method,
                            samples=n_steps + 2)
        for key in ("times", "q_plus", "c_plus"):
            assert np.array_equal(getattr(got, key), getattr(want, key))


@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_matches_loop_at_worst_conditioned_eigenbasis(ref, method):
    # 2.7 uW at delta = omega_m has the worst eigenvector matrix on a scan over
    # 0-500 uW x 0.5-1.5 omega_m: condition number 2.3e15, about 10 once its
    # rows are scaled to the q and c units
    params, _ = ref
    der = ce.derive(params, ce.DriveParams(pump_power=2.7e-6))
    M = ce.build_matrix(params.mirror_freq, params, der, steady_at(params, 2.7e-6))
    across_block_edges(method, M, 2 * B + 3)
    for remainder in (False, True):  # eight steps folded into one, with or without a 7-step tail
        n_steps, samples = strided_run(8, remainder)
        dt = 0.05 / M.spectral_radius
        pulse = oracle_signal(ce.PulseSpec("sech", 1.0, n_steps * dt / 8, n_steps * dt / 2))
        assert_matches_loop(method, M, pulse, (0.0, n_steps * dt), dt, samples)


@pytest.mark.parametrize("remainder", [False, True], ids=["whole", "tail"])
@pytest.mark.parametrize("stride", FOLD_STRIDES)
@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_matches_loop_at_each_stride(matrix_5uw, method, stride, remainder):
    _, _, M = matrix_5uw
    n_steps, samples = strided_run(stride, remainder)
    c = fold_of(stride)
    assert (n_steps % c != 0) == (remainder and c > 1)
    dt = 0.05 / M.spectral_radius
    t_end = n_steps * dt
    pulse = ce.PulseSpec("sech", 1.0, t_end / 60, t_end / 2)
    assert_matches_loop(method, M, pulse, (0.0, t_end), dt, samples)


@pytest.mark.parametrize("stride", [8, B + 4])
@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_forcing_sampled_once_at_every_time(matrix_5uw, method, stride):
    # folding skips states, never samples: t0 + k h/q, k = 0..q*n_steps, each once
    _, _, M = matrix_5uw
    n_steps, samples = strided_run(stride, remainder=True)
    t0, dt = 3e-6, 0.05 / M.spectral_radius
    t1 = t0 + n_steps * dt
    times = []

    def logged(t):
        times.append(t)
        return math.sin(t / dt)

    ce.integrate(M, Signal(logged), (t0, t1), dt, method=method, samples=samples)
    q = 2 if method == METHOD_RK4 else 1
    h = (t1 - t0) / n_steps
    # each once, and called in increasing time order
    assert times == [t0 + k / q * h for k in range(q * n_steps + 1)]


def bits(x):
    """The raw bits of a float64 or complex128 array: equal only if every sign of zero is too."""
    return np.ascontiguousarray(x).view(np.uint64)


def random_operand(rng, shape):
    """Signed values across 16 decades, a fifth of them zeros of either sign."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    return np.where(rng.random(shape) < 0.2, np.copysign(0.0, x), x)


def test_small_product_equals_apply_bit_for_bit():
    # _mul forms every term in one multiply and adds them as _apply does; one
    # column operands are where np.add.reduce, which may sum pairwise, differs
    rng = np.random.default_rng(25)
    for _ in range(3000):
        n, k, m = rng.integers(1, 11, 3)  # up to 10x10, a Van Loan matrix of 8 states
        if rng.random() < 0.4:
            m = 1
        a, b = random_operand(rng, (n, k)), random_operand(rng, (k, m))
        assert np.array_equal(bits(dynamics._mul(a, b)), bits(dynamics._apply(a, b)))


def fold_reference(p, w, c):
    """(P^c, K) step by step: K += P^(c-1-i) W over each step i's columns, every product by _apply."""
    pk = [np.eye(len(p)), p]
    while len(pk) < c + 1:
        pk.append(dynamics._apply(pk[-1], p))
    q = w.shape[1] - 1
    k = np.zeros((len(p), c * q + 1))
    for i in range(c):
        k[:, q * i : q * (i + 1) + 1] += dynamics._apply(pk[c - 1 - i], w)
    return pk[c], k


@pytest.mark.parametrize("c", [1, 2, 8, 13, 16])
@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_fold_equals_step_by_step_reference(matrix_5uw, method, c):
    _, _, M = matrix_5uw
    rule = dynamics._rk4_rule if method == METHOD_RK4 else dynamics._expm_rule
    rng = np.random.default_rng(c)
    w_random = random_operand(rng, (4, 3 if method == METHOD_RK4 else 2))
    w_random[:, 0] = -0.0  # a column of K with one term: added to zero, it is +0
    cases = [rule(M, r / M.spectral_radius) for r in (0.05, 3.0)]
    for p, w in [*cases, (random_operand(rng, (4, 4)), w_random)]:
        for got, want in zip(dynamics._fold(p, w, c), fold_reference(p, w, c)):
            assert np.array_equal(bits(got), bits(want))


# A real drive enters through one real column per sample; a complex one f
# integrates by linearity as V[Re f] + i V[Im f].
def block_edge_run(M):
    """(span, dt, samples): B + 1 steps, every state kept, so one sampling call ends at step B."""
    dt = 0.05 / M.spectral_radius
    return (0.0, (B + 1) * dt), dt, B + 3


def folded_run(M):
    """(span, dt, samples): eight steps folded into one, with a 7-step tail."""
    n_steps, samples = strided_run(8, True)
    dt = 0.05 / M.spectral_radius
    return (0.0, n_steps * dt), dt, samples


@pytest.mark.parametrize("run", [block_edge_run, folded_run], ids=["block-edge", "folded"])
@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_complex_drive_is_linear_in_its_parts(matrix_5uw, method, run):
    # the recipe V[Re f] + i V[Im f] against the step loop driven by the complex f itself
    _, _, M = matrix_5uw
    span, dt, samples = run(M)
    g = oracle_signal(ce.PulseSpec("sech", 1.0, span[1] / 8, span[1] / 2))
    h = oracle_signal(ce.PulseSpec("gaussian", 0.6, span[1] / 10, span[1] / 3))
    re = ce.integrate(M, g, span, dt, method=method, samples=samples)
    im = ce.integrate(M, h, span, dt, method=method, samples=samples)
    want = LOOPS[method](M, Signal(lambda t: g.f(t) + 1j * h.f(t)), span, dt, samples)
    assert np.array_equal(re.times, want.times)
    for key in ("q_plus", "c_plus"):
        a, b = getattr(re, key) + 1j * getattr(im, key), getattr(want, key)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def folded_call_edge_run(M):
    """(span, dt, samples): eight steps folded into one and a 7-step tail, 4799 steps in all,
    so the one folded block takes two sampling calls, the first ending at step B."""
    n_steps, samples = 8 * 600 - 1, 601
    assert fold_of(-(-n_steps // (samples - 1))) == 8 and n_steps > B
    dt = 0.05 / M.spectral_radius
    return (0.0, n_steps * dt), dt, samples


@pytest.mark.parametrize(
    "run", [block_edge_run, folded_run, folded_call_edge_run],
    ids=["block-edge", "folded", "folded-call-edge"],
)
@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_callable_drive_equals_pulse(matrix_5uw, method, run):
    # a pulse's envelope called once per time gives the pulse's bits, signs of zeros
    # too: the rectangle's drive is exact zeros on both sides of each block and call edge
    _, _, M = matrix_5uw
    span, dt, samples = run(M)
    t = span[1]
    for pulse in (ce.PulseSpec("sech", 1.0, t / 60, t / 2),
                  ce.PulseSpec("rectangle", 1.0, t / 30, 0.9 * t)):
        want = ce.integrate(M, pulse, span, dt, method=method, samples=samples)
        got = ce.integrate(M, Signal(pulse.envelope), span, dt, method=method, samples=samples)
        for key in ("times", "q_plus", "c_plus"):
            assert np.array_equal(bits(getattr(got, key)), bits(getattr(want, key)))


@pytest.mark.parametrize("step_radius", [3.0, 1000.0])
def test_expm_matches_loop_at_long_steps(matrix_5uw, step_radius):
    # h*rho(M) above 1 is where the Taylor step needs its scaling and squaring
    _, _, M = matrix_5uw
    dt = step_radius / M.spectral_radius
    pulse = oracle_signal(ce.PulseSpec("gaussian", 1.0, 10 * dt, 200 * dt))
    assert_matches_loop(METHOD_EXPM, M, pulse, (0.0, 400 * dt), dt, 401)


def _decimal_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def decimal_expm(a, j):
    """exp(a) at 40 digits: 40 Taylor terms of a/2^j, squared j times."""
    with localcontext() as ctx:
        ctx.prec = 40
        n = len(a)
        x = [[Decimal(v) / 2**j for v in row] for row in a.tolist()]
        e = term = [[Decimal(int(i == k)) for k in range(n)] for i in range(n)]
        for k in range(1, 40):
            term = [[v / k for v in row] for row in _decimal_matmul(term, x)]
            e = [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(e, term)]
        for _ in range(j):
            e = _decimal_matmul(e, e)
        return e


@pytest.mark.parametrize("s", [0, 1, 14, 21])
def test_expm_step_matches_decimal_exponential(matrix_5uw, s):
    # the step's P and W against exp of the same augmented matrix at 40 digits,
    # at h*rho = 0.75 * 2^s, delta = 0; squaring e^(A/2^s) itself, not e - I,
    # left P off by 1.4e-12 at s = 14 and 1.3e-10 at s = 21, about 2^s * eps
    params, st, _ = matrix_5uw
    M = ce.build_matrix(0.0, params, ce.derive(params, ce.reference_defaults()[1]), st)
    h = 0.75 * 2.0**s / M.spectral_radius
    assert math.frexp(h * M.spectral_radius)[1] == s
    m = M.as_array()
    z = np.empty((4, 4))  # real form: x0 -> (Re x0, Im x0), ...
    z[0::2, 0::2], z[0::2, 1::2], z[1::2, 0::2], z[1::2, 1::2] = m.real, -m.imag, m.imag, m.real
    a = np.zeros((6, 6))
    a[:4, :4] = -h * z
    a[2, 4] = h  # the drive enters Re c
    a[4, 5] = 1.0
    exact = decimal_expm(a, s + 8)
    want_p = np.array([[float(v) for v in row[:4]] for row in exact[:4]])
    want_w = np.array([[float(row[4] - row[5]), float(row[5])] for row in exact[:4]])
    p, w = dynamics._expm_rule(M, h)
    assert np.abs(p - want_p).max() <= 1e-14 * np.abs(want_p).max()
    assert (np.abs(w - want_w).max(axis=0) <= 1e-14 * np.abs(want_w).max(axis=0)).all()


def test_expm_matches_loop_at_zero_detuning(matrix_5uw):
    # at delta = 0, rho(M) = 9.2e11 1/s: the command line's expm step, a 64th of
    # the kick width, is h*rho = 1.1e4 (s = 14), and RK4 would need 2.7e9 steps
    params, st, _ = matrix_5uw
    der = ce.derive(params, ce.reference_defaults()[1])
    M = ce.build_matrix(0.0, params, der, st)
    w = kick_width(params)
    dt = w / 64
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)
    got = ce.integrate(M, pulse, (0.0, 80 * w), dt, method=METHOD_EXPM, samples=400)
    want = loop_expm(M, pulse, (0.0, 80 * w), dt, 400)
    assert np.array_equal(got.times, want.times)
    for key in ("q_plus", "c_plus"):
        a, b = getattr(got, key), getattr(want, key)
        assert np.all(np.isfinite(a))
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def refuse_linalg(monkeypatch):
    """Make every public np.linalg callable raise, for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called by the library")

    for name, obj in vars(np.linalg).items():
        if callable(obj) and not isinstance(obj, type) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_integrate_calls_no_linalg(matrix_5uw, monkeypatch, method):
    # the bytes must not depend on the LAPACK build: both steps come from
    # polynomials in -h*M, not from an eigendecomposition
    _, _, M = matrix_5uw
    pulse = ce.PulseSpec("sech", 1.0, 1e-6, 25e-6)
    want = ce.integrate(M, pulse, (0.0, 60e-6), 1e-8, method=method)
    refuse_linalg(monkeypatch)
    got = ce.integrate(M, pulse, (0.0, 60e-6), 1e-8, method=method)
    assert np.array_equal(got.q_plus, want.q_plus)
    assert np.array_equal(got.c_plus, want.c_plus)


def test_library_path_calls_no_linalg(ref, tmp_path, monkeypatch, capsys):
    # nor on LAPACK's eigensolver: build_matrix forms its eigenvalues in closed
    # form, so the matrix, its stability verdict and every command's bytes and
    # exit code are the same with np.linalg refused
    params, _ = ref

    def build(power):
        der = ce.derive(params, ce.DriveParams(pump_power=power))
        return ce.build_matrix(params.mirror_freq, params, der, steady_at(params, power))

    def verdict(power):
        with pytest.raises(ce.InstabilityError) as err:
            build(power)
        return str(err.value)

    runs = (["figure", "fig9", "--out-dir"], ["dynamics", "--out"],
            ["dynamics", "--power-uw", "2000", "--out"])

    def commands(root):
        out = []
        for i, argv in enumerate(runs):
            where = root / str(i)
            code = main([*argv, str(where / "x.csv" if argv[-1] == "--out" else where)])
            files = sorted(where.rglob("*")) if where.exists() else []
            err = capsys.readouterr().err.replace(str(root), "")
            out.append((code, err, [(f.name, f.read_bytes()) for f in files]))
        return out

    want = build(5e-6), verdict(2e-3), commands(tmp_path / "want")
    refuse_linalg(monkeypatch)
    assert (build(5e-6), verdict(2e-3), commands(tmp_path / "got")) == want
    assert [code for code, _, _ in want[2]] == [0, 0, 2]


@pytest.mark.parametrize("method", [METHOD_RK4, METHOD_EXPM])
def test_memory_does_not_grow_with_steps(matrix_5uw, method):
    _, _, M = matrix_5uw
    dt = 1e-9
    pulse = ce.PulseSpec("constant", 1.0, 1.0)

    def traced(n_steps, samples):
        """The number of states kept and the traced peak of integrating n_steps."""
        tracemalloc.start()
        try:
            traj = ce.integrate(M, pulse, (0.0, n_steps * dt), dt, method=method, samples=samples)
            return len(traj.times), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept, peak = traced(10**6, 64)
    assert kept == 64
    # one array of the 10^6 forcing samples alone would take 16 MB
    assert peak < 8 * 2**20
    if method == METHOD_RK4:
        # the widest sample matrix: stride 16 F folds F steps, 2 F + 1 rows of B
        # floats per block (1.1 MB), over three blocks
        n_steps, stride = 3 * F * B, 16 * F
        assert fold_of(stride) == F
        kept, peak = traced(n_steps, n_steps // stride + 1)
        assert kept == n_steps // stride + 1
        assert peak < 4 * 2**20


# --- displacement reconstruction ----------------------------------------------


def test_reconstruct_zero_forcing_gives_static_displacement(matrix_5uw, steady_5uw):
    params, _, M = matrix_5uw
    pulse = ce.PulseSpec("constant", 0.0, 1.0)
    traj = ce.integrate(M, pulse, (0.0, 1e-4), 1e-7, samples=32)
    traj = ce.reconstruct_displacement(traj, steady_5uw, M.delta)
    assert np.all(traj.q_total == steady_5uw.mirror_displacement)


def test_reconstruct_is_real_and_linear_in_scale(matrix_5uw, steady_5uw):
    params, _, M = matrix_5uw
    w = kick_width(params)
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)
    traj = ce.integrate(M, pulse, (0.0, 60 * w), 0.02 / M.spectral_radius, samples=512)
    one = ce.reconstruct_displacement(traj, steady_5uw, M.delta)
    loud = ce.PulseSpec("sech", 3.0, w, 25 * w)
    traj = ce.integrate(M, loud, (0.0, 60 * w), 0.02 / M.spectral_radius, samples=512)
    three = ce.reconstruct_displacement(traj, steady_5uw, M.delta)
    assert one.q_total.dtype == float
    assert np.isfinite(one.q_total).all()
    q0 = steady_5uw.mirror_displacement
    assert np.allclose(three.q_total - q0, 3.0 * (one.q_total - q0), rtol=0, atol=1e-25)


def test_kick_displaces_then_relaxes(matrix_5uw, steady_5uw):
    # envelope of the displacement rises during the pulse and decays after
    params, _, M = matrix_5uw
    w = kick_width(params)
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)
    traj = ce.integrate(M, pulse, (0.0, 80 * w), 0.02 / M.spectral_radius, samples=2048)
    env = np.abs(traj.q_plus)
    i_peak = env.argmax()
    t_peak = traj.times[i_peak]
    assert 25 * w - 5 * w < t_peak < 25 * w + 15 * w
    assert env[i_peak] > 10 * env[traj.times < 15 * w].max()
    late = traj.times > 60 * w
    assert env[late].max() < 0.5 * env[i_peak]


# --- the unlinearised equations (ROADMAP item 13) ------------------------------


def unlinearised_rk4(params, power, h, probe):
    """Classical RK4 of the equations both halves linearise, as a per-step loop.

        dc/dt = -(2k + i Delta) c - i g x c + eps_c + eps_p(t) e^{-i delta t}
        m (x'' + gamma_m x' + omega_m^2 x) = -hbar g (|c|^2 - |c0|^2),  x = q - q0

    from the probe-off fixed point c = c0, x = x' = 0.  ``probe[j]`` is the probe
    term eps_p(t) e^{-i delta t} at t = j*h/2, one column per run, so that runs at
    several drive scales step together as one state; ``h`` is one step, or one
    per column.  g, eps_c and c0 come from C_LIGHT and HBAR, not from the library.
    Returns c - c0, x and c0, the states after every step with the initial one first.
    """
    omega_c = 2.0 * math.pi * C_LIGHT / params.wavelength
    g = -omega_c / params.cavity_length
    eps_c = math.sqrt(2.0 * params.cavity_decay * power / (HBAR * omega_c))
    c0 = eps_c / (2.0 * params.cavity_decay + 1j * params.effective_detuning)
    n0 = c0.real**2 + c0.imag**2
    a = -(2.0 * params.cavity_decay + 1j * params.effective_detuning)
    gm, om2, force = params.mirror_damping, params.mirror_freq**2, HBAR * g / params.mirror_mass
    drive = eps_c + probe

    def rhs(c, x, v, p):
        return (a - 1j * g * x) * c + p, v, -gm * v - om2 * x - force * (c.real**2 + c.imag**2 - n0)

    c = np.full(probe.shape[1:], c0)
    x = np.zeros(probe.shape[1:])
    v = np.zeros(probe.shape[1:])
    cs, xs = [c], [x]
    for n in range(len(probe) // 2):
        p0, p1, p2 = drive[2 * n], drive[2 * n + 1], drive[2 * n + 2]
        k1 = rhs(c, x, v, p0)
        k2 = rhs(c + 0.5 * h * k1[0], x + 0.5 * h * k1[1], v + 0.5 * h * k1[2], p1)
        k3 = rhs(c + 0.5 * h * k2[0], x + 0.5 * h * k2[1], v + 0.5 * h * k2[2], p1)
        k4 = rhs(c + h * k3[0], x + h * k3[1], v + h * k3[2], p2)
        c, x, v = (y + (h / 6.0) * (s1 + 2.0 * (s2 + s3) + s4)
                   for y, s1, s2, s3, s4 in zip((c, x, v), k1, k2, k3, k4))
        cs.append(c)
        xs.append(x)
    return np.array(cs) - c0, np.array(xs), c0


def test_unlinearised_fixed_point(ref, steady_5uw):
    # with the probe off, (c0, x = 0) stays put, and c0 and the static force balance
    # q0 = -hbar g |c0|^2 / (m omega_m^2) are the library's steady state
    params, _ = ref
    dc, x, c0 = unlinearised_rk4(params, 5e-6, 1e-8, np.zeros((2001, 1), dtype=complex))
    assert np.abs(dc).max() <= 1e-12 * abs(c0)
    assert np.abs(x).max() <= 1e-12 * steady_5uw.mirror_displacement
    assert c0 == pytest.approx(steady_5uw.cavity_amp, rel=1e-15)
    g = -2.0 * math.pi * C_LIGHT / params.wavelength / params.cavity_length
    q0 = -HBAR * g * abs(c0) ** 2 / (params.mirror_mass * params.mirror_freq**2)
    assert q0 == pytest.approx(steady_5uw.mirror_displacement, rel=1e-15)


def test_unlinearised_cw_sideband_is_the_response(ref, steady_5uw):
    # a constant probe at s = 1e-3 of eps_c and at s/2, at three detunings, with
    # K = 64 and 128 steps per beat period, all 12 runs as one state.  After 44
    # periods the slowest mode (64051 1/s) is gone; the sideband is demodulated over
    # the next 4.  It has no s^2 term (second-order products beat at 0 and
    # +-2 delta), so per unit probe (4 y(s/2) - y(s))/3 leaves O(s^4), and RK4's
    # O(h^4) goes with (16 y(h) - y(2h))/15.  Measured against these settings:
    # halving both steps moves the result by up to 5.9e-7 relative, 70 periods
    # in place of 48 by 1.8e-8, halving both scales by 2.4e-12
    params, _ = ref
    om = params.mirror_freq
    xs = np.array([1.0, 0.999, 1.01])
    x, k, s = (a.ravel() for a in np.meshgrid(xs, [64.0, 128.0], [1.0, 0.5], indexing="ij"))
    amp = s * 1e-3 * ce.derive(params, ce.DriveParams(pump_power=5e-6)).drive_amplitude
    n = 48 * 128
    probe = amp * np.exp(-1j * np.pi * np.arange(2 * n + 1)[:, None] / k)
    dc, _, _ = unlinearised_rk4(params, 5e-6, 2.0 * np.pi / (x * om * k), probe)
    steps = np.arange(n - 4 * 128 + 1, n + 1)[:, None]
    y = ((dc[-4 * 128:] * np.exp(2j * np.pi * steps / k)).mean(axis=0) / amp).reshape(3, 2, 2)
    y = (4.0 * y[..., 1] - y[..., 0]) / 3.0
    y = (16.0 * y[:, 1] - y[:, 0]) / 15.0
    want = transmitted(xs * om, params, steady_5uw) / (2.0 * params.cavity_decay)
    assert (np.abs(y - want) <= 2e-6 * np.abs(want)).all()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_kick_matches_unlinearised_equations(ref, steady_5uw, tmp_path):
    # fig9's run as it ships (expm, 5,120 steps of width/64) against the linear limit
    # 4 x(s/2) - x(s) of the unlinearised equations at the same step, s = the kick's
    # 5 % of eps_c.  Measured: that limit is off by 1.0e-4 of its peak (from a third
    # scale, s/4) and moves by 1.1e-9 when the step is halved; x(s) and 2 x(s/2)
    # differ by 1.1 %.  The 2x2 engine is 75 % of the peak off
    params, _ = ref
    command, flags, _ = FIGURE_RUNS["fig9"][0]
    out = tmp_path / "fig9.csv"
    assert main([command, *flags, "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    w = kick_width(params)
    h = 80.0 * w / 5120
    t = np.arange(2 * 5120 + 1)[:, None] * (0.5 * h)
    amp = float(flags[flags.index("--pulse-amp") + 1]) * np.array([1.0, 0.5])
    probe = amp / np.cosh((t - 25.0 * w) / w) * np.exp(-1j * params.mirror_freq * t)
    _, x, _ = unlinearised_rk4(params, 5e-6, h, probe)
    linear = 4.0 * x[:, 1] - x[:, 0]
    steps = np.rint(rows[:, 0] / h).astype(int)
    assert np.array_equal(rows[:, 0], steps * h)
    engine = rows[:, 5] - steady_5uw.mirror_displacement
    assert np.abs(engine - linear[steps]).max() <= 3e-4 * np.abs(linear).max()
