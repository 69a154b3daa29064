"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; a failed criterion shows up as
an ordinary pytest failure.  Expected values marked as independent oracles
are computed inline from first principles (direct arithmetic on the model
definitions), never by calling the code path under test.
"""

import json
import math
import time

import numpy as np
import pytest

import cavity_eit as ce
from cavity_eit.cli import emit_figure_bundle
from cavity_eit.dynamics import METHOD_EXPM, METHOD_RK4
from cavity_eit.params import C_LIGHT, HBAR

from conftest import Signal, group_delay_fd, one_point_delays, steady_at, transmitted

SWEEP_UW = (0.2, 0.5, 1.0, 2.0, 5.0)


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _oracle_alpha(params, power):
    """Interaction strength hbar g^2 |c0|^2 by direct arithmetic on the definitions."""
    k, det = params.cavity_decay, params.effective_detuning
    oc = 2 * math.pi * C_LIGHT / params.wavelength
    return (HBAR * (oc / params.cavity_length) ** 2 * (2 * k * power / (HBAR * oc))
            / (4 * k**2 + det**2))


def test_criterion_01_empty_cavity_identity(ref):
    params, _ = ref
    st0 = steady_at(params, 0.0)
    t0 = time.perf_counter()
    for _ in range(100):
        et = transmitted(params.effective_detuning, params, st0)
    elapsed = (time.perf_counter() - t0) / 100
    assert abs(et - (1.0 + 0.0j)) < 1e-12
    assert abs(et - 1.0) ** 2 < 1e-12  # R = |eps_T - 1|^2
    assert elapsed < 1e-3
    _report(1, f"eps_T(Delta)=1 to {abs(et - 1):.1e}, R=0, {elapsed * 1e6:.1f} us/point")


def test_criterion_02_transparency_dip(ref, steady_5uw):
    params, drive = ref
    om = params.mirror_freq
    # independent single-expression oracle, direct arithmetic only
    m, gm, k, det = (
        params.mirror_mass,
        params.mirror_damping,
        params.cavity_decay,
        params.effective_detuning,
    )
    alpha = _oracle_alpha(params, 5e-6)
    t_oracle = abs(
        2 * k
        * (m * (om**2 - om**2 + 1j * gm * om) * (2 * k - 1j * (det + om)) - 1j * alpha)
        / (m * (om**2 - om**2 + 1j * gm * om) * ((2 * k - 1j * om) ** 2 + det**2) + 2 * det * alpha)
    ) ** 2

    t0 = time.perf_counter()
    table = ce.spectrum(np.linspace(0.5 * om, 1.5 * om, 2001), params, steady_5uw)
    elapsed = time.perf_counter() - t0
    i_res = int(np.argmin(np.abs(table.delta - om)))
    t_res = table.transmission[i_res]
    assert t_res == pytest.approx(t_oracle, rel=0.20)
    assert t_res == pytest.approx(0.010, rel=0.20)

    st0 = steady_at(params, 0.0)
    t_empty = abs(transmitted(om, params, st0)) ** 2
    assert abs(t_empty - 1.0) < 1e-12
    assert elapsed < 1.0
    _report(2, f"T(om_m)={t_res:.4f} (oracle {t_oracle:.4f}), empty-cavity T=1, "
               f"2001-point spectrum in {elapsed * 1e3:.0f} ms")


def test_criterion_03a_transmission_delay_sweep(ref):
    params, _ = ref
    points = ce.power_sweep([p * 1e-6 for p in SWEEP_UW], params.mirror_freq, params)
    taus = [p.tau_t for p in points]
    assert all(t > 0 for t in taus), taus
    assert all(a > b for a, b in zip(taus, taus[1:])), taus
    assert 1e-4 <= max(taus) <= 1e-1, max(taus)
    _report("3a", "tau_T positive and decreasing over the sweep, "
                  f"max {max(taus) * 1e3:.2f} ms")


def test_criterion_03b_reflection_advance_sweep(ref):
    # Near delta = Delta = omega_m the reflected amplitude of this model is
    # eps_R ~ -C / (1 + C - 2i(delta - omega_m)/gamma_m), with cooperativity
    # C = alpha / (2 m omega_m kappa gamma_m), so the reflected port is
    # delayed, not advanced, at the probe resonance: tau_R = 2/((1+C) gamma_m)
    # = 1/Gamma > 0 at every pump power.  The response formula is the exact
    # solution of the linearised equations of motion
    # (test_response.py::test_c_plus_solves_linearised_equations), and the
    # same sign convention gives the passive empty cavity its positive delay
    # 1/(2 kappa).  The reported advance of about -2 s therefore is not
    # asserted here; it is listed next to the computed delays in
    # comparison_report.json (criterion 10).  Oracle values are direct
    # arithmetic on the model definitions, as in criteria 02 and 04.
    params, _ = ref
    m, om, gm, k = (
        params.mirror_mass,
        params.mirror_freq,
        params.mirror_damping,
        params.cavity_decay,
    )
    points = ce.power_sweep([p * 1e-6 for p in SWEEP_UW], om, params)
    taus_r = [p.tau_r for p in points]
    for p_uw, tau_r in zip(SWEEP_UW, taus_r):
        gamma = gm / 2 + _oracle_alpha(params, p_uw * 1e-6) / (4 * m * om * k)
        assert tau_r > 0, (p_uw, tau_r)
        assert tau_r == pytest.approx(1.0 / gamma, rel=1e-4), (p_uw, tau_r)
    assert all(a > b for a, b in zip(taus_r, taus_r[1:])), taus_r
    _report("3b", "tau_R = 1/Gamma at the probe resonance over the sweep, "
                  f"{taus_r[0] * 1e3:.3f} ms down to {taus_r[-1] * 1e6:.1f} us")


def test_criterion_04_width_linearity(ref):
    params, _ = ref
    powers = np.linspace(0.1e-6, 5e-6, 20)
    widths = np.array([pt.gamma_width for pt in ce.power_sweep(powers, params.mirror_freq, params)])
    slope, intercept = np.polyfit(powers, widths, 1)
    resid = widths - (slope * powers + intercept)
    rel_resid = np.abs(resid).max() / np.abs(widths).max()
    assert rel_resid < 1e-10
    assert intercept == pytest.approx(params.mirror_damping / 2, rel=1e-10)

    # independent arithmetic oracle for the 5 uW width
    oracle = params.mirror_damping / 2 + _oracle_alpha(params, 5e-6) / (
        4 * params.mirror_mass * params.mirror_freq * params.cavity_decay
    )
    got = ce.power_sweep([5e-6], params.mirror_freq, params)[0].gamma_width
    assert got == pytest.approx(oracle, rel=0.10)
    assert got == pytest.approx(4.0e4, rel=0.10)
    _report(4, f"Gamma affine in power (residual {rel_resid:.1e}), "
               f"intercept gamma_m/2, Gamma(5uW)={got:.4e} rad/s")


def test_criterion_05_derivative_cross_check(ref):
    params, _ = ref
    grid = np.linspace(0.5, 1.5, 101) * params.mirror_freq
    t0 = time.perf_counter()
    checked = 0
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
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, f"analytic vs finite-difference delays agree to 1e-6 at "
               f"{checked} points in {elapsed * 1e3:.0f} ms")


def test_criterion_06_constant_forcing_steady_state(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    M = ce.build_matrix(params.mirror_freq, params, der, steady_5uw)
    target = np.linalg.solve(M.as_array(), [0.0, 1.0])
    pulse = ce.PulseSpec("constant", 1.0, 1.0)

    def final_error(dt_factor, relax_times):
        traj = ce.integrate(
            M, pulse, (0.0, relax_times / M.slowest_rate),
            dt_factor / M.spectral_radius, method=METHOD_RK4, samples=8,
        )
        final = np.array([traj.q_plus[-1], traj.c_plus[-1]])
        return (np.abs(final - target) / np.abs(target)).max()

    coarse = final_error(0.1, 10.0)
    tight = final_error(0.015, 20.0)
    assert coarse < 1e-3
    assert tight < 1e-6
    _report(6, f"V -> inv(M) F: rel err {coarse:.1e} (10 relaxation times), "
               f"{tight:.1e} (tighter step)")


def test_criterion_07_rk4_convergence_order(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    M = ce.build_matrix(params.mirror_freq, params, der, steady_5uw)
    w = 0.1 * 2 * math.pi / params.mirror_freq
    span = (0.0, 45 * w)
    pulse = ce.PulseSpec("sech", 1.0, w, 25 * w)

    def states(method, dt):
        t = ce.integrate(M, pulse, span, dt, method=method, samples=65)
        return np.stack([t.q_plus, t.c_plus], axis=1), t.times

    dt0 = (span[1] - span[0]) / 256
    # reference: exponential integrator, Richardson-extrapolated in step
    r1, t1 = states(METHOD_EXPM, dt0 / 64)
    r2, t2 = states(METHOD_EXPM, dt0 / 128)
    assert np.array_equal(t1, t2)
    ref_states = (4.0 * r2 - r1) / 3.0
    scale = np.abs(ref_states).max()

    errs = []
    for k in range(4):
        sol, ts = states(METHOD_RK4, dt0 / 2**k)
        assert np.array_equal(ts, t1)
        errs.append(np.abs(sol - ref_states).max() / scale)
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
    _report(7, f"error ratios per halving: {[f'{r:.2f}' for r in ratios]}")


def test_criterion_08_linearity_suite(ref, steady_5uw):
    params, drive = ref
    der = ce.derive(params, drive)
    M = ce.build_matrix(params.mirror_freq, params, der, steady_5uw)
    w = 0.1 * 2 * math.pi / params.mirror_freq
    dt = 0.02 / M.spectral_radius
    span = (0.0, 60 * w)

    one = ce.integrate(M, ce.PulseSpec("sech", 1.0, w, 25 * w), span, dt, samples=128)
    two = ce.integrate(M, ce.PulseSpec("sech", 2.0, w, 25 * w), span, dt, samples=128)
    for a, b in ((one.q_plus, two.q_plus), (one.c_plus, two.c_plus)):
        scale = np.abs(b).max()
        assert np.abs(b - 2.0 * a).max() <= 1e-10 * scale

    p1 = ce.PulseSpec("sech", 1.0, w, 25 * w)
    p2 = ce.PulseSpec("gaussian", 0.7, 2 * w, 30 * w)
    s1 = ce.integrate(M, p1, span, dt, samples=128)
    s2 = ce.integrate(M, Signal(p2.envelope), span, dt, samples=128)
    s12 = ce.integrate(M, Signal(lambda t: p1.envelope(t) + p2.envelope(t)), span, dt, samples=128)
    for a, b, c in ((s1.q_plus, s2.q_plus, s12.q_plus), (s1.c_plus, s2.c_plus, s12.c_plus)):
        scale = np.abs(c).max()
        assert np.abs(a + b - c).max() <= 1e-10 * scale
    _report(8, "amplitude doubling and two-pulse superposition hold to 1e-10")


def test_criterion_09_frequency_time_consistency(ref):
    params, _ = ref
    om = params.mirror_freq
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(10):
        delta = float(om * rng.uniform(0.9, 1.1))
        power = float(rng.uniform(1.0, 5.0) * 1e-6)
        drive = ce.DriveParams(pump_power=power)
        st = ce.solve_steady(params, ce.derive(params, drive))
        M = ce.build_matrix(delta, params, ce.derive(params, drive), st)
        t_end = 40.0 / M.slowest_rate
        traj = ce.integrate(
            M, ce.PulseSpec("constant", 1.0, 1.0), (0.0, t_end), t_end / 4000,
            method=METHOD_EXPM, samples=8,
        )
        got = traj.c_plus[-1]
        want = transmitted(delta, params, st) / (2 * params.cavity_decay)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6
    _report(9, f"time-domain steady state matches the response formula, "
               f"worst rel {worst:.1e} over 10 random points")


def test_criterion_10_comparison_report(ref, tmp_path):
    # scalars that exist only as published figure readings are documented in
    # a machine-readable report instead of being asserted as exact numbers
    files = emit_figure_bundle("fig5", tmp_path)
    report_path = tmp_path / "comparison_report.json"
    assert report_path in files
    report = json.loads(report_path.read_text())
    required = {
        "empty_cavity_transmission_delay_s",
        "transmission_delay_s_at_probe_resonance",
        "reflection_delay_s_at_probe_resonance",
        "transparency_dip_transmission_at_5uW",
        "transparency_width_rad_s_at_5uW",
        "mechanical_quality_factor",
    }
    assert required <= set(report)

    params, _ = ref
    empty = ce.power_sweep([0.0], params.mirror_freq, params)[0].tau_t
    entry = report["empty_cavity_transmission_delay_s"]
    assert entry["computed"] == empty
    assert entry["reference_reported"] == 1.48e-6
    # computed transmission delays in the report match the library sweep
    sweep = ce.power_sweep([p * 1e-6 for p in SWEEP_UW], params.mirror_freq, params)
    reported = report["transmission_delay_s_at_probe_resonance"]["computed"]
    for point in sweep:
        assert reported[f"{point.power * 1e6:.1f}uW"] == point.tau_t
    _report(10, "comparison report written with computed vs reported scalars")
