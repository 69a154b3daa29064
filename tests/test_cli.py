import hashlib
import json
import math

import numpy as np
import pytest

import cavity_eit as ce
from cavity_eit.cli import (
    DYNAMICS_HEADER,
    FIGURE_IDS,
    FIGURE_RUNS,
    SPECTRUM_HEADER,
    SWEEP_HEADER,
    emit_figure_bundle,
    main,
)


def run(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float("nan") if tok == "NaN" else float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_steady_state_json(tmp_path, capsys):
    out = tmp_path / "ss.json"
    assert run("steady-state", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"c0_re", "c0_im", "photon_number", "q0_m", "alpha_si"}
    params, drive = ce.reference_defaults()
    st = ce.solve_steady(params, ce.derive(params, drive))
    assert doc["photon_number"] == st.photon_number
    assert doc["alpha_si"] == st.alpha
    assert doc["c0_re"] == st.cavity_amp.real


def test_steady_state_zero_power(tmp_path):
    out = tmp_path / "ss.json"
    assert run("steady-state", "--power-uw", "0", "--out", str(out)) == 0
    assert json.loads(out.read_text())["photon_number"] == 0.0


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--power-uw", "5", "--grid-n", "501", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert ",".join(header) == SPECTRUM_HEADER
    assert len(rows) == 501
    # transmission minimum sits near the mirror frequency
    t_col = header.index("T")
    x_col = header.index("delta_over_omega_m")
    i_min = min(range(len(rows)), key=lambda i: rows[i][t_col])
    assert abs(rows[i_min][x_col] - 1.0) < 0.02


def test_spectrum_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("spectrum", "--grid-n", "301", "--out", str(a)) == 0
    assert run("spectrum", "--grid-n", "301", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--grid-n", "11", "--out", str(out)) == 0
    params, drive = ce.reference_defaults()
    st = ce.solve_steady(params, ce.derive(params, drive))
    grid = np.linspace(0.5 * params.mirror_freq, 1.5 * params.mirror_freq, 11)
    table = ce.spectrum(grid, params, st)
    _, rows = read_csv(out)
    for i, row in enumerate(rows):
        assert row[0] == table.delta[i]  # 17 significant digits: lossless
        assert row[4] == table.eps_t[i].real


def test_width_sweep_affine_and_nan(tmp_path):
    out = tmp_path / "w.csv"
    assert run("width-sweep", "--powers-uw", "0,1,2,3,4,5", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert ",".join(header) == SWEEP_HEADER
    assert math.isnan(rows[0][2])  # reflected delay undefined at zero power
    text = out.read_text()
    assert "NaN" in text
    gammas = np.array([r[3] for r in rows])
    powers = np.array([r[0] for r in rows])
    fit = np.polyfit(powers, gammas, 1)
    assert np.abs(gammas - np.polyval(fit, powers)).max() < 1e-10 * gammas.max()


def test_delay_sweep_default_grid(tmp_path):
    out = tmp_path / "d.csv"
    assert run("delay-sweep", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 20
    taus = [r[1] for r in rows]
    assert all(t > 0 for t in taus)
    assert taus == sorted(taus, reverse=True)


def test_delay_sweep_single_undefined_point_exits_2(tmp_path):
    # at zero power and resonance the reflected amplitude vanishes;
    # a single-point request with an undefined delay is a numerical error
    out = tmp_path / "d.csv"
    assert run("delay-sweep", "--powers-uw", "0", "--out", str(out)) == 2
    assert not out.exists()


def test_delay_sweep_single_defined_point_ok(tmp_path):
    out = tmp_path / "d.csv"
    assert run("delay-sweep", "--powers-uw", "1", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1 and rows[0][1] > 0
    # off resonance the delays are much smaller but still defined
    off = tmp_path / "off.csv"
    assert run("delay-sweep", "--powers-uw", "1", "--delta-over-omega-m", "0.8",
               "--out", str(off)) == 0
    _, off_rows = read_csv(off)
    assert 0 < off_rows[0][1] < rows[0][1] / 10


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"pump_power_uw": 1.0}))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run("steady-state", "--config", str(cfg), "--out", str(out1)) == 0
    # flag overrides the file value
    assert run("steady-state", "--config", str(cfg), "--power-uw", "4.0", "--out", str(out2)) == 0
    n1 = json.loads(out1.read_text())["photon_number"]
    n2 = json.loads(out2.read_text())["photon_number"]
    assert n2 == pytest.approx(4 * n1, rel=1e-13)


def test_validation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mirror_mass": -1.0}))
    assert run("steady-state", "--config", str(cfg)) == 1
    assert "mirror_mass" in capsys.readouterr().err
    cfg.write_text(json.dumps({"mirror_masss": 1.0}))
    assert run("steady-state", "--config", str(cfg)) == 1
    assert "mirror_masss" in capsys.readouterr().err


def test_numerical_exit_code_for_instability(tmp_path, capsys):
    # megawatt-scale pumping drives the sideband matrix unstable
    assert run("dynamics", "--power-uw", "2000", "--out", str(tmp_path / "x.csv")) == 2
    assert "eigenvalue" in capsys.readouterr().err


def test_dynamics_csv(tmp_path):
    out = tmp_path / "dyn.csv"
    assert run("dynamics", "--samples", "200", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert ",".join(header) == DYNAMICS_HEADER
    assert 2 <= len(rows) <= 201
    assert all(len(r) == 6 for r in rows)
    # displacement column is the static value before the pulse arrives
    params, drive = ce.reference_defaults()
    st = ce.solve_steady(params, ce.derive(params, drive))
    assert rows[0][5] == pytest.approx(st.mirror_displacement, rel=1e-12)


def test_dynamics_rejects_oversized_step(tmp_path, capsys):
    assert run("dynamics", "--dt", "1.0", "--out", str(tmp_path / "x.csv")) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--t-end", "inf"],
        ["--t-start=-inf"],
        ["--dt", "inf"],
        ["--pulse-width-s", "inf"],
        ["--pulse-amp", "inf"],
        ["--pulse-center-s", "nan"],
    ],
)
def test_dynamics_rejects_non_finite_inputs(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    assert run("dynamics", *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["dynamics", "delay-sweep", "width-sweep"])
def test_non_finite_detuning_rejected(tmp_path, capsys, command, value):
    out = tmp_path / "x.csv"
    assert run(command, "--delta-over-omega-m", value, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: probe detuning must be finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_dynamics_expm_matches_rk4(tmp_path):
    kick = FIGURE_RUNS["fig9"][0][1]
    assert run("dynamics", *kick, "--out", str(tmp_path / "rk4.csv")) == 0
    assert run("dynamics", *kick, "--method", "expm", "--out", str(tmp_path / "expm.csv")) == 0
    rk4 = np.loadtxt(tmp_path / "rk4.csv", delimiter=",", skiprows=1)
    expm = np.loadtxt(tmp_path / "expm.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rk4[:, 0], expm[:, 0])
    # expm interpolates the forcing linearly across a step, an O(dt^2) error:
    # at the default step the two differ by 1.0e-6 (q_plus) and 5.5e-6 (c_plus)
    # of the peak, and by a quarter of that at half the step
    for re_col in (1, 3):  # q_plus, c_plus
        a = rk4[:, re_col] + 1j * rk4[:, re_col + 1]
        b = expm[:, re_col] + 1j * expm[:, re_col + 1]
        assert np.abs(a - b).max() <= 1e-5 * np.abs(a).max()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("no-such-command") == 1
    assert run() == 1
    assert run("--help") == 0
    assert run("spectrum", "--grid-n", "0") == 1
    assert run("steady-state", "--config", str(tmp_path / "missing.json")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("steady-state", "--config", str(bad)) == 1
    assert "JSON" in capsys.readouterr().err


# --- figure bundles -------------------------------------------------------------


def test_fig3_bundle_uses_1uw(tmp_path):
    files = emit_figure_bundle("fig3", tmp_path)
    names = {f.name for f in files}
    assert {"fig3_spectrum_1uw.csv", "fig3_phase_unwrapped.csv",
            "fig3_config.json", "comparison_report.json"} <= names
    sidecar = json.loads((tmp_path / "fig3_config.json").read_text())
    assert sidecar["runs"][0]["params"]["pump_power"] == 1e-6


def test_fig6_fig7_emit_both_powers(tmp_path):
    emit_figure_bundle("fig7", tmp_path)
    assert (tmp_path / "fig7_spectrum_0uw.csv").exists()
    assert (tmp_path / "fig7_spectrum_5uw.csv").exists()
    sidecar = json.loads((tmp_path / "fig7_config.json").read_text())
    powers = [r["params"]["pump_power"] for r in sidecar["runs"]]
    assert powers == [0.0, 5e-6]


def test_fig10_bundle_resonant_settings(tmp_path):
    emit_figure_bundle("fig10", tmp_path)
    sidecar = json.loads((tmp_path / "fig10_config.json").read_text())
    run_cfg = sidecar["runs"][0]
    assert run_cfg["delta_over_omega_m"] == 1.0
    params = run_cfg["params"]
    assert params["effective_detuning"] == params["mirror_freq"]
    # probe drive is weak relative to the pump but strong enough that the
    # displacement excursion is visible against the static shift
    ref_params, drive = ce.reference_defaults()
    eps_c = ce.derive(ref_params, drive).drive_amplitude
    assert run_cfg["pulse"]["amplitude"] == pytest.approx(0.05 * eps_c)
    _, rows = read_csv(tmp_path / "fig10_dynamics.csv")
    q_tot = np.array([r[5] for r in rows])
    st = ce.solve_steady(ref_params, ce.derive(ref_params, drive))
    q0 = st.mirror_displacement
    assert np.abs(q_tot - q0).max() > 0.1 * q0  # the kick is visible
    assert np.abs(q_tot[0] - q0) < 1e-6 * q0  # and absent before the pulse


def test_figure_id_validated(tmp_path):
    with pytest.raises(ce.ParameterError, match="fig"):
        emit_figure_bundle("fig11", tmp_path)


def test_comparison_report_contents(tmp_path):
    emit_figure_bundle("fig4", tmp_path)
    report = json.loads((tmp_path / "comparison_report.json").read_text())
    assert report["empty_cavity_transmission_delay_s"]["reference_reported"] == 1.48e-6
    params, _ = ce.reference_defaults()
    st0 = ce.solve_steady(params, ce.derive(params, ce.DriveParams(pump_power=0.0)))
    computed = ce.group_delay_analytic(params.mirror_freq, params, st0).tau_t
    assert report["empty_cavity_transmission_delay_s"]["computed"] == computed
    # the reflected-delay discrepancy is documented, not asserted away
    refl = report["reflection_delay_s_at_probe_resonance"]
    assert refl["reference_reported"] == -2.0
    assert all(v > 0 for v in refl["computed"].values())
    assert "note" in refl


# SHA-256 of every file of every bundle.  Any change here is a change of
# output bytes and must be deliberate.
BUNDLE_SHA256 = {
    "fig2/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig2/fig2_config.json": "cdb18e04bcdf55ab992f382dae1d83d976e6a3f94214800082ca9f2f9e8f2304",
    "fig2/fig2_spectrum_5uw.csv": "28e02f850e6b74f746936782126ae4b2d2097414554bfd2aeea6d31a0ceba67c",
    "fig3/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig3/fig3_config.json": "d952d32a679561d5e757f4a53dacc6bef8f01872261f820a083ec1063e3cbaee",
    "fig3/fig3_phase_unwrapped.csv": "e60132bfb9132af15ef7b58655931c7e5b6f082d7c713b38312eff91e29f4d93",
    "fig3/fig3_spectrum_1uw.csv": "7176aa4283444833995e0c37e06fc584d6f67f43593c38012c05a873eea3b194",
    "fig4/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig4/fig4_config.json": "4d2571ee9ed6aad6cbd8e884f05443f8276df0a8ad25450349790709ee5dd74c",
    "fig4/fig4_delay_sweep.csv": "28683cfc7b9f3868c07acb90b34470b1cbfda16c91c71cf91a5ed4a5ee0c228f",
    "fig5/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig5/fig5_config.json": "80805f719f9f9b8d8392c1b1b608b55728c099e13bd08f343e782d9bf2b1f497",
    "fig5/fig5_delay_sweep.csv": "28683cfc7b9f3868c07acb90b34470b1cbfda16c91c71cf91a5ed4a5ee0c228f",
    "fig6/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig6/fig6_config.json": "bad3b11e4ceec5fd90253918975eae2c0283aeb7ec1bb536365fa61c0ea2618c",
    "fig6/fig6_spectrum_0uw.csv": "857760f4d299b84657fd6295f6226fdc4b69cf41f814eb2f3350a6d0ff0d000b",
    "fig6/fig6_spectrum_5uw.csv": "28e02f850e6b74f746936782126ae4b2d2097414554bfd2aeea6d31a0ceba67c",
    "fig7/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig7/fig7_config.json": "1ee8f238e1aa41280e625fef61666ebbf2764152105fa62013519c9b3dee2e26",
    "fig7/fig7_spectrum_0uw.csv": "857760f4d299b84657fd6295f6226fdc4b69cf41f814eb2f3350a6d0ff0d000b",
    "fig7/fig7_spectrum_5uw.csv": "28e02f850e6b74f746936782126ae4b2d2097414554bfd2aeea6d31a0ceba67c",
    "fig8/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig8/fig8_config.json": "a0cbbbe87e0c166032f277cd752b5c0cf244add5fb3c2fa3d09e6a71555a1341",
    "fig8/fig8_width_sweep.csv": "7a124f7aaecf94f45ae77561464240ef887148e392327be5135cdb46aaff013a",
    "fig9/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig9/fig9_config.json": "45decc788e89fc3c6d8687ad092ab25ac9a036645781c04e9b96976d68c46e31",
    "fig9/fig9_dynamics.csv": "49ec34337f6cc940427ddc581a4d7d491837256459eb08fbaf4073a26d0d7e3d",
    "fig10/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig10/fig10_config.json": "5785479f6c20436307e16e776d6506ebc5aaddca9c75363ff68f49da0e9ac9db",
    "fig10/fig10_dynamics.csv": "49ec34337f6cc940427ddc581a4d7d491837256459eb08fbaf4073a26d0d7e3d",
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    for figure_id in FIGURE_IDS:
        emit_figure_bundle(figure_id, root / figure_id)
    return root


def test_figure_bundle_hashes(bundles):
    got = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(bundles.glob("*/*"))
    }
    assert got == BUNDLE_SHA256


def _replay_flags(run_cfg):
    """The flags a sidecar run records, as command-line arguments."""
    command = run_cfg["command"]
    if command == "spectrum":
        grid = run_cfg["grid"]
        return ["--grid-min", repr(grid["min"]), "--grid-max", repr(grid["max"]),
                "--grid-n", str(grid["n"])]
    if command in ("delay-sweep", "width-sweep"):
        return ["--powers-uw", ",".join(map(repr, run_cfg["powers_uw"])),
                "--delta-over-omega-m", repr(run_cfg["delta_over_omega_m"])]
    assert command == "dynamics"
    pulse = run_cfg["pulse"]
    t0, t1 = run_cfg["t_span_s"]
    return ["--pulse-shape", pulse["shape"], "--pulse-amp", repr(pulse["amplitude"]),
            "--pulse-width-s", repr(pulse["width_s"]),
            "--pulse-center-s", repr(pulse["center_s"]),
            "--t-start", repr(t0), "--t-end", repr(t1), "--dt", repr(run_cfg["dt_s"]),
            "--delta-over-omega-m", repr(run_cfg["delta_over_omega_m"])]


# every command run of every bundle; phase-unwrap is a post-processing step
# of the fig3 spectrum, covered by the hashes above
CLI_RUNS = [
    (figure_id, name)
    for figure_id, runs in FIGURE_RUNS.items()
    for command, _, name in runs
    if command != "phase-unwrap"
]


@pytest.mark.parametrize("figure_id,output", CLI_RUNS, ids=[name for _, name in CLI_RUNS])
def test_sidecar_round_trip(bundles, tmp_path, figure_id, output):
    # a sidecar run, its params reloaded through --config and its recorded
    # flags passed back, reproduces the bundle CSV byte for byte
    sidecar = json.loads((bundles / figure_id / f"{figure_id}_config.json").read_text())
    (run_cfg,) = [r for r in sidecar["runs"] if r["output"] == output]
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(run_cfg["params"]))
    replay = tmp_path / "replay.csv"
    argv = [run_cfg["command"], "--config", str(cfg_path), *_replay_flags(run_cfg),
            "--out", str(replay)]
    assert run(*argv) == 0
    assert replay.read_bytes() == (bundles / figure_id / output).read_bytes()


def test_cli_figure_command(tmp_path):
    assert run("figure", "fig8", "--out-dir", str(tmp_path / "f8")) == 0
    header, rows = read_csv(tmp_path / "f8" / "fig8_width_sweep.csv")
    assert ",".join(header) == SWEEP_HEADER
    assert len(rows) == 20
