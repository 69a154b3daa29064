import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cavity_eit as ce
from cavity_eit.cli import (
    DYNAMICS_HEADER,
    FIGURE_RUNS,
    SPECTRUM_HEADER,
    SWEEP_HEADER,
    _BLOCK_ROWS,
    _E_MAX,
    _E_MIN,
    _build_parser,
    _csv,
    _emit,
    _format_tables,
    _phase_unwrap,
    emit_figure_bundle,
    main,
)
from cavity_eit.params import _param_dict, load_params

from conftest import steady_at, transmitted


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


def test_spectrum_deterministic_bytes(tmp_path, capfdbinary):
    # 1500 rows are three blocks: stdout takes the chunks a file takes, the same bytes
    assert 2 * _BLOCK_ROWS < 1500 <= 3 * _BLOCK_ROWS
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("spectrum", "--grid-n", "1500", "--out", str(a)) == 0
    assert run("spectrum", "--grid-n", "1500", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capfdbinary.readouterr()
    assert run("spectrum", "--grid-n", "1500", "--out", "-") == 0
    assert capfdbinary.readouterr().out == a.read_bytes()


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


def oracle_csv(header: str, *columns) -> str:
    """The header, then one row per index of the equal-length columns."""
    template = ",".join(["%.16e"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    # %e prints every NaN, sign bit or not, as "nan"
    return header + "\n" + "".join(map(template.__mod__, rows)).replace("nan", "NaN")


def random_doubles(n, seed=20121024):
    """n doubles from uniform random 64-bit patterns: every exponent, subnormals, inf and NaN."""
    return np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def csv_bytes(header: str, *columns) -> bytes:
    """All of _csv's chunks, joined."""
    return b"".join(_csv(header, *columns))


def assert_csv_matches_oracle(values, n_columns):
    table = np.asarray(values, dtype=float).reshape(-1, n_columns)
    assert csv_bytes("h", *table.T) == oracle_csv("h", *table.T).encode()


def test_csv_matches_template_oracle():
    assert_csv_matches_oracle(random_doubles(10**6), 8)

    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_csv_matches_oracle([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)], 1)

    # the largest doubles below a decade edge, where 17-digit rounding carries
    edges = np.array([9.9999999999999995e16, 9.9999999999999995e-5, 0.99999999999999995,
                      99999999999999995.0, 9.999999999999999e22, 9.9999999999999999e307])
    assert_csv_matches_oracle([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)], 3)

    # exact ties, rounded half to even: v = M / 2^(17 - E) in [10^E, 10^(E+1)) with
    # M odd gives v * 10^(16 - E) = M * 5^(16 - E) / 2
    rng = np.random.default_rng(7)
    ties = []
    for e10 in range(16):
        lo = 10**e10 * 2 ** (17 - e10)
        hi = min(10 * lo, 2**53)
        ties.append((rng.integers(lo // 2, hi // 2, size=4000) * 2 + 1) / 2.0 ** (17 - e10))
    ties = np.concatenate(ties)
    assert_csv_matches_oracle([ties, -ties], 2)
    assert csv_bytes("h", [1000000000000000.25]) == b"h\n1.0000000000000002e+15\n"

    # near ties: v = m / 2^j with m * 10^k / 2^j = (m * 5^k mod 2^D) / 2^D = 1/2 + delta / 2^D
    # (mod 1), D = j - k, k = 16 - E, so the rounding is decided 2^-D (down to 1e-16) from 1/2
    near = []
    for j in range(53, 80):
        k = 16 - math.floor((52.5 - j) * math.log10(2))
        depth = j - k
        inverse = pow(5**k, -1, 2**depth)
        for delta in range(-8, 9):
            r0 = (2 ** (depth - 1) + delta) * inverse % 2**depth
            for m in (2**52 + (r0 - 2**52) % 2**depth, 2**53 - 1 - (2**53 - 1 - r0) % 2**depth):
                if delta and 2**52 <= m < 2**53 and 10**16 << j <= m * 10**k < 10**17 << j:
                    near.append(math.ldexp(m, -j))
    assert len(near) > 500
    assert_csv_matches_oracle(near, 1)

    nan = np.float64(np.nan)
    specials = [0.0, -0.0, np.inf, -np.inf, nan, -nan, 5e-324, -5e-324,
                np.finfo(float).max, -np.finfo(float).max]
    assert_csv_matches_oracle(specials, 2)
    assert csv_bytes("h", [-nan], [nan]) == b"h\nNaN,NaN\n"

    assert csv_bytes("h", [], []) == oracle_csv("h", [], []).encode() == b"h\n"


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 9)),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_csv_matches_template_oracle_property(table):
    assert csv_bytes("h", *table.T) == oracle_csv("h", *table.T).encode()


def test_csv_write_holds_one_block_beyond_the_table(tmp_path):
    # a 100,000-row, 9-column table: the writer may hold the float table _csv
    # stacks (7.2 MB) and one block's work, not the whole CSV text (23 MB)
    table = random_doubles(9 * 10**5, seed=29).reshape(-1, 9)
    out = tmp_path / "t.csv"
    _format_tables()  # built once per process, not part of a write
    tracemalloc.start()
    try:
        _emit(_csv("h", *table.T), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 2 * 2**20
    assert out.read_bytes() == oracle_csv("h", *table.T).encode()


def test_decade_table_is_exact():
    # entry k - _E_MIN is the smallest double >= 10^k: an exact comparison of integers
    decades = _format_tables()[2]
    assert len(decades) == _E_MAX - _E_MIN + 2
    for k, t in zip(range(_E_MIN, _E_MAX + 2), decades.tolist()):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        if k > _E_MAX:  # no double reaches 10^309
            assert t == math.inf
        else:
            a, b = t.as_integer_ratio()
            assert a * den >= num * b
        a, b = math.nextafter(t, 0).as_integer_ratio()
        assert a * den < num * b
    # the decade estimate floor((e - 1) log10 2) = (e - 1) * 78913 >> 18, for every
    # frexp exponent e of a nonzero double: 10^E <= 2^(e - 1) < 10^(E + 1)
    for e in range(-1073, 1025):
        E = (e - 1) * 78913 >> 18
        lhs, rhs = (2 ** (e - 1), 1) if e >= 1 else (1, 2 ** (1 - e))
        assert (10**E * rhs <= lhs if E >= 0 else rhs <= lhs * 10**-E)
        assert (10 ** (E + 1) * rhs > lhs if E >= -1 else rhs > lhs * 10 ** -(E + 1))


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
    # width-sweep writes the same point, its undefined delay as NaN
    assert run("width-sweep", "--powers-uw", "0", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1 and math.isnan(rows[0][2])


def degenerate_pump(params):
    """The pump (W) at which den(0) vanishes exactly, so eps_T(0) is NaN; None if not found.

    The search starts at P* = alpha*/alpha(1 W), with den(0) = 0 at
    alpha* = m*omega_m^2*(4*kappa^2 + Delta^2)/(2*Delta), and steps up one ulp at a time.
    """
    m, om = params.mirror_mass, params.mirror_freq
    kappa, det = params.cavity_decay, params.effective_detuning
    power = m * om**2 * (4.0 * kappa**2 + det**2) / (2.0 * det) / steady_at(params, 1.0).alpha
    for _ in range(16):
        if math.isnan(transmitted(0.0, params, steady_at(params, power)).real):
            return power
        power = math.nextafter(power, math.inf)
    return None


def test_spectrum_with_no_defined_transmission(tmp_path, capsys):
    # a one-row spectrum at the degenerate pump: its row is NaN, and the
    # stderr note still names a (NaN) minimum instead of raising
    power = degenerate_pump(ce.reference_defaults()[0])
    assert power is not None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pump_power": power}))
    out = tmp_path / "s.csv"
    argv = ["--grid-min", "0", "--grid-max", "1", "--grid-n", "1", "--out", str(out)]
    assert run("spectrum", "--config", str(cfg), *argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1 and rows[0][0] == 0.0 and all(math.isnan(v) for v in rows[0][2:])
    err = capsys.readouterr().err
    assert err.startswith("spectrum: 1 rows, min T=nan") and err.count("\n") == 1


def test_delay_sweep_undefined_response_exit_2_message(tmp_path, capsys):
    # a vanishing denominator makes eps_T and both delays NaN: the message says
    # only that the delay is undefined, not why
    power = degenerate_pump(ce.reference_defaults()[0])
    assert power is not None
    uw = power * 1e6
    assert uw * 1e-6 == power  # --powers-uw lands on the same double
    out = tmp_path / "d.csv"
    argv = ["--powers-uw", repr(uw), "--delta-over-omega-m", "0", "--out", str(out)]
    assert run("delay-sweep", *argv) == 2
    assert capsys.readouterr().err == (
        "numerical error: group delay undefined at the single requested point "
        "(power=1.378148e-04 W, delta=0.000000e+00 rad/s)\n"
    )
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


@pytest.mark.parametrize("command", ["steady-state", "spectrum", "delay-sweep", "width-sweep", "dynamics"])
def test_record_params_are_config_then_power_flag(tmp_path, command):
    # the record's params are the config's, with --power-uw replacing its pump;
    # the sweeps take no --power-uw and keep the config's pump
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"pump_power_uw": 1.0, "mirror_damping": 1.5}))
    power = [] if command.endswith("-sweep") else ["--power-uw", "2"]
    args = _build_parser().parse_args([command, "--config", str(cfg), *power, "--out", str(tmp_path / "out")])
    record = args.func(args)
    params, drive = load_params(cfg)
    if power:
        drive = replace(drive, pump_power=2e-6)
    assert record["params"] == _param_dict(params, drive)


def test_out_into_missing_directories(tmp_path, capsys):
    # the parents of --out are made when missing; the bytes do not depend on it
    here, nested = tmp_path / "here.csv", tmp_path / "a" / "b" / "there.csv"
    assert run("delay-sweep", "--out", str(here)) == 0
    assert run("delay-sweep", "--out", str(nested)) == 0
    assert nested.read_bytes() == here.read_bytes()
    # a regular file where a directory should be, and a directory where the file should be
    for out in (here / "c" / "x.csv", here / "x.csv", tmp_path / "a"):
        capsys.readouterr()
        assert run("delay-sweep", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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


def test_non_finite_sideband_matrix_refused(tmp_path, capsys):
    # at delta = 0, v = gamma_m = 1e-300 and a = (-dd + i alpha)/(m v u) overflows
    cfg = tmp_path / "gm.json"
    cfg.write_text('{"mirror_damping": 1e-300}')
    out = tmp_path / "x.csv"
    argv = ["--config", str(cfg), "--delta-over-omega-m", "0", "--samples", "5"]
    assert run("dynamics", *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sideband matrix at delta=0.000000e+00 rad/s overflows float64")
    assert err.count("\n") == 1
    assert not out.exists()


def test_state_overflow_refused(tmp_path, capsys):
    # every envelope sample is finite, but with no pump c_plus tends to 1e308/(2 kappa)
    # = 5e309 for kappa = 0.01 1/s: the state overflows float64 within the 100 s
    cfg = tmp_path / "k.json"
    cfg.write_text('{"cavity_decay": 0.01}')
    out = tmp_path / "x.csv"
    argv = ["--config", str(cfg), "--power-uw", "0", "--pulse-shape", "constant",
            "--pulse-amp", "1e308", "--t-end", "100", "--dt", "1"]
    assert run("dynamics", *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the final state is not finite")
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_probe_amplitude_scale_key_rejected(tmp_path, capsys):
    # --pulse-amp is the one probe-amplitude setting; the old key is unknown
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"probe_amplitude_scale": 7}))
    out = tmp_path / "x.csv"
    assert run("dynamics", "--config", str(cfg), "--out", str(out)) == 1
    assert "probe_amplitude_scale" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "flags", [["--grid-max", "inf"], ["--grid-min=-inf"], ["--grid-max", "1e308"]]
)
def test_non_finite_grid_bound_rejected(tmp_path, capsys, flags):
    # 1e308 is finite but overflows once scaled by mirror_freq
    out = tmp_path / "x.csv"
    assert run("spectrum", *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0].split('=')[0]} ")
    assert err.count("\n") == 1
    assert not out.exists()


OUT_OF_RANGE = {
    # |delta| past the pump's optical frequency; m*delta^4 overflows from about 4.6e79 rad/s
    "grid-max": ["spectrum", "--grid-max", "1e74"],
    "grid-min": ["spectrum", "--grid-min=-1e300"],
    "sweep-detuning": ["delay-sweep", "--powers-uw", "1", "--delta-over-omega-m", "1e80"],
    # a pump whose interaction strength alpha overflows float64
    "steady-state-power": ["steady-state", "--power-uw", "1e305"],
    "spectrum-power": ["spectrum", "--power-uw", "1e305"],
    "sweep-power": ["delay-sweep", "--powers-uw", "1e305"],
    "dynamics-power": ["dynamics", "--power-uw", "1e305"],
    "dynamics-detuning": ["dynamics", "--delta-over-omega-m", "3e9"],  # omega_c = 2.10e9 omega_m
    # about 1e295 and 1e308 steps; then step counts that overflow float64
    "dynamics-tiny-dt": ["dynamics", "--dt", "1e-300"],
    "dynamics-huge-t-end": ["dynamics", "--t-end", "1e300"],
    "dynamics-step-count": ["dynamics", "--t-end", "1e300", "--dt", "1e-10"],
    "dynamics-subnormal-dt": ["dynamics", "--dt", "5e-324"],
    # a negative probe amplitude; the sech envelope keeps 1e308 finite (test_dynamics.py)
    "dynamics-pulse-amp": ["dynamics", "--pulse-amp=-1e308"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_input_rejected(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


# each text is a whole config file; the second column matches the key the error must
# name (json refuses an int past Python's digit limit, where it has one, itself)
OVERFLOWING_CONFIGS = {
    "mirror-freq": ('{"mirror_freq": 1e200}', "mirror_freq"),  # m*om^2 overflows
    "int-401-digits": ('{"pump_power": 1%s}' % ("0" * 400), "pump_power"),
    "negative-int-hz": ('{"mirror_freq_hz": -1%s}' % ("0" * 400), "mirror_freq_hz"),
    "int-past-digit-limit": ('{"pump_power": 1%s}' % ("0" * 5000), "JSON|pump_power"),
    "wavelength-photon-energy": ('{"wavelength": 1e308}', "wavelength"),  # hbar*omega_c underflows
    "wavelength-subnormal": ('{"wavelength": 1e290}', "wavelength"),  # 2*kappa*P/(hbar*omega_c) overflows
    # hbar*g^2 is subnormal, g = 2*pi*c/(wavelength*cavity_length): the one message names both
    "alpha-underflow-wavelength": ('{"wavelength": 1e170}', "^error: wavelength.*cavity_length"),
    "alpha-underflow-cavity-length": ('{"cavity_length": 1e160}', "^error: wavelength.*cavity_length"),
    "width-divisor": ('{"cavity_decay": 1e-320}', "cavity_decay"),  # 4*m*omega_m*kappa underflows
    # hbar*g^2 overflows, at any pump: the length is refused, not the pump
    "g-squared-overflow": ('{"cavity_length": 1e-200}', "^error: wavelength, cavity_length"),
    "g-squared-overflow-dark": ('{"cavity_length": 1e-200, "pump_power": 0}', "^error: wavelength, cavity_length"),
    "width-divisor-subnormal": ('{"cavity_decay": 1e-316}', "^error: cavity_decay"),  # so is den at om
    # m*gm*om, chi at the mechanical resonance, is subnormal; the other four scales pass
    "chi-at-resonance": ('{"mirror_mass": 1e-290, "mirror_damping": 1e-30}', "^error: mirror_damping, mirror_mass"),
    "q0-divisor-underflow": ('{"mirror_freq": 1e-160, "mirror_damping": 1e-161}', "^error: mirror_freq"),  # m*om^2
}


@pytest.mark.parametrize("command", ["steady-state", "spectrum", "delay-sweep", "width-sweep", "dynamics"])
@pytest.mark.parametrize("text,key", OVERFLOWING_CONFIGS.values(), ids=OVERFLOWING_CONFIGS.keys())
def test_overflowing_config_rejected(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(key, err)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["steady-state", "spectrum", "delay-sweep", "width-sweep", "dynamics"])
def test_overflowing_wavelength_rejected(tmp_path, capsys, command):
    # omega_c = 2*pi*c/wavelength is inf: the wavelength is refused, not the pump
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"wavelength": 1e-310}')
    out = tmp_path / "x.csv"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: wavelength")
    assert err.count("\n") == 1
    assert not out.exists()


# a NaN or infinite input is refused by the rule that names finiteness; the second
# column is the whole error line after "error: "
NON_FINITE_INPUTS = {
    "power-nan": (["steady-state", "--power-uw", "nan"], "pump_power must be non-negative and finite, got nan"),
    "power-inf": (["steady-state", "--power-uw", "inf"], "pump_power must be non-negative and finite, got inf"),
    "sweep-power-nan": (["delay-sweep", "--powers-uw", "nan"], "pump_power must be non-negative and finite, got nan"),
    "config-mass-nan": (["spectrum", "--config", '{"mirror_mass": NaN}'], "mirror_mass must be positive and finite, got nan"),
}


@pytest.mark.parametrize("argv,message", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_names_its_rule(tmp_path, capsys, argv, message):
    if "--config" in argv:  # JSON's NaN literal loads as a float NaN
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[-1])
        argv = [*argv[:-1], str(cfg)]
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_dynamics_default_step_at_zero_detuning_is_width_over_64(tmp_path):
    # the exponential step has no stability bound: at delta = 0, rho(M) = 9.2e11 1/s
    # would hold RK4 to 2.2e-14 s, about 2.7e9 steps; the default takes 5,120
    argv = ["dynamics", "--delta-over-omega-m", "0", "--samples", "3"]
    out = tmp_path / "d.csv"
    assert run(*argv, "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3 and np.all(np.isfinite(rows))
    args = _build_parser().parse_args([*argv, "--out", str(tmp_path / "again.csv")])
    record = args.func(args)
    assert record["dt_s"] == record["pulse"]["width_s"] / 64


def test_dynamics_expm_matches_rk4(tmp_path):
    # the fig9 CSV against the reference RK4 rule on the same matrix, pulse, span and step
    args = _build_parser().parse_args(["dynamics", *FIGURE_RUNS["fig9"][0][1],
                                       "--out", str(tmp_path / "expm.csv")])
    record = args.func(args)
    expm = np.loadtxt(tmp_path / "expm.csv", delimiter=",", skiprows=1)
    params, drive = ce.reference_defaults()
    derived = ce.derive(params, drive)
    st = ce.solve_steady(params, derived)
    delta = record["delta_over_omega_m"] * params.mirror_freq
    matrix = ce.build_matrix(delta, params, derived, st)
    p = record["pulse"]
    pulse = ce.PulseSpec(p["shape"], p["amplitude"], p["width_s"], p["center_s"])
    rk4 = ce.integrate(matrix, pulse, tuple(record["t_span_s"]), record["dt_s"], method="rk4")
    rk4 = ce.reconstruct_displacement(rk4, st, delta)
    assert np.array_equal(rk4.times, expm[:, 0])
    # expm interpolates the forcing linearly across a step, an O(dt^2) error:
    # at the default step the two differ by 1.0e-6 (q_plus) and 5.5e-6 (c_plus)
    # of the peak, and by a quarter of that at half the step
    for a, re_col in ((rk4.q_plus, 1), (rk4.c_plus, 3)):
        b = expm[:, re_col] + 1j * expm[:, re_col + 1]
        assert np.abs(a - b).max() <= 1e-5 * np.abs(a).max()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("no-such-command") == 1
    assert run() == 1
    assert run("--help") == 0
    assert run("spectrum", "--grid-n", "0") == 1
    # the sweeps take their powers from --powers-uw alone, so --power-uw is no flag of theirs
    for command in ("delay-sweep", "width-sweep"):
        assert run(command, "--power-uw", "1e305", "--out", str(tmp_path / "x.csv")) == 1
        assert "unrecognized arguments: --power-uw" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    # the exponential step is the one rule, so the step rule is no flag of dynamics
    assert run("dynamics", "--method", "rk4", "--out", str(tmp_path / "x.csv")) == 1
    assert "unrecognized arguments: --method" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert run("steady-state", "--config", str(tmp_path / "missing.json")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("steady-state", "--config", str(bad)) == 1
    assert "JSON" in capsys.readouterr().err


# --- figure bundles -------------------------------------------------------------


def oracle_phase_unwrap(spectrum_csv, out):
    """The unwrapped phase from the spectrum CSV's bytes, parsed back by np.loadtxt."""
    delta, delta_over_omega_m, phase = np.loadtxt(
        spectrum_csv, delimiter=",", skiprows=1, usecols=(0, 1, 6), ndmin=2, unpack=True
    )
    header = "delta_rad_s,delta_over_omega_m,phase_t_unwrapped_rad"
    out.write_bytes(csv_bytes(header, delta, delta_over_omega_m, np.unwrap(phase)))


def test_phase_unwrap_matches_csv_oracle(tmp_path):
    emit_figure_bundle("fig3", tmp_path)
    oracle_phase_unwrap(tmp_path / "fig3_spectrum_1uw.csv", tmp_path / "oracle.csv")
    got = (tmp_path / "fig3_phase_unwrapped.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()


@settings(deadline=None, max_examples=50)
@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
              elements=st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])))
def test_phase_unwrap_matches_csv_oracle_property(table):
    # the columns a spectrum run wrote give the bytes its CSV gives when parsed back
    delta, ratio, phase = table.T
    columns = (delta, ratio, *[np.zeros(len(table))] * 4, phase, *[np.zeros(len(table))] * 2)
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        spectrum_csv, got, want = (Path(tmp) / name for name in ("s.csv", "got.csv", "want.csv"))
        spectrum_csv.write_bytes(csv_bytes(SPECTRUM_HEADER, *columns))
        oracle_phase_unwrap(spectrum_csv, want)
        _phase_unwrap(columns, got)
        assert got.read_bytes() == want.read_bytes()


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
    computed = ce.power_sweep([0.0], params.mirror_freq, params)[0].tau_t
    assert report["empty_cavity_transmission_delay_s"]["computed"] == computed
    # the reflected-delay discrepancy is documented, not asserted away
    refl = report["reflection_delay_s_at_probe_resonance"]
    assert refl["reference_reported"] == -2.0
    assert all(v > 0 for v in refl["computed"].values())
    assert "note" in refl
    # the 5 uW delays, dip and width are one sweep point at 5e-6 W
    at5 = ce.power_sweep([5e-6], params.mirror_freq, params)[0]
    assert report["transmission_delay_s_at_probe_resonance"]["computed"]["5.0uW"] == at5.tau_t
    assert refl["computed"]["5.0uW"] == at5.tau_r
    assert report["transparency_dip_transmission_at_5uW"]["computed"] == at5.transmission
    assert report["transparency_width_rad_s_at_5uW"]["computed"] == at5.gamma_width


# SHA-256 of every file of every bundle.  Any change here is a change of
# output bytes and must be deliberate.
BUNDLE_SHA256 = {
    "fig2/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig2/fig2_config.json": "354c68f2455ec8cbdd9e2f803413ed9287606ba33d5fbf32daafcca450caa137",
    "fig2/fig2_spectrum_5uw.csv": "28e02f850e6b74f746936782126ae4b2d2097414554bfd2aeea6d31a0ceba67c",
    "fig3/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig3/fig3_config.json": "597519fbebb476516ffd3ea65fc2dc2e95ab6cfbd3f2045b1d98d054d16aa2fe",
    "fig3/fig3_phase_unwrapped.csv": "e60132bfb9132af15ef7b58655931c7e5b6f082d7c713b38312eff91e29f4d93",
    "fig3/fig3_spectrum_1uw.csv": "7176aa4283444833995e0c37e06fc584d6f67f43593c38012c05a873eea3b194",
    "fig4/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig4/fig4_config.json": "d54eaff58a890d79e5e1d305a8b5bcce62e213707767b9bcc831f52fce56aa88",
    "fig4/fig4_delay_sweep.csv": "28683cfc7b9f3868c07acb90b34470b1cbfda16c91c71cf91a5ed4a5ee0c228f",
    "fig5/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig5/fig5_config.json": "6225e9b1eb061ec3da27720a6534a21ef027449a5535c5a3efe7e04edf9bd9ad",
    "fig5/fig5_delay_sweep.csv": "28683cfc7b9f3868c07acb90b34470b1cbfda16c91c71cf91a5ed4a5ee0c228f",
    "fig6/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig6/fig6_config.json": "80a5f5b191817c327647714dfe5c4696da572eaf1889f6069cb6b494e08a57eb",
    "fig6/fig6_spectrum_0uw.csv": "857760f4d299b84657fd6295f6226fdc4b69cf41f814eb2f3350a6d0ff0d000b",
    "fig6/fig6_spectrum_5uw.csv": "28e02f850e6b74f746936782126ae4b2d2097414554bfd2aeea6d31a0ceba67c",
    "fig7/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig7/fig7_config.json": "c5cf64da053d0c4778451ad417d859b12528247524199db1721ddf81c268b996",
    "fig7/fig7_spectrum_0uw.csv": "857760f4d299b84657fd6295f6226fdc4b69cf41f814eb2f3350a6d0ff0d000b",
    "fig7/fig7_spectrum_5uw.csv": "28e02f850e6b74f746936782126ae4b2d2097414554bfd2aeea6d31a0ceba67c",
    "fig8/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig8/fig8_config.json": "7cb9dbe8669f3c7a67fdd5283e9b1ecd0b86c574c38a58942e2580716839fd01",
    "fig8/fig8_width_sweep.csv": "7a124f7aaecf94f45ae77561464240ef887148e392327be5135cdb46aaff013a",
    "fig9/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig9/fig9_config.json": "3e2364b11dbaa931420dd83adb3f3c57469c5e5099485639687956c3b4b1b9f9",
    "fig9/fig9_dynamics.csv": "5b2b7be3cf0f8d30026c0955718436a9b180ae932db993aa5687cfd6cbfbb782",
    "fig10/comparison_report.json": "7d98ecca3773f350a015d7937926f4295281d45f8e081b3b5d4c9023fbf0f5cc",
    "fig10/fig10_config.json": "60971532887b1157b8dfac13e319b98148023407bd2f53f404fcfa29e750f39f",
    "fig10/fig10_dynamics.csv": "5b2b7be3cf0f8d30026c0955718436a9b180ae932db993aa5687cfd6cbfbb782",
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    for figure_id in FIGURE_RUNS:
        emit_figure_bundle(figure_id, root / figure_id)
    return root


def test_figure_bundle_hashes(bundles):
    got = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(bundles.glob("*/*"))
    }
    assert got == BUNDLE_SHA256


# SHA-256 of `dynamics --pulse-shape S --samples 400` at default flags:
# 5120 steps at stride 13, so 393 folded steps of 13, then an 11-step tail.
DYNAMICS_SHA256 = {
    "sech": "8815f26dffa468e69cd7f8a405ac5382e1b190bd493325c56d62d1c793d59abc",
    "gaussian": "7d1a9a4de5c440e51ba79699b7db319ed30f79b4a906959a04db3cb9f0548953",
    "rectangle": "261edcdec958d13c9c0fd3a170b424ec462926bab68fb82b0e8638743671e5c5",
    "constant": "545c976030aab856eb7f9cd7cc1d8886340c0b9e8ebb1fdf5d3f906b56fae157",
}


@pytest.mark.parametrize("shape", list(DYNAMICS_SHA256))
def test_dynamics_hashes(tmp_path, shape):
    out = tmp_path / "d.csv"
    argv = ["dynamics", "--pulse-shape", shape, "--samples", "400"]
    assert run(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DYNAMICS_SHA256[shape]


# SHA-256 of `dynamics --samples 161 --t-end 5.9684e-05` at default flags:
# 5119 steps at stride 32, so 319 folded steps of 16, the widest fold, then a 15-step tail.
WIDEST_FOLD_SHA256 = "10bdfd74879d9e034e626d9ffef675943a4009337b239a9bc6a42c0ffe39266c"


def test_widest_fold_hash(tmp_path):
    out = tmp_path / "d.csv"
    argv = ["dynamics", "--samples", "161", "--t-end", "5.9684e-05"]
    assert run(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDEST_FOLD_SHA256


NO_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def _python_with(env, *argv):
    """``python *argv`` run in a new process that imports this package, with ``env`` added."""
    package_root = str(Path(ce.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=300)


def _run_cli_with(env, *argv):
    """Exit status of ``python -m cavity_eit *argv`` in a new process with ``env`` added."""
    return _python_with(env, "-m", "cavity_eit", *argv).returncode


def test_dynamics_bytes_do_not_depend_on_machine(tmp_path):
    # numpy's SIMD dispatch and the OpenBLAS core type must not reach the
    # dynamics CSVs.  A machine without these features or cores runs its
    # defaults, so only exit status and bytes are checked.
    assert _run_cli_with(NO_SIMD, "figure", "fig9", "--out-dir", str(tmp_path / "fig9")) == 0
    csv = (tmp_path / "fig9" / "fig9_dynamics.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == BUNDLE_SHA256["fig9/fig9_dynamics.csv"]
    # a Gaussian pulse samples exp, which numpy would take from SIMD code
    gauss = ["dynamics", "--pulse-shape", "gaussian", "--pulse-width-s", "1e-5"]
    assert run(*gauss, "--out", str(tmp_path / "gauss.csv")) == 0
    assert _run_cli_with(NO_SIMD, *gauss, "--out", str(tmp_path / "gauss_no_simd.csv")) == 0
    assert (tmp_path / "gauss_no_simd.csv").read_bytes() == (tmp_path / "gauss.csv").read_bytes()
    # and at 400 samples, against its pinned hash
    gauss_400 = ["dynamics", "--pulse-shape", "gaussian", "--samples", "400"]
    assert _run_cli_with(NO_SIMD, *gauss_400, "--out", str(tmp_path / "ge_no_simd.csv")) == 0
    got = hashlib.sha256((tmp_path / "ge_no_simd.csv").read_bytes()).hexdigest()
    assert got == DYNAMICS_SHA256["gaussian"]

    assert run("dynamics", "--out", str(tmp_path / "here.csv")) == 0
    prescott = {"OPENBLAS_CORETYPE": "Prescott"}
    assert _run_cli_with(prescott, "dynamics", "--out", str(tmp_path / "prescott.csv")) == 0
    assert (tmp_path / "prescott.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


@pytest.mark.parametrize("figure_id", ["fig4", "fig8"])
def test_sweep_bytes_do_not_depend_on_machine(tmp_path, figure_id):
    # a power sweep evaluates the response over an array of alphas; without
    # numpy's SIMD paths its CSV and the comparison report keep their pins
    assert _run_cli_with(NO_SIMD, "figure", figure_id, "--out-dir", str(tmp_path)) == 0
    for name in (FIGURE_RUNS[figure_id][0][2], "comparison_report.json"):
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == BUNDLE_SHA256[f"{figure_id}/{name}"]


def test_csv_bytes_do_not_depend_on_machine(tmp_path):
    # the formatter's arithmetic must not reach numpy's SIMD code paths; it is fed
    # fixed bit patterns, not a spectrum, whose values still move with them
    values = random_doubles(10**6).reshape(-1, 8)
    np.save(tmp_path / "values.npy", values)
    code = ("import sys, numpy as np; from cavity_eit.cli import _csv; "
            "sys.stdout.buffer.write(b''.join(_csv('h', *np.load(sys.argv[1]).T)))")
    proc = _python_with(NO_SIMD, "-c", code, str(tmp_path / "values.npy"))
    assert proc.returncode == 0
    assert proc.stdout == csv_bytes("h", *values.T)


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
            "--samples", str(run_cfg["samples"]),
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
