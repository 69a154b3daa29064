"""Self-test of the benchmark's checks: each must pass on the program's output and fail on a corrupted copy.

    python3 bench/selftest.py

Run from the root of a source tree; takes a few seconds.  The file
is not named ``test_*`` so the repository's own test suite does not
collect it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cavity_eit as ce  # noqa: E402
from cavity_eit import cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

PARAMS, _ = ce.reference_defaults()
P = dataclasses.asdict(PARAMS)
OM = PARAMS.mirror_freq


def steady(power):
    return ce.solve_steady(PARAMS, ce.derive(PARAMS, ce.DriveParams(pump_power=power)))


def table_rows(table, rows) -> dict:
    """Spectrum-table rows as the CSV's column arrays."""
    return {
        "delta_rad_s": table.delta[rows],
        "T": table.transmission[rows],
        "R": table.reflection[rows],
        "re_eps_t": table.eps_t[rows].real,
        "im_eps_t": table.eps_t[rows].imag,
        "phase_t_rad": table.phase_t[rows],
        "tau_t_s": table.tau_t[rows],
        "tau_r_s": table.tau_r[rows],
    }


def scratch() -> Path:
    (BENCH / "out").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "out"))


class OracleChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.power = 1e-6
        g = oracle.gamma(P, cls.power)
        grid = np.linspace(OM - 20 * g, OM + 20 * g, 2001)
        table = ce.spectrum(grid, PARAMS, steady(cls.power), power=cls.power)
        cls.cols = table_rows(table, np.arange(0, 2001, 50))

    def corrupt(self, **scale):
        cols = {k: v.copy() for k, v in self.cols.items()}
        for key, factor in scale.items():
            cols[key][3] *= factor
        return cols

    def test_spectrum_rows_pass(self):
        self.assertEqual(oracle.check_spectrum_rows(P, self.power, self.cols), [])

    def test_each_spectrum_column_is_checked(self):
        for key, factor in (
            ("re_eps_t", 1 + 1e-8), ("im_eps_t", 1 + 1e-8), ("T", 1 + 1e-11),
            ("R", 1 + 1e-11), ("phase_t_rad", 1 + 1e-12), ("tau_t_s", 1 + 1e-4),
            ("tau_r_s", 1 + 1e-4),
        ):
            with self.subTest(column=key):
                self.assertTrue(oracle.check_spectrum_rows(P, self.power, self.corrupt(**{key: factor})))

    def test_eps_against_the_3x3_solve(self):
        d = self.cols["delta_rad_s"]
        eps = self.cols["re_eps_t"] + 1j * self.cols["im_eps_t"]
        self.assertEqual(oracle.check_eps(P, self.power, d, eps), [])
        self.assertTrue(oracle.check_eps(P, self.power, d, eps * (1 + 1e-8)))
        # a wrong eps_T written with T, R and phase consistent with it
        cols = {k: v.copy() for k, v in self.cols.items()}
        bad = eps[3] * (1 + 1e-8)
        cols["re_eps_t"][3], cols["im_eps_t"][3] = bad.real, bad.imag
        cols["T"][3], cols["R"][3] = abs(bad) ** 2, abs(bad - 1) ** 2
        cols["phase_t_rad"][3] = np.angle(bad)
        self.assertEqual(oracle.check_spectrum_columns(OM, cols), [])
        self.assertTrue(oracle.check_spectrum_rows(P, self.power, cols))

    def test_delta_over_omega_m(self):
        cols = dict(self.cols, delta_over_omega_m=self.cols["delta_rad_s"] / OM)
        self.assertEqual(oracle.check_spectrum_columns(OM, cols), [])
        cols["delta_over_omega_m"] = cols["delta_over_omega_m"] * (1 + 1e-12)
        self.assertTrue(oracle.check_spectrum_columns(OM, cols))

    def test_nan_delay_only_where_amplitude_vanishes(self):
        tau = self.cols["tau_r_s"].copy()
        tau[3] = math.nan
        self.assertTrue(oracle.check_delays(P, self.power, self.cols["delta_rad_s"], self.cols["tau_t_s"], tau))

    def test_resonance_delay_and_width(self):
        powers = [1e-10, 0.2e-6, 1e-6, 5e-6, 50e-6]
        sweep = ce.power_sweep(powers, OM, PARAMS)
        tau = np.array([pt.tau_r for pt in sweep])
        width = np.array([pt.gamma_width for pt in sweep])
        self.assertEqual(oracle.check_resonance_delay(P, powers, tau), [])
        self.assertEqual(oracle.check_widths(P, powers, width), [])
        for i, factor in ((2, 1 + 2e-4), (0, 1 + 2e-2), (4, 1 - 2e-2)):
            bad = tau.copy()
            bad[i] *= factor
            self.assertTrue(oracle.check_resonance_delay(P, powers, bad), (i, factor))
        self.assertTrue(oracle.check_widths(P, powers, width * (1 + 1e-10)))

    def test_unwrapped_phase(self):
        phase = np.angle(np.exp(1j * np.linspace(0.0, 20.0, 400)))
        good = np.unwrap(phase)
        self.assertEqual(oracle.check_unwrapped_phase(phase, good), [])
        shifted = good.copy()
        shifted[200] += 0.1
        self.assertTrue(oracle.check_unwrapped_phase(phase, shifted))
        jumped = good.copy()
        jumped[200:] += 2 * math.pi
        self.assertTrue(oracle.check_unwrapped_phase(phase, jumped))

    def test_comparison_report(self):
        doc = cli.comparison_report(PARAMS)
        self.assertEqual(oracle.check_comparison_report(P, doc), [])
        for path in (
            ("empty_cavity_transmission_delay_s", "computed"),
            ("reflection_delay_s_at_probe_resonance", "computed", "1.0uW"),
            ("transparency_dip_transmission_at_5uW", "computed"),
            ("transparency_width_rad_s_at_5uW", "computed"),
            ("mechanical_quality_factor", "computed"),
        ):
            bad = copy.deepcopy(doc)
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] *= 1 + 1e-3
            with self.subTest(entry=path[0]):
                self.assertTrue(oracle.check_comparison_report(P, bad))

    def test_csv_header_and_numbers(self):
        self.assertTrue(oracle.parse_csv(b"a,b\n1,2\n", oracle.SWEEP_COLUMNS)[1])
        header = ",".join(oracle.SWEEP_COLUMNS).encode()
        self.assertTrue(oracle.parse_csv(header + b"\n1,2,x,4\n", oracle.SWEEP_COLUMNS)[1])
        cols, problems = oracle.parse_csv(header + b"\n1,NaN,3,4\n", oracle.SWEEP_COLUMNS)
        self.assertEqual(problems, [])
        self.assertTrue(math.isnan(cols["tau_t_s"][0]))


class WorkloadChecks(unittest.TestCase):
    def setUp(self):
        self.dir = scratch()
        self.rng = np.random.default_rng(7)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def make(self, cls):
        return cls(ce, cli, self.rng, self.dir)

    def test_long_pulse(self):
        class Small(workloads.LongPulse):
            WIDTH_GAMMAS = 2.0

        w = self.make(Small)
        rk4, expm = w.run("pulse")
        self.assertEqual(w.check("pulse", (rk4, expm)), (False, []))
        self.assertEqual(w.finish(), [])
        bad = dataclasses.replace(rk4, q_total=rk4.q_total + 1e-6 * np.max(np.abs(rk4.q_plus)))
        self.assertTrue(w.check("pulse", (bad, expm))[1])
        peak = np.max(np.abs(expm.c_plus))
        bad = dataclasses.replace(expm, c_plus=expm.c_plus + 1e-4 * peak)
        self.assertTrue(w.check("pulse", (rk4, bad))[1])
        for steps in (w.steps - 1, w.steps + 1):
            self.assertTrue(oracle.check_steps(rk4.times, w.span, steps), steps)
        self.assertTrue(oracle.check_steps(rk4.times[:-1], w.span, w.steps))
        c_end = rk4.c_plus[-1]
        self.assertTrue(oracle.check_fixed_point(P, w.POWER, OM, 1.0, c_end))

    def test_figure_bundles(self):
        w = self.make(workloads.FigureBundles)
        for label in ("fig3", "fig6", "fig8", "fig9"):
            with self.subTest(figure=label):
                self.assertEqual(w.check(label, w.run(label)), (label == "fig8", []))
        # every bundle: a changed byte in a data CSV fails the replay or an oracle check
        for label, name, old, new in (
            ("fig2", "fig2_spectrum_5uw.csv", b"e-01,", b"e-02,"),
            ("fig3", "fig3_phase_unwrapped.csv", b"\n8.", b"\n9."),
            ("fig9", "fig9_dynamics.csv", b"\n1.", b"\n2."),
        ):
            with self.subTest(corrupted=name):
                self.assertEqual(w.run(label), 0)
                path = self.dir / "op" / name
                data = path.read_bytes()
                self.assertIn(old, data)
                path.write_bytes(data.replace(old, new, 1))
                failed, problems = w.check(label, 0)
                self.assertTrue(failed or problems)
        # bytes that differ from the first pass are reported
        self.assertEqual(w.run("fig6"), 0)
        path = self.dir / "op" / "comparison_report.json"
        doc = json.loads(path.read_text())
        doc["mechanical_quality_factor"]["computed"] *= 2
        path.write_text(json.dumps(doc))
        self.assertTrue(w.check("fig6", 0)[1])
        self.assertEqual(w.check("fig2", 1), (True, []))


class Entry(unittest.TestCase):
    def test_refuses_a_tree_without_the_program(self):
        tree = scratch()
        try:
            shutil.copytree(BENCH, tree / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "long-pulse", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tree, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
