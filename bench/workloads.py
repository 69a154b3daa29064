"""The two workloads: inputs made from the seed, the timed operation, and its checks.

Each workload is a closed loop over passes; a pass is the list of
operation labels ``labels``.  ``run(label)`` is the timed operation and
calls only the program.  ``check(label, result)`` runs untimed right after
it and returns ``(failed, problems)``: ``failed`` marks an operation the
program did not complete as specified, ``problems`` lists outputs that
disagree with the computations in ``oracle``.  ``finish()`` holds checks
made once per run.  ``work(label, result)`` gives the units of work the
operation completed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import oracle

FIGURES = tuple(f"fig{i}" for i in range(2, 11))


def integration_steps(t_span, dt: float) -> int:
    """Steps ``dynamics.integrate`` takes over ``t_span`` at ``dt``; ``oracle.check_steps`` holds it to them."""
    t0, t1 = (float(t) for t in t_span)
    return max(1, math.ceil((t1 - t0) / dt - 1e-9))


class Workload:
    name = ""
    labels: tuple[str, ...] = ()

    def __init__(self, ce, cli, rng: np.random.Generator, scratch: Path) -> None:
        self.ce, self.cli, self.rng, self.scratch = ce, cli, rng, scratch
        self.params, _ = ce.reference_defaults()
        self.p = dataclasses.asdict(self.params)
        self.om = self.params.mirror_freq

    def steady(self, power: float):
        return self.ce.solve_steady(self.params, self.ce.derive(self.params, self.ce.DriveParams(pump_power=power)))

    def finish(self) -> list[str]:
        return []

    def layer_counts(self) -> dict:
        """Per-pass counts of the files written through ``cli``, for the traced run."""
        return {"cli.rows_written": 0, "cli.bytes_written": 0, "cli.distinct_outputs_ratio": 0.0}


class FigureBundles(Workload):
    """One operation writes one figure bundle through ``cli.main``, cycling fig2..fig10."""

    name = "figure-bundles"
    ROWS_CHECKED = 16

    def __init__(self, *args) -> None:
        super().__init__(*args)
        start = int(self.rng.integers(len(FIGURES)))
        self.labels = FIGURES[start:] + FIGURES[:start]
        self.reference: dict[str, dict] = {}
        self.sink = io.StringIO()

    def _main(self, argv) -> int:
        with contextlib.redirect_stderr(self.sink):
            return self.cli.main(argv)

    def run(self, label):
        return self._main(["figure", label, "--out-dir", str(self.scratch / "op")])

    def work(self, label, result) -> int:
        return self.reference.get(label, {}).get("rows", 0)

    def check(self, label, rc):
        self.sink.seek(0)
        self.sink.truncate()
        out = self.scratch / "op"
        try:
            if rc != 0:
                return True, []
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
            ref = self.reference.get(label)
            if ref is not None and ref["digests"] == digests:
                return ref["failed"], []
            failed, problems = self._check_bundle(label, files)
            if ref is not None:
                problems.append(f"{label}: bytes differ from the first pass")
            csvs = [n for n in files if n.endswith(".csv")]
            self.reference[label] = {
                "digests": digests,
                "failed": failed,
                "rows": sum(files[n].count(b"\n") - 1 for n in csvs),
                "bytes": sum(len(b) for b in files.values()),
                "csv_digests": [digests[n] for n in csvs],
            }
            return failed, problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_bundle(self, label: str, files: dict) -> tuple[bool, list[str]]:
        try:
            sidecar = json.loads(files[f"{label}_config.json"])
            report = json.loads(files["comparison_report.json"])
            runs = sidecar["runs"]
        except (KeyError, ValueError) as exc:
            return False, [f"{label}: bundle lacks a readable sidecar or report ({exc})"]
        problems = oracle.check_comparison_report(self.p, report)
        failed = False
        for run in runs:
            name = run.get("output")
            if name not in files:
                problems.append(f"{label}: sidecar names {name!r}, which was not written")
                continue
            problems += [f"{label}/{name}: {m}" for m in self._check_csv(run, runs, files)]
            if run.get("command") == "phase-unwrap":
                continue
            replayed = self._replay(run)
            if replayed is None:
                problems.append(f"{label}: sidecar run {run.get('command')!r} cannot be replayed")
            elif replayed != files[name]:
                failed = True
        return failed, problems

    def _rows(self, n: int) -> np.ndarray:
        return np.unique(self.rng.integers(0, n, self.ROWS_CHECKED))

    def _check_csv(self, run: dict, runs: list, files: dict) -> list[str]:
        command = run.get("command")
        data = files[run["output"]]
        if command == "spectrum":
            cols, problems = oracle.parse_csv(data, oracle.SPECTRUM_COLUMNS)
            if problems:
                return problems
            rows = self._rows(len(cols["T"]))
            p = run["params"]
            return oracle.check_spectrum_rows(p, p["pump_power"], {k: v[rows] for k, v in cols.items()})
        if command in ("delay-sweep", "width-sweep"):
            cols, problems = oracle.parse_csv(data, oracle.SWEEP_COLUMNS)
            if problems:
                return problems
            p = run["params"]
            delta = run["delta_over_omega_m"] * p["mirror_freq"]
            problems = oracle.check_widths(p, cols["power_w"], cols["gamma_rad_s"])
            if run["delta_over_omega_m"] == 1.0:
                problems += oracle.check_resonance_delay(p, cols["power_w"], cols["tau_r_s"])
            for i in self._rows(len(cols["power_w"])):
                problems += oracle.check_delays(p, cols["power_w"][i], delta, cols["tau_t_s"][i], cols["tau_r_s"][i])
            return problems
        if command == "dynamics":
            cols, problems = oracle.parse_csv(data, oracle.DYNAMICS_COLUMNS)
            if problems:
                return problems
            p = run["params"]
            span = run["t_span_s"]
            problems = oracle.check_steps(cols["t_s"], span, integration_steps(span, run["dt_s"]))
            rows = self._rows(len(cols["t_s"]))
            q_plus = cols["re_q_plus"][rows] + 1j * cols["im_q_plus"][rows]
            return problems + oracle.check_displacement(
                p, p["pump_power"], run["delta_over_omega_m"] * p["mirror_freq"],
                cols["t_s"][rows], q_plus, cols["q_total_m"][rows],
            )
        if command == "phase-unwrap":
            spectra = [r for r in runs if r.get("command") == "spectrum"]
            if len(spectra) != 1:
                return ["phase-unwrap run has no single spectrum to compare with"]
            spec, p1 = oracle.parse_csv(files[spectra[0]["output"]], oracle.SPECTRUM_COLUMNS)
            unwrapped, p2 = oracle.parse_csv(
                data, ("delta_rad_s", "delta_over_omega_m", "phase_t_unwrapped_rad")
            )
            if p1 or p2:
                return p1 + p2
            if np.any(spec["delta_rad_s"] != unwrapped["delta_rad_s"]):
                return ["unwrapped phase is not on the spectrum's grid"]
            return oracle.check_unwrapped_phase(spec["phase_t_rad"], unwrapped["phase_t_unwrapped_rad"])
        return [f"unknown sidecar command {command!r}"]

    def _replay(self, run: dict) -> bytes | None:
        """Bytes that ``cli.main`` writes for one sidecar run, with its params as --config."""
        work = self.scratch / "replay"
        work.mkdir(exist_ok=True)
        try:
            config = work / "params.json"
            config.write_text(json.dumps(run["params"]), encoding="utf-8")
            out = work / "out.csv"
            argv = [run["command"], "--config", str(config), "--out", str(out)]
            if run["command"] == "spectrum":
                grid = run["grid"]
                argv += ["--grid-min", repr(grid["min"]), "--grid-max", repr(grid["max"]), "--grid-n", str(grid["n"])]
            elif run["command"] in ("delay-sweep", "width-sweep"):
                argv += [
                    "--powers-uw", ",".join(repr(x) for x in run["powers_uw"]),
                    "--delta-over-omega-m", repr(run["delta_over_omega_m"]),
                ]
            elif run["command"] == "dynamics":
                pulse = run["pulse"]
                argv += [
                    "--pulse-shape", pulse["shape"],
                    "--pulse-amp", repr(pulse["amplitude"]),
                    "--pulse-width-s", repr(pulse["width_s"]),
                    "--pulse-center-s", repr(pulse["center_s"]),
                    "--t-start", repr(run["t_span_s"][0]),
                    "--t-end", repr(run["t_span_s"][1]),
                    "--dt", repr(run["dt_s"]),
                    "--delta-over-omega-m", repr(run["delta_over_omega_m"]),
                ]
            else:
                return None
            if self._main(argv) != 0 or not out.exists():
                return b""
            return out.read_bytes()
        except (KeyError, TypeError):
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def layer_counts(self) -> dict:
        refs = [self.reference[label] for label in self.labels if label in self.reference]
        csv_digests = [d for r in refs for d in r["csv_digests"]]
        return {
            "cli.rows_written": sum(r["rows"] for r in refs),
            "cli.bytes_written": sum(r["bytes"] for r in refs),
            "cli.distinct_outputs_ratio": len(set(csv_digests)) / len(csv_digests) if csv_digests else 0.0,
        }


class LongPulse(Workload):
    """A Gaussian probe several 1/Gamma long at 1 uW, integrated with rk4 and with expm."""

    name = "long-pulse"
    labels = ("pulse",)
    POWER = 1e-6
    WIDTH_GAMMAS = 4.0  # pulse width bound in units of 1/Gamma
    ROWS_CHECKED = 64

    def __init__(self, *args) -> None:
        super().__init__(*args)
        ce = self.ce
        self.derived = ce.derive(self.params, ce.DriveParams(pump_power=self.POWER))
        st = ce.solve_steady(self.params, self.derived)
        self.matrix = ce.build_matrix(self.om, self.params, self.derived, st)
        rho = self.matrix.spectral_radius
        self.dt = 0.1 / rho
        while self.dt * rho > 0.1:
            self.dt = math.nextafter(self.dt, 0.0)
        # the span and the step are fixed, so every seed integrates the same number of steps
        w_max = self.WIDTH_GAMMAS / oracle.gamma(self.p, self.POWER)
        self.span = (0.0, 40.0 * w_max)
        self.pulse = ce.PulseSpec(
            shape="gaussian",
            amplitude=float(self.rng.uniform(0.5, 2.0)),
            width=w_max * float(self.rng.uniform(0.9, 1.0)),
            center=20.0 * w_max,
        )
        self.steps = integration_steps(self.span, self.dt)

    def run(self, label):
        ce, params = self.ce, self.params
        derived = ce.derive(params, ce.DriveParams(pump_power=self.POWER))
        st = ce.solve_steady(params, derived)
        matrix = ce.build_matrix(self.om, params, derived, st)
        rk4 = ce.integrate(matrix, self.pulse, self.span, self.dt, method="rk4")
        expm = ce.integrate(matrix, self.pulse, self.span, self.dt, method="expm")
        rk4 = ce.reconstruct_displacement(rk4, st, self.om)
        return rk4, expm

    def work(self, label, result) -> int:
        return 2 * self.steps

    def check(self, label, result):
        rk4, expm = result
        problems = oracle.check_integrators(rk4, expm)
        problems += oracle.check_steps(rk4.times, self.span, self.steps)
        rows = np.unique(self.rng.integers(0, len(rk4.times), self.ROWS_CHECKED))
        problems += oracle.check_displacement(
            self.p, self.POWER, self.om, rk4.times[rows], rk4.q_plus[rows], rk4.q_total[rows]
        )
        return False, problems

    def finish(self) -> list[str]:
        """Under a constant drive run for 20/slowest_rate, both integrators reach c+(om)."""
        ce = self.ce
        drive = ce.PulseSpec(shape="constant", amplitude=self.pulse.amplitude, width=1.0)
        span = (0.0, 20.0 / self.matrix.slowest_rate)
        problems = []
        for method in ("rk4", "expm"):
            traj = ce.integrate(self.matrix, drive, span, self.dt, method=method)
            problems += [
                f"{method}: {m}"
                for m in oracle.check_fixed_point(self.p, self.POWER, self.om, self.pulse.amplitude, traj.c_plus[-1])
            ]
        return problems


WORKLOADS = {w.name: w for w in (FigureBundles, LongPulse)}
