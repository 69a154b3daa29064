"""Benchmark of cavity-eit: one workload, driven in-process, checked against oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The program is imported from
``src/`` at its defaults (``CAVITY_EIT_THREADS`` is removed from the
environment) and driven through its public functions and ``cli.main``
in a closed loop: the next operation starts when the previous one
returns, and the run always completes whole passes of the workload.
Each operation's outputs are checked, untimed, right after it returns.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, the spans are written to ``bench/out/spans-<workload>.json``
and the per-layer metrics are printed instead.  The exit status is 0
when the run completed (``correct`` says whether its outputs passed) and
2 when the source tree or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# fresh interpreters timed per run for setup_s; the first, which may
# compile bytecode, is discarded
SETUP_SAMPLES = 15
MAX_PROBLEMS_SHOWN = 20


def fresh_import_seconds(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import cavity_eit and cavity_eit.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import cavity_eit, cavity_eit.cli"]
    times = []
    for _ in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times[1:]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cavity_eit" / "__init__.py").is_file() or not (SRC / "cavity_eit" / "cli.py").is_file():
        print(f"error: no cavity_eit package under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    os.environ.pop("CAVITY_EIT_THREADS", None)

    setup = [] if args.trace else fresh_import_seconds(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import cavity_eit as ce
    from cavity_eit import cli, dynamics, params, response, steady_state

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](ce, cli, np.random.default_rng(args.seed), scratch)
        return measure(args, wl, setup, (ce, params, steady_state, response, dynamics, cli))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, wl, setup, modules) -> int:
    problems: list[str] = []
    # warm-up pass: untimed and uncounted, but checked
    for label in wl.labels:
        try:
            result = wl.run(label)
        except Exception:  # counted when the timed passes meet it
            continue
        problems += wl.check(label, result)[1]

    tracer = spans.Tracer()
    durations = {False: [], True: []}
    attempted = failed = work = 0
    timed = 0.0
    passes = traced_passes = 0
    while timed < args.seconds or passes < 1 + args.trace:
        traced = bool(args.trace) and passes % 2 == 1
        with tracer.installed(modules) if traced else contextlib.nullcontext():
            for label in wl.labels:
                op = tracer.op(label) if traced else contextlib.nullcontext()
                result = None
                with op:
                    t0 = time.perf_counter()
                    try:
                        result = wl.run(label)
                        raised = None
                    except Exception as exc:  # a failed operation, counted and reported
                        raised = exc
                    elapsed = time.perf_counter() - t0
                attempted += 1
                timed += elapsed
                durations[traced].append(elapsed)
                if raised is not None:
                    failed += 1
                    problems.append(f"{label} raised {raised!r}")
                    continue
                op_failed, op_problems = wl.check(label, result)
                failed += op_failed
                problems += op_problems
                if not op_failed:
                    work += wl.work(label, result)
                result = None
        passes += 1
        traced_passes += traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.finish()

    for line in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check: {line}", file=sys.stderr)
    untraced = statistics.median(durations[False])
    if args.trace:
        tracer.write(OUT / f"spans-{wl.name}.json")
        values = spans.layer_metrics(tracer.spans, traced_passes)
        values.update(wl.layer_counts())
        rows = values["cli.rows_written"]
        values["cli.us_per_row"] = values["cli.self_s"] * 1e6 / rows if rows else 0.0
        values["trace.op_s.p50"] = statistics.median(durations[True])
        values["trace.overhead_s"] = values["trace.op_s.p50"] - untraced
        metrics = {name: metric(values[name], unit) for name, unit in UNITS.items()}
    else:
        busy = sum(durations[False])
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "op_s.p50": metric(untraced, "s"),
            "work_per_s": metric(work / busy, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


UNITS = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "cli.us_per_row": "us",
    "cli.comparison_report_calls": "count",
    "cli.comparison_report_s": "s",
    "cli.distinct_outputs_ratio": "ratio",
    "response.spectrum_calls": "count",
    "response.spectrum_s": "s",
    "response.spectrum_points": "count",
    "response.spectrum_us_per_point": "us",
    "response.distinct_spectra_ratio": "ratio",
    "response.power_sweep_calls": "count",
    "response.power_sweep_s": "s",
    "response.group_delay_s": "s",
    "response.nan_delays": "count",
    "response.self_s": "s",
    "steady_state.solve_calls": "count",
    "steady_state.solve_s": "s",
    "params.derive_calls": "count",
    "dynamics.build_matrix_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_us_per_step": "us",
    "dynamics.expm_steps": "count",
    "dynamics.expm_us_per_step": "us",
    "dynamics.reconstruct_s": "s",
    "trace.op_s.p50": "s",
    "trace.overhead_s": "s",
    "trace.raised_calls": "count",
    "trace.spans": "count",
}


if __name__ == "__main__":
    sys.exit(main())
