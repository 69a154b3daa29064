"""Run two sets of ten benchmark runs of the same code and report each metric's spread against its bound.

    python3 bench/spread.py

Reads ``BENCHMARK.json`` at the root of the source tree and runs every
workload it lists for its ``run_seconds``, each run with a new seed.  For
each workload and end-to-end metric it prints, per set, the median and
the spread (distance between the first and third quartiles of
``statistics.quantiles(values, n=4)``, as a share of the median), and how
far the second set's median moved from the first, in either direction.
A spread above the metric's bound, a median that moved by more than the
bound, or a share of failed operations that is not the same in both sets
is marked ``FAIL``; the exit status is 1 if any is.  The whole report is
also written to ``bench/out/spread.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10


def one_run(command, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seed = 1
    report, bad = {}, 0
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(spec["command"], workload, seed, spec["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = {str(Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))) for s in sets}
        incorrect = sum(not r["correct"] for s in sets for r in s)
        print(f"{workload}: failed share {' / '.join(sorted(shares))}, incorrect runs {incorrect}")
        if len(shares) != 1 or incorrect:
            bad += 1
            print("  FAIL: failed share differs between sets or a run was incorrect")
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            moved = max(abs(med - medians[0]) / medians[0] for med in medians)
            fail = moved > bound or max(spreads) > bound
            bad += fail
            rows[name] = {"medians": medians, "spreads": spreads, "moved": moved, "bound": bound, "values": per_set}
            print(
                f"  {name:12s} median {' '.join(f'{x:.6g}' for x in medians):28s} "
                f"spread {' '.join(f'{x:.3f}' for x in spreads):14s} moved {moved:.3f} "
                f"bound {bound:.2f} {'FAIL' if fail else 'ok'}"
            )
        report[workload] = {"failed_shares": sorted(shares), "incorrect_runs": incorrect, "metrics": rows}
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "spread.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
