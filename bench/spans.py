"""Spans around calls into the program's public functions, kept in memory.

A ``Tracer`` replaces each traced function by a wrapper in every module
namespace that holds it, including the names ``cli`` and ``response``
imported into their own namespaces, so calls the library makes to itself
are recorded with their parent.  Each span holds its name, its layer (the
module that defines the function), its parent, the operation it belongs
to, start and end, whether it raised, and counts read from its arguments
and result.  Counts are taken after the end is stamped; a parent's self
time excludes that bookkeeping as well as its children.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import time

import numpy as np

import workloads

TRACED = (
    "main",
    "comparison_report",
    "spectrum",
    "power_sweep",
    "group_delay_analytic",
    "group_delay_fd",
    "solve_steady",
    "derive",
    "build_matrix",
    "integrate",
    "reconstruct_displacement",
)


def _nans(*arrays) -> int:
    return int(sum(np.count_nonzero(np.isnan(np.asarray(a, dtype=float))) for a in arrays))


def _spectrum_counts(bound, out) -> dict:
    digest = hashlib.sha256(out.delta.tobytes() + out.eps_t.tobytes()).hexdigest()
    return {"points": len(out.delta), "nan": _nans(out.tau_t, out.tau_r), "digest": digest}


def _sweep_counts(bound, out) -> dict:
    return {"points": len(out), "nan": _nans([p.tau_t for p in out], [p.tau_r for p in out])}


def _delay_counts(bound, out) -> dict:
    return {"nan": _nans(out.tau_t, out.tau_r)}


def _integrate_counts(bound, out) -> dict:
    steps = workloads.integration_steps(bound.arguments["t_span"], bound.arguments["dt"])
    return {"method": bound.arguments["method"], "steps": steps}


_COUNTS = {
    "spectrum": _spectrum_counts,
    "power_sweep": _sweep_counts,
    "group_delay_analytic": _delay_counts,
    "group_delay_fd": _delay_counts,
    "integrate": _integrate_counts,
}


class Tracer:
    """Records spans while installed; ``op`` opens the root span of one operation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "op": self._op,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "raised": True,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    @contextlib.contextmanager
    def op(self, label: str):
        self._op = len(self.spans)
        span = self._open(label, "bench")
        span["t0"] = time.perf_counter()
        try:
            yield
            span["raised"] = False
        finally:
            span["t1"] = span["t_out"] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            span["t0"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span["raised"] = False
                return out
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
                if counts is not None and not span["raised"]:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counts(bound, out))
                span["t_out"] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every traced function in each of ``modules`` that holds it; restore on exit."""
        originals = {}
        for name in TRACED:
            for mod in modules:
                fn = getattr(mod, name, None)
                if fn is not None and name not in originals and getattr(fn, "__module__", "").startswith("cavity_eit"):
                    originals[name] = fn
        wrappers = {name: self.wrap(fn) for name, fn in originals.items()}
        patched = []
        try:
            for mod in modules:
                for name, fn in originals.items():
                    if getattr(mod, name, None) is fn:
                        setattr(mod, name, wrappers[name])
                        patched.append((mod, name, fn))
            yield
        finally:
            for mod, name, fn in patched:
                setattr(mod, name, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the intervals its children (and their bookkeeping) cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["t_out"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[dict], passes: int) -> dict:
    """Per-layer metrics per pass of the workload, from the spans of ``passes`` traced passes."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def of(*names):
        return [s for s in spans if s["name"] in names and s["layer"] != "bench"]

    def total(items):
        return sum(s["t1"] - s["t0"] for s in items)

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def outermost(s):
        parent = by_id.get(s["parent"])
        return parent is None or parent["layer"] != "response"

    spectra = of("spectrum")
    integrations = of("integrate")
    rk4 = [s for s in integrations if s.get("method") == "rk4"]
    expm = [s for s in integrations if s.get("method") == "expm"]
    rk4_steps = sum(s["steps"] for s in rk4)
    expm_steps = sum(s["steps"] for s in expm)
    spectrum_points = sum(s["points"] for s in spectra)
    delay_spans = of("spectrum", "power_sweep", "group_delay_analytic", "group_delay_fd")
    cli_self = sum(t for s, t in zip(spans, own) if s["layer"] == "cli")
    return {
        "cli.main_s": per_pass(total(of("main"))),
        "cli.self_s": per_pass(cli_self),
        "cli.comparison_report_calls": per_pass(len(of("comparison_report"))),
        "cli.comparison_report_s": per_pass(total(of("comparison_report"))),
        "response.spectrum_calls": per_pass(len(spectra)),
        "response.spectrum_s": per_pass(total(spectra)),
        "response.spectrum_points": per_pass(spectrum_points),
        "response.spectrum_us_per_point": ratio(total(spectra) * 1e6, spectrum_points),
        "response.distinct_spectra_ratio": ratio(len({s["digest"] for s in spectra}) * passes, len(spectra)),
        "response.power_sweep_calls": per_pass(len(of("power_sweep"))),
        "response.power_sweep_s": per_pass(total(of("power_sweep"))),
        "response.group_delay_s": per_pass(total(of("group_delay_analytic", "group_delay_fd"))),
        "response.nan_delays": per_pass(sum(s.get("nan", 0) for s in delay_spans if outermost(s))),
        "response.self_s": per_pass(sum(t for s, t in zip(spans, own) if s["layer"] == "response")),
        "steady_state.solve_calls": per_pass(len(of("solve_steady"))),
        "steady_state.solve_s": per_pass(total(of("solve_steady"))),
        "params.derive_calls": per_pass(len(of("derive"))),
        "dynamics.build_matrix_s": per_pass(total(of("build_matrix"))),
        "dynamics.integrate_s": per_pass(total(integrations)),
        "dynamics.rk4_steps": per_pass(rk4_steps),
        "dynamics.rk4_us_per_step": ratio(total(rk4) * 1e6, rk4_steps),
        "dynamics.expm_steps": per_pass(expm_steps),
        "dynamics.expm_us_per_step": ratio(total(expm) * 1e6, expm_steps),
        "dynamics.reconstruct_s": per_pass(total(of("reconstruct_displacement"))),
        "trace.raised_calls": per_pass(sum(1 for s in spans if s["raised"] and s["layer"] != "bench")),
        "trace.spans": per_pass(sum(1 for s in spans if s["layer"] != "bench")),
    }
