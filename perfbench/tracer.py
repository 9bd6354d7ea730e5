"""Spans around the public functions of lqbundle's layers, taken from outside.

The program is not changed: `install` replaces every public function of each
layer module by a recording wrapper, in every lqbundle module namespace that
binds it (modules that import a function by name hold their own reference,
so wrapping the defining module alone would miss those calls).  Spans stay in
memory and are written out once, by `Tracer.dump`.  `layer_metrics` turns the
spans of one verify pass into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter

LAYERS = (
    "certify",
    "dichotomy",
    "frequency",
    "sampling",
    "spatial",
    "spectral",
    "stationary",
    "symplectic",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(paths) -> int:
    if isinstance(paths, str):
        paths = [paths]
    return sum(os.path.getsize(p) for p in paths)


# Counts taken from a call's result: span name -> function of the result
# returning {counter: increment}.
_SPAN_COUNTS = {
    "certify.export_plots": lambda r: {"export_bytes": _file_bytes(r)},
    "certify.write_certificate": lambda r: {"export_bytes": _file_bytes(r)},
    "spatial.build_fibers": lambda r: {
        "fiber_phases": len(r),
        "picard_iterations": r[0].n_iterations if r else 0,
    },
    "spatial.sa_trajectory": lambda r: {"trajectory_steps": r.times.size - 1},
}


class Tracer:
    """In-memory spans: name, start, end, parent index and ru_maxrss at both ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = _SPAN_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else -1,
                "rss0": _maxrss_mb(),
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss1"] = _maxrss_mb()
                self._stack.pop()
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def counter(self, key: str, fn, amount=lambda args: 1):
        """Wrap a method that is too hot for a span: count its calls only."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += amount(args)
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions everywhere lqbundle binds them."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lqbundle.{layer}")
        for attr, fn in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
            ):
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "lqbundle" or name.startswith("lqbundle.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    frequency = importlib.import_module("lqbundle.frequency")
    evaluator = frequency.TransferEvaluator
    evaluator.margin_at = tracer.counter("margin_evals", evaluator.margin_at)
    stationary = importlib.import_module("lqbundle.stationary")
    lp = stationary._StationaryLP
    # _StationaryLP(a, b, form, split_a, split_m, times): one per LP grid
    lp.__init__ = tracer.counter("lp_grid_nodes", lp.__init__, lambda args: len(args[6]))


# -- per-layer metrics -------------------------------------------------------


def _children(spans):
    kids = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span["parent"] >= 0:
            kids[span["parent"]].append(idx)
    return kids


def _ancestors(spans, idx):
    parent = spans[idx]["parent"]
    while parent >= 0:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def layer_metrics(spans, counts, import_s: float) -> dict:
    """The per-layer metrics of one traced verify pass, as {name: (value, unit)}."""
    kids = _children(spans)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in kids[i])

    def pick(names):
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def inclusive(names):
        return sum(dur(i) for i in pick(names))

    def selfs(names):
        return sum(self_time(i) for i in pick(names))

    def rss_rise(names):
        return sum(spans[i]["rss1"] - spans[i]["rss0"] for i in pick(names))

    def outermost(names, layer):
        """Inclusive time of spans with no ancestor span in `layer`."""
        return sum(
            dur(i)
            for i in pick(names)
            if not any(a.startswith(layer + ".") for a in _ancestors(spans, i))
        )

    def per(total, n, scale):
        return total * scale / n if n else 0.0

    pipelines = ("certify.run_pipeline", "certify.run_stationary_pipeline",
                 "certify.run_sa_pipeline")
    scan = "frequency.frequency_condition_margin"
    scan_s = inclusive(scan)
    eps0_scans = sum(
        1 for i in pick(scan)
        if "stationary.estimate_eps0" in set(_ancestors(spans, i))
    )
    fibers_s = selfs("spatial.build_fibers")
    traj_s = inclusive("spatial.sa_trajectory")
    symp = {s["name"] for s in spans if s["name"].startswith("symplectic.")}
    export = ("certify.export_plots", "certify.write_certificate")
    stat_traj = ("stationary.hamiltonian_trajectory",
                 "stationary.integrate_control_trajectory",
                 "stationary.pairing_drift")
    c = counts
    return {
        "lqbundle.import_s": (import_s, "s"),
        "certify.load_s": (inclusive("certify.load_scenario"), "s"),
        "certify.pipeline_self_s": (selfs(pipelines), "s"),
        "certify.export_s": (inclusive(export), "s"),
        "certify.export_bytes": (c["export_bytes"], "bytes"),
        "frequency.scan_s": (scan_s, "s"),
        "frequency.scan_calls": (len(pick(scan)), "count"),
        "frequency.margin_evals": (c["margin_evals"], "count"),
        "frequency.us_per_eval": (per(scan_s, c["margin_evals"], 1e6), "us"),
        "dichotomy.split_s": (inclusive("dichotomy.dichotomy_split"), "s"),
        "dichotomy.split_calls": (len(pick("dichotomy.dichotomy_split")), "count"),
        "stationary.lp_s": (selfs("stationary.stable_lagrange_lp"), "s"),
        "stationary.lp_grid_nodes": (c["lp_grid_nodes"], "count"),
        "stationary.lp_rss_rise_mb": (rss_rise("stationary.stable_lagrange_lp"), "MB"),
        "stationary.eps0_s": (inclusive("stationary.estimate_eps0"), "s"),
        "stationary.eps0_scans": (eps0_scans, "count"),
        "stationary.schur_s": (inclusive("stationary.stable_lagrange_schur"), "s"),
        "stationary.coercivity_s": (inclusive("stationary.coercivity_check"), "s"),
        "stationary.lyapunov_s": (inclusive("stationary.lyapunov_inequality_check"), "s"),
        "stationary.trajectory_s": (outermost(stat_traj, "stationary"), "s"),
        "spatial.fibers_s": (fibers_s, "s"),
        "spatial.fiber_phases": (c["fiber_phases"], "count"),
        "spatial.picard_iterations": (c["picard_iterations"], "count"),
        "spatial.ms_per_picard_sweep": (per(fibers_s, c["picard_iterations"], 1e3), "ms"),
        "spatial.contraction_s": (inclusive("spatial.contraction_certificate"), "s"),
        "spatial.contraction_rss_rise_mb": (
            rss_rise("spatial.contraction_certificate"), "MB"),
        "spatial.trajectory_s": (traj_s, "s"),
        "spatial.trajectory_steps": (c["trajectory_steps"], "count"),
        "spatial.us_per_trajectory_step": (per(traj_s, c["trajectory_steps"], 1e6), "us"),
        "spatial.vform_s": (inclusive("spatial.v_form_certificate"), "s"),
        "spatial.gap_search_s": (inclusive("spatial.gap_search"), "s"),
        "symplectic.s": (outermost(symp, "symplectic"), "s"),
        "symplectic.calls": (len(pick(symp)), "count"),
    }
