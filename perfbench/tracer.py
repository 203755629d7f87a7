"""Spans and counts around the calls into each fracgap module, recorded from
the benchmark's side without editing the library.

Every public function of a measured module is wrapped at every fracgap
module that binds it (`cli.exit_time`, `bounds.assemble`,
`montecarlo.contains`, ...), together with `operator.cho_factor`,
`KilledOperator.matrix` and `cli.main`. The wrappers exist only inside
`Tracer.patched()`; leaving it puts every original binding back. Untraced
runs never import this module.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

# constants is closed-form and takes microseconds, so it is not measured
LAYERS = ("geometry", "operator", "spectra", "bounds", "montecarlo")
ROOT_SPAN = "cli.main"


def _modules() -> dict[str, object]:
    mods = {name: importlib.import_module(f"fracgap.{name}") for name in (*LAYERS, "cli")}
    mods["fracgap"] = importlib.import_module("fracgap")
    return mods


def _size_of(args, kwargs, pos: int) -> int:
    size = kwargs.get("size", args[pos] if len(args) > pos else None)
    return 1 if size is None else int(size)


def _set_max(counts: Counter, key: str, value: int) -> None:
    counts[key] = max(counts[key], value)


# counters taken at the same boundaries as the spans: name -> hook(counts, args, kwargs, result)
HOOKS = {
    "operator.assemble": lambda c, a, k, r: _set_max(c, "operator.n_max", r.n),
    "operator.KilledOperator.matrix": lambda c, a, k, r: c.update({"operator.dense_bytes": 8 * a[0].n ** 2}),
    "operator.cho_factor": lambda c, a, k, r: c.update({"operator.cho_factor.flops": a[0].shape[0] ** 3 / 3.0}),
    "spectra.eigenpairs": lambda c, a, k, r: c.update({"spectra.eigh.flops": 4.0 * a[0].n ** 3 / 3.0}),
    "geometry.rasterize": lambda c, a, k, r: _set_max(c, "geometry.lattice_cells", math.prod(r.dims)),
    "montecarlo.sample_stable_increment": lambda c, a, k, r: c.update(
        {"montecarlo.increments_sampled": _size_of(a, k, 3)}
    ),
    # every path's exit time is (steps walked) * delta, so the mean recovers the total exactly
    "montecarlo.estimate_exit": lambda c, a, k, r: c.update(
        {
            "montecarlo.paths": a[0].paths,
            "montecarlo.steps_used": round(r.mean_exit_time * a[0].paths / a[0].delta),
        }
    ),
}


def traced_functions(mods: dict[str, object]) -> list[tuple[str, object]]:
    """(span name, function) for every measured public function."""
    found = []
    for layer in LAYERS:
        mod = mods[layer]
        for attr, fn in sorted(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found.append((f"{layer}.{attr}", fn))
    found.append(("operator.cho_factor", mods["operator"].cho_factor))
    found.append((ROOT_SPAN, mods["cli"].main))
    return found


class Tracer:
    """Spans [name, start, end, parent index] and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers at every binding; restore all of them on exit."""
        mods = _modules()
        saved: list[tuple[object, str, object]] = []
        try:
            for name, fn in traced_functions(mods):
                wrapper = self.wrap(name, fn)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            saved.append((mod, attr, val))
                            setattr(mod, attr, wrapper)
            cls = mods["operator"].KilledOperator
            saved.append((cls, "matrix", cls.matrix))
            cls.matrix = self.wrap("operator.KilledOperator.matrix", cls.matrix)
            yield self
        finally:
            for owner, attr, val in reversed(saved):
                setattr(owner, attr, val)


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter, list[str]]:
    """Self time and call count per span name, plus violations of the span invariants:
    every child lies inside its parent and no self time is negative."""
    child = [0.0] * len(spans)
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {name} is not inside its parent {spans[parent][0]}")
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        own = (end - start) - child[i]
        if own < 0.0:
            problems.append(f"span {i} {name} has negative self time {own!r}")
        self_s[name] += own
        calls[name] += 1
    return self_s, calls, problems


def layer_metrics(tracer: Tracer, op_wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced op. A layer the op never calls reads 0."""
    self_s, calls, problems = self_times(tracer.spans)
    c = tracer.counts
    inclusive_mc = sum(e - s for name, s, e, _ in tracer.spans if name == "montecarlo.estimate_exit")

    def rate(flops: float, seconds: float) -> float:
        return flops / seconds / 1e9 if seconds > 0.0 else 0.0

    m = {
        "operator.assemble.self_s": self_s["operator.assemble"],
        "operator.assemble.calls": calls["operator.assemble"],
        "operator.n_max": c["operator.n_max"],
        "operator.dense_builds": calls["operator.KilledOperator.matrix"],
        "operator.dense_bytes": c["operator.dense_bytes"],
        "operator.cho_factor.calls": calls["operator.cho_factor"],
        "operator.cho_factor.self_s": self_s["operator.cho_factor"],
        "operator.cho_factor.gflops": rate(c["operator.cho_factor.flops"], self_s["operator.cho_factor"]),
        "operator.exit_time.self_s": self_s["operator.exit_time"],
        "operator.sup_exit_time.self_s": self_s["operator.sup_exit_time"],
        "spectra.eigenpairs.self_s": self_s["spectra.eigenpairs"],
        "spectra.eigenpairs.calls": calls["spectra.eigenpairs"],
        "spectra.eigh.gflops": rate(c["spectra.eigh.flops"], self_s["spectra.eigenpairs"]),
        "spectra.level_set_report.self_s": self_s["spectra.level_set_report"],
        "spectra.export_eigenpairs_csv.self_s": self_s["spectra.export_eigenpairs_csv"],
        "geometry.rasterize.self_s": self_s["geometry.rasterize"],
        "geometry.rasterize.calls": calls["geometry.rasterize"],
        "geometry.lattice_cells": c["geometry.lattice_cells"],
        "geometry.contains.self_s": self_s["geometry.contains"],
        "geometry.contains.calls": calls["geometry.contains"],
        "montecarlo.estimate_exit.self_s": self_s["montecarlo.estimate_exit"],
        "montecarlo.us_per_path": 1e6 * inclusive_mc / c["montecarlo.paths"] if c["montecarlo.paths"] else 0.0,
        "montecarlo.increments_sampled": c["montecarlo.increments_sampled"],
        "montecarlo.steps_used": c["montecarlo.steps_used"],
        "montecarlo.useful_ratio": (
            c["montecarlo.steps_used"] / c["montecarlo.increments_sampled"]
            if c["montecarlo.increments_sampled"]
            else 0.0
        ),
        "bounds.build_report.self_s": self_s["bounds.build_report"],
        "bounds.two_ball_experiment.self_s": self_s["bounds.two_ball_experiment"],
        "bounds.run_suite.self_s": self_s["bounds.run_suite"],
        "cli.self_s": self_s[ROOT_SPAN],
    }
    top = sum(e - s for _, s, e, parent in tracer.spans if parent < 0)
    if top > op_wall_s:
        problems.append(f"root spans cover {top!r} s, more than the op wall time {op_wall_s!r} s")
    return m, problems
