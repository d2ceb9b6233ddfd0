"""Outside-in layer spans for modchain's solver.

`solve_chain` looks up `enumerate_base_solutions`, `compute_lift_plan`,
`lift_balanced` and `lift_unbalanced` as attributes of `modchain.solver` at
call time. `LayerTracer` rebinds those attributes to timing wrappers while it
is active and puts the originals back on exit, whatever the solve did. Every
count is read from the wrapped call's arguments and return value (the
`LiftPlan` and the length of the returned lists), never from inside the
program, so the counts repeat exactly from run to run. Only calls made in
this process are seen, so trace serial solves.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict


def _plan_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["plan"]


def _base_counts(args, kwargs, classes) -> dict[str, int]:
    return {"calls": 1, "classes": len(classes)}


def _plan_counts(args, kwargs, plan) -> dict[str, int]:
    combos = plan.chi * math.prod(p.count for p in plan.lift_sets)
    return {"calls": 1, "ordered_combos": combos}


def _mitm_counts(args, kwargs, emitted) -> dict[str, int]:
    plan = _plan_arg(args, kwargs)
    sizes = [p.count for p in plan.lift_sets]
    k = plan.split_index
    entries = plan.chi * math.prod(sizes[:k]) + math.prod(sizes[k:])
    return {"calls": 1, "table_entries": entries, "emitted": len(emitted)}


def _dlog_counts(args, kwargs, emitted) -> dict[str, int]:
    plan = _plan_arg(args, kwargs)
    combos = math.prod(p.count for p in plan.lift_sets)
    return {"calls": 1, "combos": combos, "emitted": len(emitted)}


# attribute of modchain.solver -> (layer name, counter over (args, kwargs, result))
WRAPPED = {
    "enumerate_base_solutions": ("base", _base_counts),
    "compute_lift_plan": ("plan", _plan_counts),
    "lift_balanced": ("mitm", _mitm_counts),
    "lift_unbalanced": ("dlog_lift", _dlog_counts),
}
LAYERS = tuple(layer for layer, _ in WRAPPED.values())


class LayerTracer:
    """Times the solver's public layer functions for the duration of a `with` block.

    `spans` holds (layer, start, end) for every wrapped call. Spans of one
    traced solve share the tracer, which is that solve's identifier.
    """

    def __init__(self, solver_module):
        self.solver = solver_module
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._saved: dict = {}

    def __enter__(self) -> "LayerTracer":
        try:
            for name, (layer, count) in WRAPPED.items():
                original = getattr(self.solver, name)
                self._saved[name] = original
                setattr(self.solver, name, self._wrap(layer, original, count))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        for name, original in self._saved.items():
            setattr(self.solver, name, original)
        self._saved.clear()

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append((layer, start, time.perf_counter()))
            totals = self.counts[layer]
            for key, value in count(args, kwargs, result).items():
                totals[key] += value
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """{layer: {"busy_s": seconds, <count>: n, ...}} over every wrapped call."""
        out: dict[str, dict[str, float]] = {
            layer: {"busy_s": 0.0, **self.counts.get(layer, {})} for layer in LAYERS
        }
        for layer, start, end in self.spans:
            out[layer]["busy_s"] += end - start
        return out

    def busy(self) -> float:
        """Seconds spent inside wrapped layer calls."""
        return sum(end - start for _, start, end in self.spans)
