"""In-memory spans and counters around the public functions of holonomy_lab.

`Recorder.install()` replaces every public function (any module-level
function whose name has no leading underscore) of the layer modules,
and the methods listed in METHODS, with a recording wrapper. The wrapper is
bound at every place the package looks the original up: the defining module,
every other `holonomy_lab` module that imported the name (`sweep.propagate`,
`phases.connection_many`, `frames.inner`, ...) and the package namespace.
`uninstall()` restores the originals, so the untraced passes of a run call
the library exactly as a user would.

Spans record name, start, end, parent span and item id (sweep row, schedule
or gauge draw). Scalar callables that run thousands of times per item only
count their calls (COUNTED); their time lands in the enclosing span's self
time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "config", "sweep", "spin_model", "evolution", "phases", "frames", "hilbert")

# (module, class, method) -> metric name
METHODS = {
    ("evolution", "HamiltonianSchedule", "sample"): "evolution.sample",
    ("frames", "MovingFrame", "value"): "frames.MovingFrame.value",
    ("frames", "MovingFrame", "value_many"): "frames.MovingFrame.value_many",
    ("frames", "MovingFrame", "derivative"): "frames.MovingFrame.derivative",
}

COUNTED = frozenset({
    "frames.connection",
    "frames.MovingFrame.value",
    "frames.MovingFrame.derivative",
    "hilbert.inner",
})

# Spans of these functions define the item id of everything below them.
ITEM_SPANS = {"sweep.run_point": "row"}


def _propagate_stats(traj) -> dict:
    return {"steps": traj.grid.steps, "dim": traj.dim}


# name -> function of the return value giving numbers to keep on the span
ANNOTATE = {
    "evolution.propagate": _propagate_stats,
    "evolution.sample": lambda hams: {"matrices": len(hams)},
    "phases.cyclic_geometric_phase": lambda report: {"route_gap": report.route_agreement},
    "sweep.run_point": lambda row: {"steps_used": row.steps_used, "ok": row.status == "ok"},
}


class Recorder:
    """Spans and counters of one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item, stats]
        self._cells = {name: [0] for name in COUNTED}
        self.item = None
        self._current = None
        self._item_seq = 0
        self._patches: list[tuple] = []

    @property
    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def reset(self) -> None:
        self.spans = []
        for cell in self._cells.values():
            cell[0] = 0
        self.item = None
        self._current = None
        self._item_seq = 0

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        item_kind = ITEM_SPANS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            outer_item = self.item
            if item_kind is not None:
                self.item = f"{item_kind}{self._item_seq}"
                self._item_seq += 1
            span = [name, perf(), 0.0, parent, self.item, None]
            self.spans.append(span)
            self._current = len(self.spans) - 1
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    try:
                        span[5] = annotate(result)
                    except (AttributeError, TypeError):
                        pass  # the return value changed shape; tracing must not fail the call
                return result
            finally:
                span[2] = perf()
                self._current = parent
                self.item = outer_item

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self._cells[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        # A layer, class or method that a later library change removes is
        # skipped, and its metrics read 0.
        modules = {layer: sys.modules[f"holonomy_lab.{layer}"] for layer in LAYERS
                   if f"holonomy_lab.{layer}" in sys.modules}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        package = [m for n, m in sys.modules.items() if n == "holonomy_lab" or n.startswith("holonomy_lab.")]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def dump(self, fh, pass_index: int) -> None:
        """One JSON line per span, then one for the counters."""
        for sid, (name, start, end, parent, item, stats) in enumerate(self.spans):
            rec = {"pass": pass_index, "id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "item": item}
            if stats:
                rec["stats"] = stats
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"pass": pass_index, "counters": self.counts}) + "\n")


def pass_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: `<name>.calls` and `<name>.self_s`
    for every span name, `<name>.calls` for every counter, and derived stats."""
    selfs = rec.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    run_point_ms = []
    steps = work_d3 = matrices = 0
    state_bytes = 0
    route_gap = 0.0
    for (name, start, end, _, _, stats), s in zip(rec.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        layer_self[name.split(".", 1)[0]] += s
        if stats is None:
            continue
        if name == "evolution.propagate":
            steps += stats["steps"]
            work_d3 += stats["steps"] * stats["dim"] ** 3
            state_bytes = max(state_bytes, (stats["steps"] + 1) * stats["dim"] * 16)
        elif name == "evolution.sample":
            matrices += stats["matrices"]
        elif name == "phases.cyclic_geometric_phase" and stats["route_gap"] is not None:
            route_gap = max(route_gap, stats["route_gap"])
        elif name == "sweep.run_point":
            run_point_ms.append(1e3 * (end - start))

    m: dict[str, float] = {}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    propagate_s = sum(e - s for n, s, e, *_ in rec.spans if n == "evolution.propagate")
    m["evolution.propagate.steps"] = steps
    m["evolution.propagate.ns_per_step"] = 1e9 * propagate_s / steps if steps else 0.0
    m["evolution.propagate.work_d3"] = work_d3
    m["evolution.propagate.state_mb"] = state_bytes / 1e6
    m["evolution.sample.matrices"] = matrices
    m["phases.route_gap_max"] = route_gap
    m["sweep.run_point.p50_ms"] = float(np.percentile(run_point_ms, 50)) if run_point_ms else 0.0
    m["sweep.run_point.p95_ms"] = float(np.percentile(run_point_ms, 95)) if run_point_ms else 0.0
    for name in sorted(COUNTED):
        m[f"{name}.calls"] = rec.counts[name]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["trace.library_share"] = sum(selfs) / wall_s
    return m
