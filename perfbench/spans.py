"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is (name, start, end, parent) plus one number a result hook may
attach (a result size, say). Spans are kept in flat arrays while the traced
process runs and written out once, at the end, with `SpanRecorder.dump`.
`layer_metrics` turns a dump into the benchmark's per-layer metrics.

Layers are the widthlab modules (ROADMAP aim 1):
L0 `cubes`, L1/L2 `measures`, L3 `spectrum`/`coarse`/`partition`/`orders`,
L4 `empirical`, plus `reports`. `install_widthlab_tracing` wraps their public
functions from outside the package: nothing under `src/` is edited.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class SpanRecorder:
    """Records nested spans of wrapped callables in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_result=None, key=None):
        """`fn` recording one span per call.

        `on_result(args, kwargs, result)` gives the span's extra number;
        `key(args, kwargs)` gives a hashable whose distinct values are counted
        under `name`, for reuse ratios.
        """
        nid = self._id(name)
        keys = self.keys.setdefault(name, set()) if key is not None else None
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.extra.append(0.0)
            if keys is not None:
                keys.add(key(args, kwargs))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_result is not None:
                self.extra[idx] = on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        """`fn` counting its calls without a span (for the cheapest calls)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans (.npz) and the counters (.json beside it)."""
        np.savez(
            path.with_suffix(".npz"),
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            extra=np.asarray(self.extra),
        )
        meta = {
            "names": self.names,
            "counts": self.counts,
            "distinct": {name: len(ks) for name, ks in self.keys.items()},
        }
        path.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True))


def load_spans(path: Path) -> dict:
    data = np.load(path.with_suffix(".npz"))
    meta = json.loads(path.with_suffix(".json").read_text())
    return {**{k: data[k] for k in data.files}, **meta}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the part its direct children cover.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of it and their durations add up.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(covered, parent[inner], dur[inner])
    return dur - covered


def _per_name(spans: dict) -> dict[str, dict[str, float]]:
    names = spans["names"]
    nid = spans["name_id"]
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    out = {}
    for i, name in enumerate(names):
        mask = nid == i
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(selfs[mask].sum()),
            "extra": float(spans["extra"][mask].sum()),
        }
    return out


def _extra_under(spans: dict, name: str, parent_name: str) -> float:
    """Sum of `name` spans' extra numbers whose direct parent is `parent_name`."""
    names = spans["names"]
    if name not in names or parent_name not in names:
        return 0.0
    nid, parent = spans["name_id"], spans["parent"]
    mask = nid == names.index(name)
    has_parent = mask & (parent >= 0)
    under = nid[parent[has_parent]] == names.index(parent_name)
    return float(spans["extra"][has_parent][under].sum())


# Spans: (metric prefix, module, qualified attribute, result hook, key).
def _len(args, kwargs, result):
    return float(len(result))


def _child_yield(args, kwargs, result):
    return len(result) / (1 << args[1].m)


def _card(args, kwargs, result):
    return float(result.card)


def _model_level(args, kwargs):
    return (id(args[0]), args[1])


def _rho_t(args, kwargs):
    return (args[1], args[2])


SPAN_TARGETS = [
    ("measures.mass", "measures", "*.mass", None, None),
    ("measures.positive_children", "measures", "*.positive_children", _child_yield, None),
    ("measures.enumerate_positive", "measures", "*.enumerate_positive", _len, None),
    ("measures.level_masses", "measures", "*.level_masses", _len, _model_level),
    ("measures.load", "measures", "load_measure", None, None),
    ("measures.load", "measures", "ingest_points", None, None),
    ("spectrum.beta_n", "spectrum", "beta_n", None, None),
    ("spectrum.empirical_spectrum", "spectrum", "empirical_spectrum", None, _model_level),
    ("spectrum.s_b_solve", "spectrum", "s_b_solve", None, None),
    ("spectrum.minkowski", "spectrum", "minkowski", None, None),
    ("coarse.coarse_profile", "coarse", "coarse_profile", None, None),
    ("partition.build_partition", "partition", "build_partition", _card, _rho_t),
    ("partition.entropy_slope", "partition", "entropy_slope", None, None),
    ("orders.upper_order", "orders", "upper_order", None, None),
    ("orders.lower_order", "orders", "lower_order", None, None),
    ("empirical.decay_experiment", "empirical", "decay_experiment", None, None),
    ("empirical.piecewise_project", "empirical", "piecewise_project", None, None),
    ("empirical.moment_project", "empirical", "moment_project", None, None),
    ("empirical.lq_error", "empirical", "lq_error", None, None),
    ("reports.write", "reports", "write_csv", None, None),
    ("reports.write", "reports", "write_json", None, None),
]

# L0 calls are the most frequent of all; a counter costs less than a span.
COUNT_TARGETS = [
    ("cubes.children", "cubes", "children"),
    ("cubes.center", "cubes", "DyadicCube.center"),
    ("cubes.ancestor", "cubes", "DyadicCube.ancestor"),
]


def _rebind_everywhere(original, replacement) -> None:
    """Point every `widthlab` module attribute bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "widthlab" and not modname.startswith("widthlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _method_owners(module, method: str):
    """Classes of `module` whose own namespace defines `method`."""
    for value in vars(module).values():
        if (
            isinstance(value, type)
            and value.__module__ == module.__name__
            and method in vars(value)
        ):
            yield value


def install_widthlab_tracing(recorder: SpanRecorder) -> None:
    """Wrap the traced widthlab callables (the package must be imported)."""
    import importlib

    def patch(module_name, attr, make):
        module = importlib.import_module(f"widthlab.{module_name}")
        if attr.startswith("*."):
            for cls in _method_owners(module, attr[2:]):
                setattr(cls, attr[2:], make(vars(cls)[attr[2:]]))
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(vars(cls)[meth]))
        else:
            original = getattr(module, attr)
            _rebind_everywhere(original, make(original))

    for name, module_name, attr, hook, key in SPAN_TARGETS:
        patch(module_name, attr, lambda fn: recorder.wrap(name, fn, hook, key))
    for name, module_name, attr in COUNT_TARGETS:
        patch(module_name, attr, lambda fn: recorder.count(name, fn))


PER_LAYER = [
    ("cubes.children.calls", "count"),
    ("cubes.center.calls", "count"),
    ("cubes.ancestor.calls", "count"),
    ("measures.mass.calls", "count"),
    ("measures.mass.self_s", "s"),
    ("measures.positive_children.calls", "count"),
    ("measures.positive_children.self_s", "s"),
    ("measures.positive_children.yield", "ratio"),
    ("measures.enumerate_positive.calls", "count"),
    ("measures.enumerate_positive.self_s", "s"),
    ("measures.enumerate_positive.cubes", "count"),
    ("measures.level_masses.calls", "count"),
    ("measures.level_masses.self_s", "s"),
    ("measures.level_masses.distinct_masses", "count"),
    ("measures.level_masses.reuse_ratio", "ratio"),
    ("measures.load.self_s", "s"),
    ("spectrum.beta_n.calls", "count"),
    ("spectrum.beta_n.self_s", "s"),
    ("spectrum.empirical_spectrum.calls", "count"),
    ("spectrum.empirical_spectrum.reuse_ratio", "ratio"),
    ("spectrum.s_b_solve.calls", "count"),
    ("spectrum.s_b_solve.self_s", "s"),
    ("spectrum.minkowski.self_s", "s"),
    ("coarse.coarse_profile.calls", "count"),
    ("coarse.coarse_profile.self_s", "s"),
    ("partition.build_partition.calls", "count"),
    ("partition.build_partition.self_s", "s"),
    ("partition.build_partition.cells", "count"),
    ("partition.build_partition.reuse_ratio", "ratio"),
    ("partition.entropy_slope.self_s", "s"),
    ("orders.upper_order.calls", "count"),
    ("orders.upper_order.self_s", "s"),
    ("orders.lower_order.self_s", "s"),
    ("empirical.decay_experiment.self_s", "s"),
    ("empirical.piecewise_project.self_s", "s"),
    ("empirical.moment_project.calls", "count"),
    ("empirical.lq_error.calls", "count"),
    ("empirical.lq_error.self_s", "s"),
    ("empirical.lq_error.nodes", "count"),
    ("reports.write.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Metrics that repeat exactly from run to run of the same inputs.
EXACT_METRICS = tuple(name for name, unit in PER_LAYER if unit == "count") + tuple(
    name for name, unit in PER_LAYER if name.endswith(("reuse_ratio", ".yield"))
)


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, all but `trace.overhead_frac`.

    A layer the run never entered reports 0 calls and 0.0 s; a reuse ratio
    or yield with no calls behind it also reads 0.
    """
    per = _per_name(spans)
    empty = {"calls": 0, "self_s": 0.0, "extra": 0.0}
    counts, distinct = spans["counts"], spans["distinct"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        row = per.get(prefix, empty)
        if prefix.startswith("cubes."):
            value = counts.get(prefix, 0)
        elif stat in ("calls", "self_s"):
            value = row[stat]
        elif stat in ("cubes", "distinct_masses", "cells"):
            value = int(row["extra"])
        elif stat == "yield":
            value = ratio(row["extra"], row["calls"])
        elif stat == "reuse_ratio":
            value = ratio(distinct.get(prefix, 0), row["calls"])
        elif stat == "nodes":
            value = int(
                _extra_under(spans, "measures.enumerate_positive", "empirical.lq_error")
            )
        else:
            continue  # trace.overhead_frac needs an untraced run
        out[name] = value
    return out
