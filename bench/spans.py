"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the dpsemantics modules
from the outside: the library itself is not edited.  A wrapper is placed
in every namespace that holds the original object, because several
modules import helpers by name (``cli`` imports ``zcdp_power_bound``;
``phi``/``phi_inv`` live in ``tradeoff``, ``accountants``, ``census``,
``bayes`` and ``plrv`` as well as ``_norm``).

Spans are kept in flat arrays (name, start, end, parent, op id) and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterable

import numpy as np


class Tracer:
    """Span recorder plus per-op counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list[int] = [-1]
        self.op_id = -1
        #: (op id, counter name) -> value, for counts that are not calls
        self.counters: dict[tuple[int, str], int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_idx.append(nid)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counters[(self.op_id, name)] += value

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> np.ndarray:
        return self_times(self.starts, self.ends, self.parents)

    def totals(self, group_of_op: dict[int, str]) -> dict[tuple[str, str], tuple[int, int]]:
        """(group, span name) -> (calls, self time in ns), where each op id
        is mapped to a group; spans of unmapped ops are left out."""
        groups = sorted(set(group_of_op.values()))
        ops = np.frombuffer(self.ops, dtype=np.int64)
        op_group = np.full(max(ops.max(initial=-1), max(group_of_op, default=-1)) + 2, -1)
        for op, g in group_of_op.items():
            op_group[op] = groups.index(g)
        g = op_group[np.where(ops >= 0, ops, -1)]
        keep = g >= 0
        names = np.frombuffer(self.name_idx, dtype=np.int32)[keep].astype(np.int64)
        key = g[keep] * len(self.names) + names
        size = len(groups) * len(self.names)
        calls = np.bincount(key, minlength=size)
        own = np.zeros(size, dtype=np.int64)
        np.add.at(own, key, self.self_times()[keep])
        return {
            (groups[k // len(self.names)], self.names[k % len(self.names)]): (int(calls[k]), int(own[k]))
            for k in np.flatnonzero(calls)
        }

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent, op id; times in ns)
        as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_idx, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.int64),
            end=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.ops, dtype=np.int64),
        )


def self_times(starts, ends, parents) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    The tracer keeps one stack on one thread, so children never overlap
    one another and close before their parent."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    durations = ends - starts
    out = durations.copy()
    kids = np.flatnonzero(parents >= 0)
    np.subtract.at(out, parents[kids], durations[kids])
    return out


def _wrapper(tracer: Tracer, fn: Callable, name: str, counter=None) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer, result)
        return result

    return traced


def _count_elements(tracer: Tracer, result) -> None:
    tracer.count("dgauss.sample.elements", int(result.size))


def _count_atoms(tracer: Tracer, result) -> None:
    atoms = getattr(result, "atoms", None)
    if atoms is not None:
        tracer.count("plrv.compose.atoms_out", len(atoms))


#: Span names for methods and for functions grouped under one name.
#: Every other public function is traced as ``<layer>.<function name>``.
_METHODS = {
    ("dgauss", "DiscreteGaussianSampler", "__init__"): "dgauss.sampler_init",
    ("dgauss", "DiscreteGaussianSampler", "sample"): "dgauss.sample",
    ("dgauss", "EmpiricalRoc", "power_at"): "dgauss.power_at",
    ("dgauss", "EmpiricalRoc", "standard_error"): "dgauss.standard_error",
    ("tradeoff", "PiecewiseLinearCurve", "power"): "tradeoff.piecewise_power",
    ("tradeoff", "PiecewiseLinearCurve", "inverse_type2"): "tradeoff.inverse_type2",
    ("tradeoff", "PureDpBoundCurve", "inverse_type2"): "tradeoff.inverse_type2",
    ("tradeoff", "ApproxDpBoundCurve", "inverse_type2"): "tradeoff.inverse_type2",
    ("tradeoff", "GaussianExactCurve", "inverse_type2"): "tradeoff.inverse_type2",
    ("tradeoff", "ZcdpNumericBoundCurve", "inverse_type2"): "tradeoff.inverse_type2",
    ("tradeoff", "RdpNumericBoundCurve", "inverse_type2"): "tradeoff.inverse_type2",
    ("accountants", "EpsDeltaCurve", "delta"): "accountants.curve_delta",
    ("plrv", "DiscretePlrv", "upper_mass"): "plrv.upper_mass",
    ("plrv", "DiscretePlrv", "lower_mass"): "plrv.lower_mass",
}
_GROUPED = {
    ("_norm", "phi"): "norm.phi",
    ("_norm", "phi_inv"): "norm.phi_inv",
    ("census", "scenario_rho"): "census.scenario",
    ("census", "scenario_power"): "census.scenario",
    ("census", "scenario_bayes_epsilon"): "census.scenario",
    ("census", "builtin_scenario"): "census.scenario",
    ("census", "builtin_scenarios"): "census.scenario",
    ("census", "parse_scenario"): "census.scenario",
}
_COUNTERS = {"dgauss.sample": _count_elements, "plrv.compose": _count_atoms}
LAYERS = ("dgauss", "tradeoff", "accountants", "plrv", "bayes", "census", "_norm", "svg")


def _public_functions(module) -> Iterable[tuple[str, Callable]]:
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Instrumentation:
    """Installs and removes the wrappers; usable as a context manager."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            return
        import dpsemantics

        package = dpsemantics.__name__
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        replacements: dict[int, tuple[object, Callable]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for fname, fn in _public_functions(module):
                span = _GROUPED.get((layer, fname), f"{layer.lstrip('_')}.{fname}")
                replacements[id(fn)] = (
                    fn, _wrapper(self.tracer, fn, span, _COUNTERS.get(span))
                )
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        for (layer, cls_name, meth), span in _METHODS.items():
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, _wrapper(self.tracer, original, span, _COUNTERS.get(span)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
