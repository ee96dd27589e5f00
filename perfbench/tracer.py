"""Span recorder that wraps crowdtree's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules, and
``TestTable.with_test_errors``, with a wrapper that records one span per
call: function, the module namespace the call went through, start, end,
parent span and job id. A function imported into another module by name is
wrapped in that module's namespace as well, so calls made through either
name are seen. Spans stay in memory until the run ends; ``layer_metrics``
turns them into the per-layer figures and ``save`` writes them out.

Wrapped functions may be called from any thread: each thread keeps its own
span stack, and appending a span is done under a lock.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import threading
import time
from array import array

import numpy as np

LAYERS = ("model", "metrics", "builder", "fusion", "workers", "simulate", "fileio", "cli")


def _count_levels_greedy(counts, result):
    counts["builder.levels"] += len(result.levels)


def _count_levels_random(counts, result):
    counts["builder.levels"] += result.depth()


def _count_iterations(counts, result):
    counts["workers.assign_proposed.iterations"] += len(result[1])


def _count_trials(counts, report):
    counts["simulate.trials"] += report.trials
    counts["simulate.answers"] += report.trials * report.mean_questions


# Counters read from return values: work done that no span count shows.
_RETURN_HOOKS = {
    "builder.build_greedy": _count_levels_greedy,
    "builder.build_random": _count_levels_random,
    "workers.assign_proposed": _count_iterations,
    "simulate.simulate": _count_trials,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.namespaces: list[str] = []
        self.counts: collections.Counter = collections.Counter()
        self.job = -1
        self._fid = array("i")
        self._nsid = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function in every crowdtree namespace."""
        package = importlib.import_module("crowdtree")
        modules = {"crowdtree": package}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"crowdtree.{layer}")
        targets: list[tuple[str, object]] = []
        for layer in LAYERS:
            for name, obj in vars(modules[layer]).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == f"crowdtree.{layer}"
                ):
                    targets.append((f"{layer}.{name}", obj))
        for qualified, func in targets:
            fid = self._intern(self.names, qualified)
            for ns_name, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is func:
                        nsid = self._intern(self.namespaces, ns_name)
                        self._patch(module, attr, self._wrap(func, fid, nsid, qualified))
        table_cls = modules["model"].TestTable
        method = table_cls.__dict__["with_test_errors"]
        fid = self._intern(self.names, "model.with_test_errors")
        nsid = self._intern(self.namespaces, "model")
        self._patch(table_cls, "with_test_errors", self._wrap(method, fid, nsid, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _intern(table: list[str], name: str) -> int:
        if name not in table:
            table.append(name)
        return table.index(name)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, func, fid: int, nsid: int, qualified: str | None):
        hook = _RETURN_HOOKS.get(qualified)
        tracer = self
        start, end = self._start, self._end
        perf_counter = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(start)
                tracer._fid.append(fid)
                tracer._nsid.append(nsid)
                tracer._parent.append(stack[-1] if stack else -1)
                tracer._job.append(tracer.job)
                start.append(0.0)
                end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans. While a view is alive the recorder
        cannot grow, so read only after ``uninstall``."""
        return {
            "function": np.frombuffer(self._fid, dtype=np.int32),
            "namespace": np.frombuffer(self._nsid, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "job": np.frombuffer(self._job, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        """Write every span, plus the function and namespace name tables."""
        np.savez(
            path,
            function_names=np.array(self.names),
            namespace_names=np.array(self.namespaces),
            **self.arrays(),
        )


class SpanStats:
    """Call counts, busy time and self time per function, from the spans.

    Busy time counts each span of a function once, skipping spans nested in
    another span of the same function. Self time is a span's duration minus
    the time its child spans cover.
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self._names = tracer.names
        self._namespaces = tracer.namespaces
        self.counts = tracer.counts
        self.fid = a["function"]
        self.nsid = a["namespace"]
        parent = a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_cover = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_cover
        nested = np.zeros(len(self.dur), dtype=bool)
        ancestor = parent.astype(np.int64)
        while (ancestor >= 0).any():
            live = ancestor >= 0
            nested[live] |= self.fid[ancestor[live]] == self.fid[live]
            ancestor = np.where(live, parent[np.maximum(ancestor, 0)], -1)
        self.outer = ~nested
        parent_fid = np.where(has_parent, self.fid[np.maximum(parent, 0)], -1)
        fileio = np.array([n.startswith("fileio.") for n in self._names] + [False])
        self.fileio_entry = fileio[self.fid] & ~fileio[parent_fid]

    def _mask(self, name: str, namespace: str | None = None) -> np.ndarray:
        if name not in self._names:
            return np.zeros(len(self.dur), dtype=bool)
        mask = self.fid == self._names.index(name)
        if namespace is not None:
            if namespace not in self._namespaces:
                return np.zeros(len(self.dur), dtype=bool)
            mask &= self.nsid == self._namespaces.index(namespace)
        return mask

    def calls(self, name: str, namespace: str | None = None) -> int:
        return int(self._mask(name, namespace).sum())

    def busy(self, name: str) -> float:
        return float(self.dur[self._mask(name) & self.outer].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def fileio_calls(self) -> int:
        return int(self.fileio_entry.sum())

    def fileio_busy(self) -> float:
        return float(self.dur[self.fileio_entry].sum())
