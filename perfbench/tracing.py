"""Spans around calls into the program's layers, recorded from outside.

The benchmark never hands the program a ``Recorder`` (an enabled
recorder moves ``ListScheduler.schedule_region`` off its lean table
path, so a recorder-traced run would time different code). Instead
:func:`install` replaces each layer's public function or method, as
listed in :data:`LAYERS`, with a wrapper that appends one span to an
in-memory :class:`Tracer`: layer name, start, end, parent span (from a
per-thread stack) and an optional count the wrapper reads off the call
(region length, simulated instructions, cache hit, ...). A call that
re-enters a layer already open on the same thread is part of the outer
span. Spans are written out once, at exit, and summarized by
:func:`summarize`: inclusive seconds, self seconds (duration minus the
direct children's durations), calls and the summed count, per layer,
over a time window.

Forked children (pool workers) inherit the wrappers but record
nothing: the traced run reports the parent's wait on them
(``parallel.prepare``) instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array


def _states(args, result):
    return result.states


def _region_length(args, result):
    return len(args[1])


def _hit(args, result):
    return 1 if result is not None else 0


def _proven(args, result):
    return 1 if result.proven else 0


def _sim_instructions(args, result):
    return result.instructions


def _pool_regions(args, result):
    return args[0].warmed_regions


#: (layer, module, attribute path, count reader, binding scope). The
#: scope "all" rebinds the function in every loaded ``repro`` module
#: that imported it by name; a module name rebinds it only there.
LAYERS = (
    ("spawn.load_machine", "repro.spawn.library", "load_machine", None, "all"),
    ("pipeline.tables.attach", "repro.pipeline.tables", "attach_tables", _states, "all"),
    ("pipeline.tables.attach", "repro.pipeline.tables", "compile_tables", _states, "all"),
    ("evaluation.experiment", "repro.evaluation.experiment", "run_profiling_experiment", None, "all"),
    (
        "pipeline.timing.timed_run",
        "repro.pipeline.timing",
        "timed_run",
        _sim_instructions,
        "repro.evaluation.experiment",
    ),
    ("core.optimizer", "repro.core.optimizer", "ImprovedScheduler.optimize_region", None, None),
    ("pipeline.simulator.time_block", "repro.pipeline.simulator", "BlockSimulator.time_block", None, None),
    (
        "core.list_scheduler",
        "repro.core.list_scheduler",
        "ListScheduler.schedule_region",
        _region_length,
        None,
    ),
    ("parallel.prepare", "repro.parallel.executor", "ParallelScheduler.prepare", _pool_regions, None),
    ("parallel.cache_lookup", "repro.parallel.cache", "ScheduleCache.lookup", _hit, None),
    ("robust.guard", "repro.robust.guard", "GuardedBlockScheduler.__call__", None, None),
    ("analyze.static_verify", "repro.analyze.static_verify", "static_verify_schedule", _proven, "all"),
    ("analyze.symbolic_verify", "repro.analyze.sym_verify", "symbolic_verify_schedule", _proven, "all"),
    ("workloads.generate", "repro.workloads.generator", "generate", None, "all"),
    ("eel.build_cfg", "repro.eel.cfg", "build_cfg", None, "all"),
    ("eel.editor_build", "repro.eel.editor", "Editor.build", None, None),
    ("qpt.instrument", "repro.qpt.profiling", "SlowProfiler.instrument", None, None),
    ("serve.handle_batch", "repro.serve.service", "SchedulingService.handle_batch", None, None),
)


class Tracer:
    """Spans in flat arrays: one row per call, filled in as it returns."""

    def __init__(self) -> None:
        self.enabled = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self.disable)

    def enable(self, *_signal) -> None:
        self.enabled = True

    def disable(self, *_signal) -> None:
        self.enabled = False

    def wrap(self, fn, name: str, count=None):
        layer = self._ids.setdefault(name, len(self._ids))
        if layer == len(self.names):
            self.names.append(name)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.open = []
            if layer in local.open:
                return fn(*args, **kwargs)
            with self._lock:
                index = len(self.start)
                self.layer.append(layer)
                self.parent.append(stack[-1] if stack else -1)
                self.start.append(time.monotonic())
                self.end.append(0.0)
                self.value.append(0.0)
            stack.append(index)
            local.open.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.monotonic()
                stack.pop()
                local.open.pop()
            if count is not None:
                self.value[index] = count(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    def snapshot(self) -> dict:
        """The spans recorded so far, as :func:`summarize` reads them."""
        with self._lock:
            return {
                "names": list(self.names),
                "layer": self.layer.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "value": self.value.tolist(),
            }


def install(tracer: Tracer) -> None:
    """Wrap every layer in :data:`LAYERS` (importing its module first)."""
    for _, module, _, _, _ in LAYERS:
        importlib.import_module(module)
    loaded = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]
    for name, module, path, count, scope in LAYERS:
        owner = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, count))
            continue
        original = getattr(owner, path)
        traced = tracer.wrap(original, name, count)
        targets = loaded if scope == "all" else [sys.modules[scope]]
        for mod in targets:
            if getattr(mod, path, None) is original:
                setattr(mod, path, traced)


def summarize(trace: dict, window: tuple[float, float]) -> dict[str, dict]:
    """Per layer, over spans that start inside ``window``: ``calls``,
    inclusive seconds ``incl``, ``self`` seconds and summed ``value``."""
    names = trace["names"]
    layer, parent = trace["layer"], trace["parent"]
    start, end, value = trace["start"], trace["end"], trace["value"]
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {name: {"calls": 0, "incl": 0.0, "self": 0.0, "value": 0.0} for name in names}
    lo, hi = window
    for i, name_id in enumerate(layer):
        if not lo <= start[i] <= hi or end[i] < start[i]:
            continue
        row = out[names[name_id]]
        duration = end[i] - start[i]
        row["calls"] += 1
        row["incl"] += duration
        row["self"] += duration - child[i]
        row["value"] += value[i]
    return out
