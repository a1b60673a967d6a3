"""Outside-in layer tracing for the traced benchmark run.

The program under test carries no spans of its own, so the traced run
wraps each layer's public entry points from here: every binding of a
target function in a loaded ``repro`` module (and every target method on
its class) is replaced by a wrapper that records a span around the call.
Spans live in memory on one :class:`Tracer`; the workloads turn them into
per-layer busy time, self time and call counts.

Wrappers are installed before any worker pool forks.  Forked children
inherit them disabled (``os.register_at_fork``), so worker processes pay
one flag test per wrapped call and record nothing; their side of the
split comes from the numbers the program returns and from re-solving the
same inputs inline.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: (module, function, span name).  Functions bound under several names
#: (package re-exports, ``from x import f`` in callers) are rebound
#: everywhere they appear.
FUNCTION_TARGETS = (
    ("repro.topology.htree", "build_net_topology", "topology.build"),
    ("repro.topology.builders", "nearest_neighbor_topology", "topology.build"),
    ("repro.data.placement", "parse_placement_map", "data.placement"),
    ("repro.data.placement", "extract_clock_nets", "data.placement"),
    ("repro.data.instance_json", "instance_to_dict", "data.encode"),
    ("repro.check", "check_instance", "check.precheck"),
    ("repro.ebf.solver", "solve_lubt", "ebf.solve"),
    ("repro.ebf.constraints", "seed_constraint_pairs", "ebf.seed_rows"),
    ("repro.ebf.formulation", "build_ebf_lp", "ebf.lp_build"),
    ("repro.ebf.formulation", "add_steiner_rows", "ebf.lp_build"),
    ("repro.ebf.constraints", "steiner_violations", "ebf.scan"),
    ("repro.lp.solve", "solve_lp", "lp.solve"),
    ("repro.embedding.pipeline", "embed_tree", "embedding.embed"),
    ("repro.perf.cts", "cts_tasks", "perf.prep"),
    ("repro.perf.batch", "solve_many", "perf.solve_many"),
    ("repro.perf.batch", "solve_sweep_sharded", "perf.sweep"),
)

#: (module, class, method, span name).
METHOD_TARGETS = (
    ("repro.perf.pool", "WorkerPool", "submit_chunk", "perf.chunk"),
    ("repro.perf.journal", "SolveJournal", "append", "perf.journal_append"),
)


@dataclass(eq=False)
class Span:
    """One wrapped call: name, interval, parent and result details."""

    name: str
    start: float
    parent: "Span | None" = None
    end: float = 0.0
    #: Summed duration of direct children on the same thread.
    child_time: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class LayerTotals:
    busy: float = 0.0
    self_time: float = 0.0
    calls: int = 0


def _record_lp(span: Span, result: Any) -> None:
    span.info["backend"] = getattr(result, "backend", "?")
    span.info["iterations"] = int(getattr(result, "iterations", 0) or 0)


_AFTER: dict[str, Callable[[Span, Any], None]] = {"lp.solve": _record_lp}


class Tracer:
    """In-memory span recorder.

    ``enabled`` switches recording for the whole process;
    ``set_local(False)`` additionally mutes the calling thread (the server
    workload alternates traced and untraced requests per client thread).  A call nested in an
    open span of the same name is not recorded again, so recursive or
    layered entry points (``build_net_topology`` calling
    ``nearest_neighbor_topology``) count their time once.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.enabled = False

    def set_local(self, on: bool) -> None:
        self._tls.on = on

    def active(self) -> bool:
        return self.enabled and getattr(self._tls, "on", True)

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> Span | None:
        stack = self._stack()
        if any(s.name == name for s in stack):
            return None
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)

    def reset(self) -> list[Span]:
        """Drop and return the spans recorded so far."""
        with self._lock:
            out, self.spans = self.spans, []
        return out

    def wrap(self, fn: Callable, name: str) -> Callable:
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            span = tracer.open(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, out)
            return out

        traced.__perfbench_span__ = name
        return traced


def install(tracer: Tracer, extra_modules: tuple = ()) -> int:
    """Rebind every target entry point to a tracing wrapper.

    Returns the number of bindings replaced.  ``extra_modules`` are
    non-``repro`` modules (the benchmark's own) whose globals are
    rebound too.
    """
    for mod_name, _, _ in FUNCTION_TARGETS:
        importlib.import_module(mod_name)
    for mod_name, _, _, _ in METHOD_TARGETS:
        importlib.import_module(mod_name)
    # Modules imported later bind the wrapper: ``from x import f`` reads
    # the rebound attribute of ``x``.
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]
    modules.extend(extra_modules)
    replaced = 0
    for mod_name, attr, span_name in FUNCTION_TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        if hasattr(original, "__perfbench_span__"):
            continue
        wrapper = tracer.wrap(original, span_name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    replaced += 1
    for mod_name, cls_name, meth, span_name in METHOD_TARGETS:
        cls = getattr(sys.modules[mod_name], cls_name)
        original = cls.__dict__[meth]
        if hasattr(original, "__perfbench_span__"):
            continue
        setattr(cls, meth, tracer.wrap(original, span_name))
        replaced += 1
    return replaced


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Busy time, self time and call count per span name."""
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        t = out[s.name]
        t.busy += s.duration
        t.self_time += s.self_time
        t.calls += 1
    return out


def lp_by_backend(spans: list[Span]) -> dict[str, LayerTotals]:
    """``lp.solve`` spans keyed by the backend that answered."""
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        if s.name == "lp.solve":
            t = out[s.info.get("backend", "?")]
            t.busy += s.duration
            t.calls += 1
    return out


def info_sum(spans: list[Span], name: str, key: str) -> float:
    return float(sum(s.info.get(key, 0) for s in spans if s.name == name))
