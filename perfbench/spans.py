"""In-memory span recorder and the timing wrappers of a traced run.

A traced run replaces the module-level names the program looks up at
call time (and a few methods) with wrappers that record one span per
call: name, start, end, parent span, thread and client request id.
Nothing inside the program changes; the wrappers sit at the boundaries
between its layers, so a layer's *self* time is its spans' duration
minus the part covered by child spans.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: str = ""
    request: str | None = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of the process.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a serve worker thread) takes the
    client's open request span as its parent: with one closed-loop
    client there is exactly one request in flight, so every server span
    falls inside exactly one client request.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        #: Hashes of the distinct complete inputs of ``disjoint_paths``.
        self.disjoint_inputs: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.request: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.request
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            span_id,
            name,
            0.0,
            parent=parent.span_id if parent is not None else None,
            thread=threading.current_thread().name,
            request=parent.request if parent is not None else None,
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                            "request": span.request,
                            **span.info,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def span(recorder: Recorder | None, name: str) -> Iterator[Span | None]:
    """One span around a block of benchmark code (no-op when untraced)."""
    if recorder is None:
        yield None
        return
    opened = recorder.open(name)
    try:
        yield opened
    finally:
        recorder.close(opened)


@contextlib.contextmanager
def request(recorder: Recorder | None) -> Iterator[Span | None]:
    """A client request: the root span every server-side span falls under."""
    if recorder is None:
        yield None
        return
    opened = recorder.open("request")
    recorder.request = opened
    opened.request = f"q{opened.span_id}"
    try:
        yield opened
    finally:
        recorder.request = None
        recorder.close(opened)


def _timed(
    recorder: Recorder,
    name: str,
    original: Callable,
    observe: Callable[[Span, tuple, dict, Any], None] | None,
) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if observe is not None:
            # Its own span, so the caller's self time does not absorb it.
            overhead = recorder.open("trace.observe")
            try:
                observe(span, args, kwargs, result)
            finally:
                recorder.close(overhead)
        return result

    return wrapper


def _counted(recorder: Recorder, name: str, original: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.count(name)
        return original(*args, **kwargs)

    return wrapper


def _adjacency_key(args: tuple, kwargs: dict) -> tuple:
    """The complete input of one ``disjoint_paths`` call, hashable."""
    names = ("adjacency", "source", "target", "k", "node_disjoint")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    adjacency = bound["adjacency"]
    frozen = tuple(
        (node, tuple(sorted(adjacency[node].items())))
        for node in sorted(adjacency)
    )
    return (
        frozen,
        bound["source"],
        bound["target"],
        bound.get("k", 2),
        bound.get("node_disjoint", True),
    )


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary of the program for the rest of the process."""
    def observe_disjoint(span: Span, args: tuple, kwargs: dict, _result: Any) -> None:
        recorder.disjoint_inputs.add(hash(_adjacency_key(args, kwargs)))

    def observe_classify(span: Span, _args: tuple, _kwargs: dict, result: Any) -> None:
        classification = result[0]
        if classification.certain is None:
            span.info["cases"] = len(classification.classes)
            span.info["lossy"] = len(classification.lossy_slots)

    def observe_accumulate(span: Span, args: tuple, kwargs: dict, _result: Any) -> None:
        rows = args[1] if len(args) > 1 else kwargs["losses_rows"]
        span.info["rows"] = len(rows)

    def observe_boundaries(span: Span, _args: tuple, _kwargs: dict, result: Any) -> None:
        span.info["boundaries"] = len(result)

    def observe_replay(span: Span, _args: tuple, _kwargs: dict, result: Any) -> None:
        span.info["telemetry"] = result[1].to_dict()

    # (module, attribute path, span name, observer).  ``None`` as span
    # name counts policy decisions without timing each one: there are
    # too many, too small to time, and ``routing.decide`` spans hold them.
    targets: list[tuple[str, str, str | None, Callable | None]] = [
        ("repro.exec.engine", "run_replay_parallel", "exec.replay", observe_replay),
        ("repro.topogen.registry", "generate_topology", "topogen.generate", None),
        ("repro.serve.state", "resolve_workload", "topogen.resolve", None),
        ("repro.serve.session", "generate_timeline", "netmodel.timeline", None),
        ("repro.serve.session", "run_replay_parallel", "exec.replay", observe_replay),
        ("repro.serve.server", "execute_request", "serve.execute", None),
        ("repro.serve.state", "ContextCache.get", "serve.context", None),
        ("repro.exec.engine", "build_plan", "exec.plan", None),
        ("repro.exec.engine", "merge_results", "exec.merge", None),
        ("repro.exec.cache", "ResultCache.load", "exec.cache_load", None),
        ("repro.exec.cache", "ResultCache.store", "exec.cache_store", None),
        ("repro.exec.plan", "ShardContext.__init__", "exec.context", None),
        ("repro.exec.plan", "decision_boundaries", "timeline.boundaries",
         observe_boundaries),
        ("repro.exec.plan", "observed_views_with_deltas", "timeline.views", None),
        ("repro.netmodel.conditions", "ConditionTimeline.degraded_views",
         "timeline.views", None),
        ("repro.exec.plan", "build_decision_timeline", "routing.decide", None),
        ("repro.routing.base", "RoutingPolicy.update", None, None),
        ("repro.routing.dynamic", "disjoint_paths", "routing.disjoint_paths",
         observe_disjoint),
        ("repro.routing.targeted", "disjoint_paths", "routing.disjoint_paths",
         observe_disjoint),
        ("repro.routing.base", "observed_adjacency", "routing.observed_adjacency",
         None),
        ("repro.routing.dynamic", "observed_adjacency",
         "routing.observed_adjacency", None),
        ("repro.routing.targeted", "observed_adjacency",
         "routing.observed_adjacency", None),
        ("repro.exec.plan", "_replay_windows", "interval.windows", None),
        ("repro.simulation.interval", "_ProbabilityCache.probabilities_batch",
         "interval.cache", None),
        ("repro.simulation.interval", "classify_delivery_masks",
         "reliability.classify", observe_classify),
        ("repro.simulation.interval", "accumulate_mask_probabilities_batch",
         "reliability.accumulate", observe_accumulate),
    ]
    # Import every module before wrapping anything: a module imported
    # later would copy an already-wrapped name and nest two wrappers.
    modules = {name: importlib.import_module(name) for name, *_ in targets}
    for module_name, path, name, observe in targets:
        owner: object = modules[module_name]
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attribute)
        if name is None:
            wrapped = _counted(recorder, "routing.decide_calls", original)
        else:
            wrapped = _timed(recorder, name, original, observe)
        setattr(owner, attribute, wrapped)


# -- analysis ---------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that are not nested inside another of the same name."""
    by_id = {span.span_id: span for span in spans}
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            found.append(span)
    return found
