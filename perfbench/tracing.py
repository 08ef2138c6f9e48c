"""Observation-only span tracing for the benchmark's traced run.

The traced run attributes host time to this repository's layers (the
``repro.<layer>`` packages) from outside the program:

* :func:`instrument` shadows the ``Simulator`` instance's four
  ``schedule*`` methods after ``build_system``, so every dispatched
  callback runs inside a span named after the callback and attributed
  to the layer of the module that defines it (:func:`describe`).
* It also shadows the public layer-boundary methods in
  :data:`BOUNDARIES` on every instance the model-graph walk reaches
  (see below), so a bridge callback that calls
  ``NDPUnit.deliver_task_message`` charges that call to ``ndp``, not
  to ``bridge``.
* :class:`TracedPhases` adds spans around the calls a cell makes
  (``make_app``, ``build_system``, ``verify``, ``snapshot``, ...).

Wrappers only forward arguments and results, so event order, and hence
every simulated output, is unchanged; ``run.py`` asserts this by
comparing the traced pass against an untraced one.

Self time is computed online: a span's self time is its duration minus
the durations of its direct children.  Only spans nested inside a
``sim.run`` span feed the per-layer self times, so those self times,
plus ``sim.run``'s own self time, add up to the traced simulate time.
Spans are also kept in memory (up to :data:`MAX_SPANS`) and written
once, at the end, as Chrome trace-event JSON that Perfetto loads.

Instances are found with :func:`repro.state.snapshot.component_registry`.
That walk does not enter a dict whose values are lists, so the host
path's per-chip links (design C) keep their unwrapped ``transfer``; its
time is charged to the calling ``bridge`` code, not to ``links``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.balance.policy import SchedulingPolicy
from repro.dram.bank import DRAMBank
from repro.links.link import Link
from repro.messages.mailbox import Mailbox
from repro.ndp.cache import L1Cache
from repro.ndp.unit import NDPUnit
from repro.state.snapshot import component_registry

from .workloads import Phases

#: Public methods whose calls get their own span, per class.
BOUNDARIES: Dict[type, Tuple[str, ...]] = {
    NDPUnit: (
        "accept_task", "collect_state", "deliver_task_message",
        "deliver_data_message",
    ),
    DRAMBank: ("access",),
    L1Cache: ("access",),
    SchedulingPolicy: ("plan",),
    Link: ("transfer", "occupy_until"),
    Mailbox: ("enqueue", "fetch"),
}

SCHEDULE_METHODS = (
    "schedule", "schedule_at", "schedule_cancellable",
    "schedule_cancellable_at",
)

#: The phase span that marks simulate time.
SIMULATE = "sim.run"

#: Spans kept for the Chrome trace; later ones still feed the totals.
MAX_SPANS = 50_000


def layer_of_module(module: str) -> str:
    """``repro.<layer>.x`` -> ``<layer>``; the request driver is its own
    sub-layer of ``runtime``; anything outside ``repro`` is ``other``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if module == "repro.runtime.requests":
        return "runtime.requests"
    return parts[1]


_DESCRIBED: Dict[Any, Tuple[str, str]] = {}


def describe(callback: Callable[[], Any]) -> Tuple[str, str]:
    """(span name, layer) of a scheduled callback.

    A bound method is named and attributed by the function it binds, a
    ``functools.partial`` by the function it wraps, and a lambda or
    closure by the module it was defined in.  Results are cached per
    code object, since closures are created anew for every event.
    """
    fn = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    code = getattr(fn, "__code__", None)
    hit = _DESCRIBED.get(code) if code is not None else None
    if hit is None:
        module = getattr(fn, "__module__", None) or type(fn).__module__
        name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
        hit = (name, layer_of_module(module))
        if code is not None:
            _DESCRIBED[code] = hit
    return hit


class Tracer:
    """In-memory span recorder with online self-time accounting.

    ``clock`` is injectable so tests can drive exact timings.  A tracer
    is process-wide observation state, never simulation state: snapshot
    clones share it (``__deepcopy__`` returns ``self``), so spans of a
    forked system land in the same trace.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Recorded spans: ``[name, layer, start, end, parent, cell]``,
        #: ``parent`` the index of the enclosing span or -1.
        self.spans: List[list] = []
        self.dropped = 0
        self.cell = ""
        #: layer -> self seconds, over spans inside ``sim.run`` only.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: span name -> total seconds / self seconds / calls / truthy
        #: results.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.truthy: Dict[str, int] = defaultdict(int)
        #: Scheduled callbacks run through a :class:`_Traced` wrapper.
        self.dispatched = 0
        self._stack: List[list] = []

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Tracer":
        return self

    def __copy__(self) -> "Tracer":
        return self

    def begin(self, name: str, layer: str, simulate: bool = False) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.spans)
        if index < MAX_SPANS:
            self.spans.append([
                name, layer, 0.0, None,
                parent[4] if parent is not None else -1, self.cell,
            ])
        else:
            index = -1
            self.dropped += 1
        self.calls[name] += 1
        in_sim = simulate or (parent is not None and parent[5])
        stack.append([name, layer, self.clock(), 0.0, index, in_sim])

    def end(self) -> None:
        now = self.clock()
        name, layer, start, child, index, in_sim = self._stack.pop()
        duration = now - start
        if self._stack:
            self._stack[-1][3] += duration
        if in_sim:
            self.self_s[layer] += duration - child
        self.total_s[name] += duration
        self.self_by_name[name] += duration - child
        if index >= 0:
            record = self.spans[index]
            record[2] = start
            record[3] = now

    @contextmanager
    def span(self, name: str, layer: str,
             simulate: bool = False) -> Iterator[None]:
        self.begin(name, layer, simulate)
        try:
            yield
        finally:
            self.end()

    def traced(self, callback: Callable[[], Any]) -> "_Traced":
        name, layer = describe(callback)
        return _Traced(self, callback, name, layer)

    def export_chrome(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        closed = [s for s in self.spans if s[3] is not None]
        origin = min((s[2] for s in closed), default=0.0)
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"cell": cell, "parent": parent},
            }
            for name, layer, start, end, parent, cell in closed
        ]
        meta = dict(meta, spans_recorded=len(closed),
                    spans_not_exported=self.dropped)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)


class _Traced:
    """A scheduled callback that runs inside its own span."""

    __slots__ = ("tracer", "callback", "name", "layer")

    def __init__(self, tracer: Tracer, callback: Callable[[], Any],
                 name: str, layer: str) -> None:
        self.tracer = tracer
        self.callback = callback
        self.name = name
        self.layer = layer

    def __call__(self) -> None:
        tracer = self.tracer
        tracer.dispatched += 1
        tracer.begin(self.name, self.layer)
        try:
            self.callback()
        finally:
            tracer.end()


def _wrap_schedule(tracer: Tracer, method: Callable) -> Callable:
    def schedule(when: int, callback: Callable[[], Any]) -> Any:
        # schedule_cancellable forwards to schedule_cancellable_at
        # through the instance, so a callback may arrive wrapped.
        if type(callback) is not _Traced:
            callback = tracer.traced(callback)
        return method(when, callback)
    return schedule


def _wrap_boundary(tracer: Tracer, method: Callable, name: str,
                   layer: str) -> Callable:
    def boundary(*args: Any, **kwargs: Any) -> Any:
        tracer.begin(name, layer)
        try:
            result = method(*args, **kwargs)
        finally:
            tracer.end()
        if result:
            tracer.truthy[name] += 1
        return result
    return boundary


def instrument(system: Any, tracer: Tracer) -> None:
    """Install the tracing wrappers on one freshly built system."""
    sim = system.sim
    for name in SCHEDULE_METHODS:
        setattr(sim, name, _wrap_schedule(tracer, getattr(sim, name)))
    for obj in component_registry(system).values():
        for cls, methods in BOUNDARIES.items():
            if isinstance(obj, cls):
                layer = layer_of_module(cls.__module__)
                for method in methods:
                    setattr(obj, method, _wrap_boundary(
                        tracer, getattr(obj, method),
                        f"{cls.__name__}.{method}", layer,
                    ))


class TracedPhases(Phases):
    """:class:`Phases` that also records a span around every call and
    instruments each system it is shown."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    @contextmanager
    def __call__(self, bucket: str, span: str) -> Iterator[None]:
        layer = span.split(".")[0]
        with super().__call__(bucket, span), self.tracer.span(
            span, layer, simulate=(span == SIMULATE)
        ):
            yield

    def on_system(self, system: Any) -> None:
        super().on_system(system)
        instrument(system, self.tracer)
