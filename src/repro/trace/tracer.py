"""The span tracer: end-to-end timing attribution for one execution stack.

The paper's evaluation attributes runtime to kernels vs. transfers (Fig 5,
Table II); the rest of the repo grew layers the paper never had — plan
caches, buffer pools, a concurrent service — whose costs the aggregate
counters cannot attribute.  :class:`Tracer` records a *span tree*: every
instrumented phase (parse, lower, plan, launch, queue wait, worker
execution) opens a :meth:`Tracer.span` context manager that captures
monotonic start/end times, a unique span id, and the id of the enclosing
span on the same thread.  Root spans mint a fresh *trace id*; children
inherit it, so one service request's phases — crossing the admission queue
into a worker thread — share a single id that is surfaced in metrics
snapshots and request results.

Three record kinds come out of a tracer:

* **host spans** — wall-clock phases from instrumented Python code;
* **device spans** — the simulated device timeline, bridged from
  :class:`~repro.clsim.events.EventLog` entries with their *modeled*
  durations, anchored at the wall-clock instant the launch began
  (:meth:`add_device_events`); one lane per event category per caller;
* **counters** — sampled gauges (admission-queue depth, pooled bytes)
  that exporters render as counter tracks.

Thread safety: record lists append under one lock; the span stack is
thread-local, so concurrent workers nest independently.  Cross-thread
parentage is explicit — pass ``parent=span``.

:class:`NullTracer` is the default everywhere.  Its :meth:`span` returns
one shared no-op handle and records nothing, keeping the instrumented hot
paths within noise of un-instrumented code.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["CounterSample", "DeviceSpan", "NULL_TRACER", "NullTracer",
           "Span", "Tracer"]

# Sentinel: "parent not given — use the calling thread's current span".
_CURRENT = object()

# Trace ids come from a per-process generator, not uuid4(): reading
# os.urandom per root span hands the GIL to a busy worker mid-burst.
_trace_ids = random.Random()
os.register_at_fork(after_in_child=_trace_ids.seed)


@dataclass(frozen=True)
class DeviceSpan:
    """One simulated device event on the trace timeline.

    ``start`` is seconds since the tracer's ``epoch`` (the launch anchor
    + the event's modeled queue offset) and ``duration`` is the event's
    *modeled* seconds — the device lanes show what the performance model
    attributes, laid out at the instant the launch actually ran.  Small
    origin-relative stamps keep consecutive serial events abutting
    exactly, which absolute clock values (ulp ~7e-12 s after a long host
    uptime) cannot.
    """

    device: str
    lane: str          # "<caller lane>/<event category>"
    name: str
    category: str      # EventKind value: kernel / dev-write / dev-read / build
    start: float
    duration: float
    nbytes: int = 0
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class CounterSample:
    """One sampled gauge value (queue depth, pooled bytes, ...)."""

    name: str
    value: float
    ts: float


class Span:
    """One timed phase.  Use as a context manager for same-thread nesting
    (``with tracer.span("parse"):``) or :meth:`start`/:meth:`finish` for
    spans that cross threads (a service request's root span).  Recording
    happens at :meth:`finish`; finish is idempotent."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "category", "attrs", "thread", "start_time", "end_time",
                 "_attached")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: int,
                 parent_id: Optional[int], name: str, category: str,
                 attrs: dict):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self.thread = threading.current_thread().name
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._attached = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Span":
        if self.start_time is None:
            self.thread = threading.current_thread().name
            self.start_time = self.tracer.now()
        return self

    def finish(self) -> None:
        if self.end_time is not None or self.start_time is None:
            return
        self.end_time = self.tracer.now()
        self.tracer._record(self)

    def annotate(self, **attrs) -> None:
        """Attach attributes after creation (e.g. cache hit/miss)."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def __enter__(self) -> "Span":
        self.start()
        self.tracer._push(self)
        self._attached = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self._attached:
            self.tracer._pop(self)
            self._attached = False
        self.finish()

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"trace={self.trace_id})")


class Tracer:
    """Thread-safe span/counter/device-event recorder (module docstring)."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.epoch = clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._device_spans: list[DeviceSpan] = []
        self._counters: list[CounterSample] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    # -- span API ------------------------------------------------------------

    def span(self, name: str, *, category: str = "host",
             parent=_CURRENT, **attrs) -> Span:
        """Create a span.  ``parent`` defaults to the calling thread's
        current span; pass an explicit span for cross-thread parentage, or
        ``None`` to force a new root (fresh trace id)."""
        if parent is _CURRENT:
            parent = self.current()
        if parent is not None and parent.trace_id is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = f"{_trace_ids.getrandbits(64):016x}"
            parent_id = None
        return Span(self, trace_id, next(self._ids), parent_id,
                    name, category, attrs)

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:   # defensive: out-of-order exit
            stack.remove(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- counters ------------------------------------------------------------

    def counter(self, name: str, value: float) -> None:
        sample = CounterSample(name, float(value), self.now())
        with self._lock:
            self._counters.append(sample)

    # -- plan annotations ----------------------------------------------------

    def note_plan(self, key, plan=None, disposition: Optional[str] = None,
                  ) -> None:
        """Attach the executable plan the current trace ran to the trace.

        A no-op on the base tracer; the flight recorder
        (:class:`repro.obs.FlightRecorder`) overrides this to retain the
        plan key, cache disposition, and generated sweep source for
        debug bundles.  The engine calls it once per keyed execution."""

    # -- device-lane bridging -----------------------------------------------

    def add_device_events(self, device: str, events: Iterable, *,
                          anchor: Optional[float] = None, lane: str = "",
                          trace_id: Optional[str] = None) -> int:
        """Bridge :class:`~repro.clsim.events.Event` records into device
        lanes.  Each event lands at ``anchor + event.ts_seconds``, stamped
        relative to :attr:`epoch`, with its modeled duration; ``lane``
        (usually the worker/thread name)
        prefixes the per-category lane so concurrent executions on the
        same device model stay distinguishable.  Returns the number of
        spans added."""
        if anchor is None:
            anchor = self.now()
        if trace_id is None:
            span = self.current()
            trace_id = span.trace_id if span is not None else None
        origin = anchor - self.epoch
        added = []
        for event in events:
            category = event.kind.value
            added.append(DeviceSpan(
                device=device,
                lane=f"{lane}/{category}" if lane else category,
                name=event.name or category,
                category=category,
                start=origin + (event.ts_seconds or 0.0),
                duration=event.sim_seconds,
                nbytes=event.nbytes,
                trace_id=trace_id,
            ))
        with self._lock:
            self._device_spans.extend(added)
        return len(added)

    # -- read side (exporters) ----------------------------------------------

    @property
    def spans(self) -> "tuple[Span, ...]":
        """Finished host spans, in completion order."""
        with self._lock:
            return tuple(self._spans)

    @property
    def device_spans(self) -> "tuple[DeviceSpan, ...]":
        with self._lock:
            return tuple(self._device_spans)

    @property
    def counters(self) -> "tuple[CounterSample, ...]":
        with self._lock:
            return tuple(self._counters)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._device_spans.clear()
            self._counters.clear()


class _NullSpan:
    """The shared do-nothing span handle (one instance per process)."""

    __slots__ = ()
    trace_id = None
    span_id = 0
    parent_id = None
    name = ""
    category = "null"
    attrs: dict = {}
    start_time = None
    end_time = None
    duration = 0.0

    def start(self) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Zero-overhead default: records nothing, allocates nothing per call."""

    enabled = False

    def __init__(self):  # deliberately no state
        pass

    def now(self) -> float:
        return 0.0

    def span(self, name: str, *, category: str = "host",
             parent=_CURRENT, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def counter(self, name: str, value: float) -> None:
        pass

    def add_device_events(self, device, events, *, anchor=None, lane="",
                          trace_id=None) -> int:
        return 0

    @property
    def spans(self) -> tuple:
        return ()

    @property
    def device_spans(self) -> tuple:
        return ()

    @property
    def counters(self) -> tuple:
        return ()

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
