"""The flight recorder: always-on, bounded capture of every request.

:class:`FlightRecorder` is a :class:`~repro.trace.Tracer` subclass the
service installs by default, so every instrumented layer — engine
phases, strategies, the service's workers — flows into it with no
call-site changes.  Unlike the full tracer (unbounded lists, meant for
one explicitly-traced run), the recorder *summarizes as it goes*:

* each finished span folds into a small per-trace accumulator as a
  :class:`SpanSummary` (a slots object carrying exactly the fields the
  Chrome exporter reads);
* bridged device events are kept as **raw event batches** — a tuple
  copy of the environment's event list plus its anchor/lane — and only
  materialized into :class:`~repro.trace.DeviceSpan` lanes when a debug
  bundle or ``/debugz`` actually asks (the warm path pays one tuple
  copy, not one dataclass per event);
* when a trace's **root** span finishes, the accumulator seals into a
  :class:`RequestRecord` on a fixed-capacity ring; the oldest record
  falls off.  Caps on spans/events per trace make a single pathological
  request unable to blow the budget (overflow is counted, not kept).

``retain=True`` additionally keeps the base tracer's full unbounded
record lists, so one object can serve as both the ``--trace-dir``
tracer and the recorder.  The measured warm-path cost of the default
(non-retain) recorder is gated at <= 2% of warm fusion wall time in
``benchmarks/regress.py`` (``--check-recorder-overhead``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Iterable, Optional

from ..trace.tracer import DeviceSpan, Span, Tracer

__all__ = ["DeviceEventBatch", "FlightRecorder", "PlanNote",
           "RequestRecord", "SpanSummary"]

DEFAULT_CAPACITY = 256
MAX_SPANS_PER_TRACE = 128
MAX_DEVICE_BATCHES_PER_TRACE = 64


class SpanSummary:
    """A finished span, reduced to what exporters and bundles need.

    Field-compatible with :class:`~repro.trace.Span` as far as
    :func:`~repro.trace.chrome_trace_events` is concerned (name,
    category, thread, ids, times, attrs, duration).
    """

    __slots__ = ("name", "category", "thread", "trace_id", "span_id",
                 "parent_id", "start_time", "end_time", "attrs")

    @property
    def duration(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    @classmethod
    def of(cls, span: Span) -> "SpanSummary":
        s = cls.__new__(cls)
        s.name = span.name
        s.category = span.category
        s.thread = span.thread
        s.trace_id = span.trace_id
        s.span_id = span.span_id
        s.parent_id = span.parent_id
        s.start_time = span.start_time
        s.end_time = span.end_time
        s.attrs = span.attrs
        return s

    def __repr__(self) -> str:
        return f"SpanSummary({self.name!r}, trace={self.trace_id})"


class DeviceEventBatch:
    """One bridged run's device events, kept raw until someone looks.
    ``anchor`` is relative to the recorder's epoch, like
    :attr:`DeviceSpan.start`."""

    __slots__ = ("device", "lane", "anchor", "trace_id", "events")

    def __init__(self, device: str, lane: str, anchor: float,
                 trace_id: Optional[str], events: tuple):
        self.device = device
        self.lane = lane
        self.anchor = anchor
        self.trace_id = trace_id
        self.events = events

    def device_spans(self) -> "list[DeviceSpan]":
        """Materialize the batch into trace device lanes (bundle time)."""
        out = []
        for event in self.events:
            category = event.kind.value
            out.append(DeviceSpan(
                device=self.device,
                lane=(f"{self.lane}/{category}" if self.lane
                      else category),
                name=event.name or category,
                category=category,
                start=self.anchor + (event.ts_seconds or 0.0),
                duration=event.sim_seconds,
                nbytes=event.nbytes,
                trace_id=self.trace_id,
            ))
        return out


class PlanNote:
    """What plan one keyed execution ran (for bundles / ``/debugz``)."""

    __slots__ = ("key", "disposition", "sweep_source")

    def __init__(self, key, disposition: Optional[str],
                 sweep_source: Optional[str]):
        self.key = key
        self.disposition = disposition
        self.sweep_source = sweep_source

    def to_json(self) -> dict:
        return {
            "key": None if self.key is None else str(self.key),
            "disposition": self.disposition,
            "sweep_source": self.sweep_source,
        }


class _TraceAccum:
    """The open (root span not yet finished) side of one trace."""

    __slots__ = ("spans", "batches", "dropped_spans", "dropped_batches",
                 "plan")

    def __init__(self):
        self.spans: "list[SpanSummary]" = []
        self.batches: "list[DeviceEventBatch]" = []
        self.dropped_spans = 0
        self.dropped_batches = 0
        self.plan: Optional[PlanNote] = None


class RequestRecord:
    """One sealed trace on the recorder ring."""

    __slots__ = ("trace_id", "spans", "batches", "dropped_spans",
                 "dropped_batches", "plan", "sealed_at", "request_id",
                 "expression", "status", "device", "latency_s")

    def __init__(self, trace_id: Optional[str], accum: _TraceAccum,
                 sealed_at: float):
        self.trace_id = trace_id
        self.spans = accum.spans
        self.batches = accum.batches
        self.dropped_spans = accum.dropped_spans
        self.dropped_batches = accum.dropped_batches
        self.plan = accum.plan
        self.sealed_at = sealed_at
        # Result enrichment (attach_result) — None until the serving
        # layer reports the request's terminal state.
        self.request_id: Optional[int] = None
        self.expression: Optional[str] = None
        self.status: Optional[str] = None
        self.device: Optional[str] = None
        self.latency_s: Optional[float] = None

    @property
    def device_spans(self) -> "list[DeviceSpan]":
        spans: "list[DeviceSpan]" = []
        for batch in self.batches:
            spans.extend(batch.device_spans())
        return spans

    def device_digest(self) -> dict:
        """Per-device, per-category event counts/seconds/bytes — the
        cheap summary ``/debugz`` shows and bundles cross-check against
        the request's :class:`ExecutionReport` counters."""
        digest: dict = {}
        for batch in self.batches:
            lanes = digest.setdefault(batch.device, {})
            for event in batch.events:
                row = lanes.setdefault(event.kind.value, {
                    "count": 0, "modeled_seconds": 0.0, "bytes": 0})
                row["count"] += 1
                row["modeled_seconds"] += event.sim_seconds
                row["bytes"] += event.nbytes
        return digest

    def summary(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request": self.request_id,
            "expression": self.expression,
            "status": self.status,
            "device": self.device,
            "latency_s": self.latency_s,
            "spans": len(self.spans),
            "device_events": sum(len(b.events) for b in self.batches),
            "dropped_spans": self.dropped_spans,
            "dropped_device_batches": self.dropped_batches,
            "plan": None if self.plan is None else self.plan.to_json(),
        }


class _RecordView:
    """Adapter giving one :class:`RequestRecord` the read surface the
    Chrome exporter expects of a tracer (spans/device_spans/counters and
    the epoch its device lanes are stamped against)."""

    __slots__ = ("spans", "device_spans", "counters", "epoch")

    def __init__(self, record: RequestRecord, epoch: float):
        self.spans = tuple(record.spans)
        self.device_spans = tuple(record.device_spans)
        self.counters = ()
        self.epoch = epoch


class FlightRecorder(Tracer):
    """Bounded, always-on request recorder (module docstring)."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 max_spans_per_trace: int = MAX_SPANS_PER_TRACE,
                 max_device_batches_per_trace:
                 int = MAX_DEVICE_BATCHES_PER_TRACE,
                 retain: bool = False, clock=time.perf_counter):
        super().__init__(clock)
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.retain = retain
        self.max_spans_per_trace = max_spans_per_trace
        self.max_device_batches_per_trace = max_device_batches_per_trace
        self._rlock = threading.Lock()
        self._open: "OrderedDict[str, _TraceAccum]" = OrderedDict()
        self._ring: "deque[RequestRecord]" = deque()
        self._by_trace: "dict[str, RequestRecord]" = {}
        self.sealed_total = 0
        self.dropped_traces = 0          # abandoned accums evicted

    # -- capture (warm path) -------------------------------------------------

    def _record(self, span: Span) -> None:
        if self.retain:
            with self._lock:
                self._spans.append(span)
        trace_id = span.trace_id
        if trace_id is None:
            return
        summary = SpanSummary.of(span)
        with self._rlock:
            accum = self._accum(trace_id)
            if len(accum.spans) < self.max_spans_per_trace:
                accum.spans.append(summary)
            else:
                accum.dropped_spans += 1
            if span.parent_id is None:
                self._seal(trace_id, accum)

    def _accum(self, trace_id: str) -> _TraceAccum:
        """Get (or open) the accumulator for a live trace.  Caller holds
        ``_rlock``."""
        accum = self._open.get(trace_id)
        if accum is None:
            accum = _TraceAccum()
            self._open[trace_id] = accum
            # Abandoned-trace bound: a trace whose root never finishes
            # (crashed thread, leaked span) must not pin its
            # accumulator forever.
            while len(self._open) > 4 * self.capacity:
                self._open.popitem(last=False)
                self.dropped_traces += 1
        return accum

    def _seal(self, trace_id: str, accum: _TraceAccum) -> None:
        """Root finished: move the accumulator onto the ring.  Caller
        holds ``_rlock``."""
        self._open.pop(trace_id, None)
        record = RequestRecord(trace_id, accum, time.time())
        if len(self._ring) >= self.capacity:
            old = self._ring.popleft()
            if self._by_trace.get(old.trace_id) is old:
                del self._by_trace[old.trace_id]
        self._ring.append(record)
        self._by_trace[trace_id] = record
        self.sealed_total += 1

    def add_device_events(self, device: str, events: Iterable, *,
                          anchor: Optional[float] = None, lane: str = "",
                          trace_id: Optional[str] = None) -> int:
        if anchor is None:
            anchor = self.now()
        if trace_id is None:
            span = self.current()
            trace_id = span.trace_id if span is not None else None
        batch = DeviceEventBatch(device, lane, anchor - self.epoch,
                                 trace_id, tuple(events))
        if self.retain:
            spans = batch.device_spans()
            with self._lock:
                self._device_spans.extend(spans)
        if trace_id is not None:
            with self._rlock:
                record = self._by_trace.get(trace_id)
                if record is not None:
                    # Late bridge after the root sealed (defensive):
                    # attach to the sealed record so lanes stay whole.
                    if len(record.batches) \
                            < self.max_device_batches_per_trace:
                        record.batches.append(batch)
                else:
                    accum = self._accum(trace_id)
                    if len(accum.batches) \
                            < self.max_device_batches_per_trace:
                        accum.batches.append(batch)
                    else:
                        accum.dropped_batches += 1
        return len(batch.events)

    def counter(self, name: str, value: float) -> None:
        # Counter samples are high-frequency (queue depth on every
        # offer/take); the bounded recorder drops them — the metrics
        # registry already keeps the aggregate — unless this instance
        # also serves as the full retained tracer.
        if self.retain:
            super().counter(name, value)

    def note_plan(self, key, plan=None, disposition: Optional[str] = None,
                  ) -> None:
        span = self.current()
        trace_id = span.trace_id if span is not None else None
        if trace_id is None:
            return
        note = PlanNote(key, disposition,
                        getattr(plan, "sweep_source", None))
        with self._rlock:
            record = self._by_trace.get(trace_id)
            if record is not None:
                record.plan = note
            else:
                self._accum(trace_id).plan = note

    # -- read side -----------------------------------------------------------

    def records(self) -> "tuple[RequestRecord, ...]":
        """Sealed records, oldest first."""
        with self._rlock:
            return tuple(self._ring)

    def record_for(self, trace_id: Optional[str],
                   ) -> Optional[RequestRecord]:
        if trace_id is None:
            return None
        with self._rlock:
            return self._by_trace.get(trace_id)

    def attach_result(self, trace_id: Optional[str], *,
                      request_id: Optional[int] = None,
                      expression: Optional[str] = None,
                      status: Optional[str] = None,
                      device: Optional[str] = None,
                      latency_s: Optional[float] = None,
                      ) -> Optional[RequestRecord]:
        """Enrich the sealed record for ``trace_id`` with the request's
        terminal state; returns it (None when the trace never recorded,
        e.g. the service was built with a different tracer)."""
        record = self.record_for(trace_id)
        if record is None:
            return None
        record.request_id = request_id
        record.expression = expression
        record.status = status
        record.device = device
        record.latency_s = latency_s
        return record

    def trace_view(self, record: RequestRecord) -> _RecordView:
        """A tracer-shaped view of one record for the Chrome exporter."""
        return _RecordView(record, self.epoch)

    def stats(self) -> dict:
        with self._rlock:
            return {
                "capacity": self.capacity,
                "records": len(self._ring),
                "open_traces": len(self._open),
                "sealed_total": self.sealed_total,
                "dropped_traces": self.dropped_traces,
            }
