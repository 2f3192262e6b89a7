"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

Lays one :class:`~repro.trace.Tracer`'s records out in the Trace Event
Format:

* **pid 1** is the host process; each Python thread that opened spans
  gets its own tid, named via thread-name metadata;
* **one pid per simulated device** (2, 3, ... in first-appearance order),
  named after the device; within a device, **one tid per lane** — the
  bridged event lanes are ``<worker or strategy>/<category>``, so kernel
  executions and transfers land on separate, countable tracks;
* **counter events** (``ph: "C"``) for the sampled gauges — admission
  queue depth and pooled bytes;
* metadata events (``ph: "M"``) name every process and thread.

Timestamps are microseconds relative to the earliest record, sorted
ascending (metadata first), which is what the CI trace-smoke validator
checks.  Span/trace ids ride along in ``args`` so a device lane can be
joined back to the request that produced it.
"""

from __future__ import annotations

import json
from typing import Union

from .tracer import Tracer

__all__ = ["chrome_trace_events", "write_chrome_trace"]


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """Render every record as Chrome trace-event dicts (sorted by ts)."""
    spans = tracer.spans
    device_spans = tracer.device_spans
    counters = tracer.counters

    # Device lanes are stamped relative to the tracer's epoch; host spans
    # and counters carry raw clock values.
    origin = getattr(tracer, "epoch", 0.0)
    starts = ([s.start_time for s in spans if s.start_time is not None]
              + [origin + d.start for d in device_spans]
              + [c.ts for c in counters])
    epoch = min(starts) if starts else 0.0

    def us(t: float) -> float:
        return max((t - epoch) * 1e6, 0.0)

    HOST_PID = 1
    events: list[dict] = []
    meta: list[dict] = [{
        "name": "process_name", "ph": "M", "ts": 0.0,
        "pid": HOST_PID, "tid": 0, "args": {"name": "host"},
    }]

    # Host spans: one tid per thread name.
    host_tids: dict[str, int] = {}
    for span in spans:
        tid = host_tids.get(span.thread)
        if tid is None:
            tid = host_tids[span.thread] = len(host_tids) + 1
            meta.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                         "pid": HOST_PID, "tid": tid,
                         "args": {"name": span.thread}})
        args = {"trace_id": span.trace_id, "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key, value in span.attrs.items():
            args[key] = _jsonable(value)
        events.append({
            "name": span.name, "cat": span.category, "ph": "X",
            "ts": us(span.start_time), "dur": span.duration * 1e6,
            "pid": HOST_PID, "tid": tid, "args": args,
        })

    # Device lanes: one pid per device, one tid per lane.
    device_pids: dict[str, int] = {}
    lane_tids: dict[tuple[str, str], int] = {}
    for dspan in device_spans:
        pid = device_pids.get(dspan.device)
        if pid is None:
            pid = device_pids[dspan.device] = HOST_PID + 1 + len(device_pids)
            meta.append({"name": "process_name", "ph": "M", "ts": 0.0,
                         "pid": pid, "tid": 0,
                         "args": {"name": f"device: {dspan.device}"}})
        tid = lane_tids.get((dspan.device, dspan.lane))
        if tid is None:
            tid = lane_tids[(dspan.device, dspan.lane)] = 1 + sum(
                1 for key in lane_tids if key[0] == dspan.device)
            meta.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                         "pid": pid, "tid": tid,
                         "args": {"name": dspan.lane}})
        args = {"bytes": dspan.nbytes, "modeled_seconds": dspan.duration}
        if dspan.trace_id is not None:
            args["trace_id"] = dspan.trace_id
        events.append({
            "name": dspan.name, "cat": dspan.category, "ph": "X",
            "ts": us(origin + dspan.start), "dur": dspan.duration * 1e6,
            "pid": pid, "tid": tid, "args": args,
        })

    for sample in counters:
        events.append({
            "name": sample.name, "cat": "counter", "ph": "C",
            "ts": us(sample.ts), "pid": HOST_PID, "tid": 0,
            "args": {"value": sample.value},
        })

    events.sort(key=lambda e: e["ts"])
    return meta + events


def write_chrome_trace(tracer: Tracer, path: Union[str, "object"]) -> int:
    """Write ``{"traceEvents": [...]}`` JSON; returns the event count."""
    events = chrome_trace_events(tracer)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(events)
