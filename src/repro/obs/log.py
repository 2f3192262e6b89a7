"""Correlated structured logging: JSON-lines records with trace ids.

:class:`StructuredLogger` is the process-wide event log the engine,
strategies, codegen backend, and service workers write through.
Every record is a flat dict — ``ts``, ``level``, ``event``, plus
whatever fields the call site supplies (``trace_id`` / ``span_id`` /
``device`` / ``plan_key`` by convention) — so one ``grep trace_id``
joins log lines to trace spans, bundle manifests, and report JSON.

Records land on a bounded in-memory ring (debug bundles slice it by
trace id) and, when a stream sink is attached (``serve`` with
``--debug-bundle-dir`` attaches ``<dir>/service.log.jsonl``), are also
written out as one JSON object per line.

Level gating is a single integer compare before any dict is built, so
warm-path ``debug(...)`` calls under the default ``info`` level cost a
method call and a comparison — nothing else.  ``tracer=`` lets a call
site stamp the calling thread's current span without knowing its ids.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Optional

__all__ = ["LEVELS", "NULL_LOGGER", "StructuredLogger", "get_logger",
           "set_logger"]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
DEFAULT_CAPACITY = 2048


class StructuredLogger:
    """Bounded ring of structured records, with an optional line sink."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 level: str = "info", stream=None):
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}; "
                             f"choose from {sorted(LEVELS)}")
        self._level_no = LEVELS[level]
        self.level = level
        self._ring: "deque[dict]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stream = stream
        self.emitted_total = 0

    # -- configuration -------------------------------------------------------

    def set_level(self, level: str) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        self.level = level
        self._level_no = LEVELS[level]

    def set_stream(self, stream) -> None:
        """Attach (or detach, with ``None``) a JSON-lines sink.  The
        stream must be an open text file-like; the logger flushes after
        every record so a crash loses nothing."""
        with self._lock:
            self._stream = stream

    # -- write path ----------------------------------------------------------

    def log(self, level: str, event: str, *, tracer=None,
            **fields) -> Optional[dict]:
        """Emit one record; returns it (None when gated off)."""
        if LEVELS[level] < self._level_no:
            return None
        record = {"ts": time.time(), "level": level, "event": event}
        if tracer is not None:
            span = tracer.current()
            if span is not None and span.trace_id is not None:
                record["trace_id"] = span.trace_id
                record["span_id"] = span.span_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        with self._lock:
            self._ring.append(record)
            self.emitted_total += 1
            stream = self._stream
            if stream is not None:
                try:
                    stream.write(json.dumps(record, default=str) + "\n")
                    stream.flush()
                except Exception:
                    self._stream = None     # sink died; keep serving
        return record

    @property
    def debug_enabled(self) -> bool:
        """Cheap pre-check for warm-path call sites whose *arguments*
        are expensive to build (``str(plan_key)`` etc.)."""
        return self._level_no <= 10

    def debug(self, event: str, **fields) -> Optional[dict]:
        if self._level_no > 10:      # fast path: no kwargs dict walk
            return None
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> Optional[dict]:
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> Optional[dict]:
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> Optional[dict]:
        return self.log("error", event, **fields)

    # -- read path -----------------------------------------------------------

    def tail(self, n: int = 200,
             trace_id: Optional[str] = None) -> "list[dict]":
        """The most recent ``n`` records, optionally only those stamped
        with ``trace_id``."""
        with self._lock:
            records = list(self._ring)
        if trace_id is not None:
            records = [r for r in records
                       if r.get("trace_id") == trace_id]
        return records[-n:]

    def slice_for(self, trace_id: Optional[str],
                  context: int = 50) -> "list[dict]":
        """The bundle's log slice: every record for ``trace_id`` plus
        the last ``context`` records of any trace (what else the
        process was doing around the anomaly), de-duplicated and in
        arrival order."""
        with self._lock:
            records = list(self._ring)
        recent = records[-context:] if context else []
        if trace_id is None:
            return recent
        matched = [r for r in records if r.get("trace_id") == trace_id]
        seen = {id(r) for r in matched}
        merged = matched + [r for r in recent if id(r) not in seen]
        merged.sort(key=lambda r: r.get("ts", 0.0))
        return merged


class _NullLogger(StructuredLogger):
    """Drops everything (gating compare only)."""

    def __init__(self):
        super().__init__(capacity=1, level="error")
        self._level_no = 10 ** 9

    def log(self, level, event, *, tracer=None, **fields):
        return None


NULL_LOGGER = _NullLogger()

_default_logger = StructuredLogger()
_default_lock = threading.Lock()


def get_logger() -> StructuredLogger:
    """The process-wide structured logger call sites write through."""
    return _default_logger


def set_logger(logger: StructuredLogger) -> StructuredLogger:
    """Install ``logger`` as the process default; returns the previous
    one (tests swap in a fresh logger and restore after)."""
    global _default_logger
    with _default_lock:
        previous = _default_logger
        _default_logger = logger
    return previous
