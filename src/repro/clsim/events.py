"""Profiling events for the simulated OpenCL runtime.

The paper's framework records and categorizes device events through "an
OpenCL environment interface built on top of PyOpenCL ... using the standard
OpenCL device profiling API".  This module is that interface's event layer:
every host-to-device write, device-to-host read, kernel execution, and
program build appends an :class:`Event` to the queue's :class:`EventLog`.

Each event carries two durations: ``sim_seconds`` from the analytic device
performance model (used to reproduce the paper's figures at full scale) and
``wall_seconds``, the real time the NumPy executor took (zero in dry runs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from ..metrics import get_registry

__all__ = ["EventKind", "Event", "EventLog", "EventCounts",
           "event_counters"]


class EventKind(enum.Enum):
    """Categories matching the paper's Table II columns."""

    DEV_WRITE = "dev-write"    # host -> device transfer (Dev-W)
    DEV_READ = "dev-read"      # device -> host transfer (Dev-R)
    KERNEL = "kernel"          # kernel execution (K-Exe)
    BUILD = "build"            # program compilation


@dataclass(frozen=True)
class Event:
    """One profiled device event."""

    kind: EventKind
    name: str
    nbytes: int
    sim_seconds: float
    wall_seconds: float = 0.0
    # Modeled start offset on the in-order queue timeline, stamped by
    # :meth:`EventLog.record` (None until recorded).
    ts_seconds: Optional[float] = None


@dataclass(frozen=True)
class EventCounts:
    """The Table II triple for one execution."""

    dev_writes: int
    dev_reads: int
    kernel_execs: int

    def as_row(self) -> tuple[int, int, int]:
        return (self.dev_writes, self.dev_reads, self.kernel_execs)


@dataclass
class EventLog:
    """Append-only log with per-category aggregation.

    Recording stamps each event's ``ts_seconds`` with the modeled queue
    cursor — the in-order device executes events back to back, so an
    event starts where its predecessor ended.  Timestamps are therefore
    monotonically non-decreasing within one log, which is what lets the
    trace layer lay events onto device lanes without re-deriving offsets.
    """

    events: list[Event] = field(default_factory=list)
    cursor: float = 0.0
    # Record hook, called as ``observer(kind, count, nbytes)``: the
    # command queue installs its device's :func:`event_counters` here,
    # so every event a queue's log records — a custom strategy's, or a
    # plan's fold — lands in the process-wide transfer/kernel counters
    # (DESIGN.md §9) no matter which call site produced it.
    observer: Optional[Callable[[EventKind, int, int], None]] = None

    def record(self, event: Event) -> None:
        self.record_all((event,), ((event.kind, 1, event.nbytes),))

    def record_all(self, events: Iterable[Event],
                   totals: Iterable[tuple[EventKind, int, int]]) -> None:
        """Record ``events`` in order, notifying the observer once per
        kind with ``totals`` — their ``(kind, count, nbytes)`` sums — so
        a folded run (:class:`~repro.strategies.plancache.ModeledRun`),
        which precomputes them, advances each counter once rather than
        once per event.  Pre-stamped events keep their stamps."""
        for event in events:
            if event.ts_seconds is None:
                event = replace(event, ts_seconds=self.cursor)
            self.cursor = event.ts_seconds + event.sim_seconds
            self.events.append(event)
        if self.observer is not None:
            for kind, count, nbytes in totals:
                self.observer(kind, count, nbytes)

    def clear(self) -> None:
        self.events.clear()
        self.cursor = 0.0

    # -- aggregation -------------------------------------------------------

    def count(self, kind: EventKind) -> int:
        return sum(1 for e in self.events if e.kind is kind)

    def counts(self) -> EventCounts:
        return EventCounts(
            dev_writes=self.count(EventKind.DEV_WRITE),
            dev_reads=self.count(EventKind.DEV_READ),
            kernel_execs=self.count(EventKind.KERNEL),
        )

    def sim_time(self, kinds: Iterable[EventKind] | None = None) -> float:
        """Total simulated seconds, optionally restricted to categories."""
        wanted = set(kinds) if kinds is not None else None
        return sum(e.sim_seconds for e in self.events
                   if wanted is None or e.kind in wanted)

    def wall_time(self, kinds: Iterable[EventKind] | None = None) -> float:
        wanted = set(kinds) if kinds is not None else None
        return sum(e.wall_seconds for e in self.events
                   if wanted is None or e.kind in wanted)

    def bytes_moved(self, kind: EventKind) -> int:
        return sum(e.nbytes for e in self.events if e.kind is kind)

    def breakdown(self) -> dict[str, float]:
        """Simulated seconds per category, the paper's timing breakdown."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.kind.value] = out.get(e.kind.value, 0.0) + e.sim_seconds
        return out

    def to_chrome_trace(self) -> list[dict]:
        """Export the modeled timeline as Chrome trace-event JSON objects
        (load into chrome://tracing or Perfetto to see the in-order queue:
        transfers and kernels back to back).

        Events are laid out sequentially on one device track, matching the
        in-order simulated queue.  Timestamps/durations are microseconds.
        """
        trace = []
        for e in self.events:
            trace.append({
                "name": e.name,
                "cat": e.kind.value,
                "ph": "X",
                "ts": (e.ts_seconds or 0.0) * 1e6,
                "dur": e.sim_seconds * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"bytes": e.nbytes,
                         "wall_seconds": e.wall_seconds},
            })
        return trace


def event_counters(device: str, registry=None,
                   ) -> Callable[[EventKind, int, int], None]:
    """The registry mirror of one device's event layer (Table II's
    measurement surface): returns ``observe(kind, count, nbytes)``,
    which advances that kind's count counter and bytes counter.  The
    children are bound once, so one observation costs two increments.
    ``registry`` overrides the process registry."""
    if registry is None:
        registry = get_registry()
    transfers = registry.counter(
        "repro_clsim_transfers_total",
        "Host<->device transfers enqueued (Table II Dev-W / Dev-R)",
        ("device", "direction"))
    transfer_bytes = registry.counter(
        "repro_clsim_transfer_bytes_total",
        "Bytes moved across the host<->device link",
        ("device", "direction"))
    children = {
        EventKind.DEV_WRITE: (
            transfers.labels(device=device, direction="write"),
            transfer_bytes.labels(device=device, direction="write")),
        EventKind.DEV_READ: (
            transfers.labels(device=device, direction="read"),
            transfer_bytes.labels(device=device, direction="read")),
        EventKind.KERNEL: (
            registry.counter(
                "repro_clsim_kernel_launches_total",
                "Kernel executions enqueued (Table II K-Exe)",
                ("device",)).labels(device=device),
            registry.counter(
                "repro_clsim_kernel_global_bytes_total",
                "Global-memory bytes touched by enqueued kernels",
                ("device",)).labels(device=device)),
        EventKind.BUILD: (
            registry.counter(
                "repro_clsim_builds_total",
                "Program builds (one-time compilation events)",
                ("device",)).labels(device=device),
            None),
    }

    def observe(kind: EventKind, count: int, nbytes: int) -> None:
        count_child, bytes_child = children[kind]
        count_child.inc(count)
        if bytes_child is not None:
            bytes_child.inc(nbytes)

    return observe
