"""Batch coalescing of modeled event streams.

:func:`coalesce_events` — a pure function of the analytic performance
model (no NumPy work happens here) — merges B structurally-identical
streams (the same plan launched over B requests' bindings) into the
stream one *batched* launch would produce: each transfer pays the link
latency once over the summed payload, each kernel pays the launch
overhead once.  This is the modeled win the service's micro-batching
dispatch amortizes; the engine coalesces a plan's fold B times for a
batch of B (:meth:`~repro.host.engine.DerivedFieldEngine.execute_batch`).
A chunked plan's overlapped transfer/compute timeline is stamped by the
plan's own fold
(:meth:`~repro.strategies.plancache.ExecutablePlan.modeled`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .device import DeviceSpec
from .events import Event, EventKind, EventLog
from .perfmodel import transfer_seconds

__all__ = ["coalesce_events"]

_TRANSFERS = (EventKind.DEV_WRITE, EventKind.DEV_READ)


def _event_lists(streams: Sequence[EventLog | Sequence[Event]],
                 ) -> list[list[Event]]:
    return [list(s.events) if isinstance(s, EventLog) else list(s)
            for s in streams]


def coalesce_events(streams: Sequence[EventLog | Sequence[Event]],
                    device: DeviceSpec) -> list[Event]:
    """Merge B identical-plan event streams into one batched stream.

    The streams must be position-wise congruent (same kinds in the same
    order — guaranteed when they are captures of the same plan over
    different bindings).  Position ``i`` of the result models the batched
    launch of every stream's event ``i``:

    * transfers move the stacked payload in one DMA — latency is paid
      once, the bandwidth term covers the summed bytes;
    * kernels run one launch over the stacked ND-range — the per-launch
      overhead is paid once, the work terms add (exact, because the
      identical per-member costs make ``max(mem, flop)`` distribute over
      the sum);
    * builds happen once (a batch shares its program).

    Timestamps are cleared: the result is an in-order stream ready for
    sequential re-recording.
    """
    lists = _event_lists(streams)
    if not lists:
        return []
    if len(lists) == 1:
        return [replace(e, ts_seconds=None) for e in lists[0]]
    length = len(lists[0])
    for events in lists[1:]:
        if len(events) != length:
            raise ValueError(
                f"cannot coalesce streams of different shapes: "
                f"{[len(ev) for ev in lists]} events")
    merged: list[Event] = []
    batch = len(lists)
    for position in zip(*lists):
        first = position[0]
        if any(e.kind is not first.kind for e in position[1:]):
            raise ValueError(
                f"cannot coalesce mismatched event kinds at position "
                f"{len(merged)}: {[e.kind.value for e in position]}")
        nbytes = sum(e.nbytes for e in position)
        wall = sum(e.wall_seconds for e in position)
        if first.kind in _TRANSFERS:
            sim = transfer_seconds(nbytes, device)
        elif first.kind is EventKind.KERNEL:
            saved = (batch - 1) * device.kernel_launch_overhead
            sim = sum(e.sim_seconds for e in position) - saved
        else:  # BUILD: compile once for the whole batch
            sim = first.sim_seconds
            nbytes = first.nbytes
            wall = first.wall_seconds
        merged.append(Event(first.kind, f"{first.name}[x{batch}]",
                            nbytes, sim_seconds=sim, wall_seconds=wall,
                            ts_seconds=None))
    return merged
