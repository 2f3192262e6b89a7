"""Modeled event-stream transforms: batch coalescing and transfer overlap.

Two rewrites of device-event streams, both pure functions of the
analytic performance model (no NumPy work happens here):

* :func:`coalesce_events` — merge B structurally-identical streams (the
  same plan launched over B requests' bindings) into the stream one
  *batched* launch would produce: each transfer pays the link latency
  once over the summed payload, each kernel pays the launch overhead
  once.  This is the modeled win the service's micro-batching dispatch
  amortizes; the engine coalesces a plan's fold B times for a batch of
  B (:meth:`~repro.host.engine.DerivedFieldEngine.execute_batch`).

* :func:`overlap_events` — re-time per-chunk streams onto a device with
  separate host-to-device, compute, and device-to-host engines (the
  dual-DMA layout of the paper's Tesla M2050), bounded to ``depth``
  chunks in flight.  Chunk k+1's uploads start while chunk k computes —
  classic double buffering — so the stream's *makespan* drops below the
  serial sum while every per-category total is unchanged.

The overlapped events carry the rewritten timeline in ``ts_seconds``,
and :meth:`~repro.clsim.events.EventLog.record` preserves pre-stamped
timestamps, so they are recorded into a live environment's log and flow
into timing summaries and Chrome-trace lanes unmodified; coalesced
events are unstamped, ready for sequential recording.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from .device import DeviceSpec
from .events import Event, EventKind, EventLog
from .perfmodel import transfer_seconds

__all__ = ["coalesce_events", "overlap_events", "makespan"]

# Which engine executes each event category under the overlapped model.
# Builds share the compute engine: compilation occupies the device core.
_LANES = {
    EventKind.DEV_WRITE: "h2d",
    EventKind.KERNEL: "compute",
    EventKind.BUILD: "compute",
    EventKind.DEV_READ: "d2h",
}

_TRANSFERS = (EventKind.DEV_WRITE, EventKind.DEV_READ)


def _event_lists(streams: Sequence[EventLog | Sequence[Event]],
                 ) -> list[list[Event]]:
    return [list(s.events) if isinstance(s, EventLog) else list(s)
            for s in streams]


def makespan(events: Iterable[Event]) -> float:
    """Timeline end: the latest modeled completion across all events."""
    return max(((e.ts_seconds or 0.0) + e.sim_seconds for e in events),
               default=0.0)


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


def overlap_events(chunk_streams: Sequence[EventLog | Sequence[Event]],
                   depth: int = 2) -> list[Event]:
    """Re-time per-chunk streams onto overlapped transfer/compute engines.

    Models a device with three independent in-order engines — an
    upload DMA (``h2d``), the compute core, and a readback DMA (``d2h``)
    — and at most ``depth`` chunks resident at once (``depth=2`` is
    double buffering: chunk k+1 may begin uploading only after chunk
    k-1 fully completed and released its buffers).

    Within a chunk, program order is the dependency chain (uploads feed
    the kernel, the kernel feeds the readback), so each event starts no
    earlier than its predecessor's completion; across chunks, only
    engine occupancy and the residency bound serialize.  Every event
    keeps its modeled duration — the rewrite changes *when*, never *how
    long*, so per-category totals (Fig 5) are invariant and the win
    shows up purely as makespan.

    Returns the events of all chunks stamped onto the overlapped
    timeline, sorted by start time.
    """
    if depth < 1:
        raise ValueError(f"pipeline depth must be >= 1: {depth}")
    lists = _event_lists(chunk_streams)
    lane_free = {"h2d": 0.0, "compute": 0.0, "d2h": 0.0}
    chunk_done: list[float] = []
    out: list[Event] = []
    for index, events in enumerate(lists):
        gate = chunk_done[index - depth] if index >= depth else 0.0
        prev_end = gate
        for event in events:
            lane = _LANES[event.kind]
            start = max(lane_free[lane], prev_end)
            end = start + event.sim_seconds
            lane_free[lane] = end
            prev_end = end
            out.append(replace(event, ts_seconds=start))
        chunk_done.append(prev_end)
    out.sort(key=lambda e: (e.ts_seconds or 0.0))
    return out
