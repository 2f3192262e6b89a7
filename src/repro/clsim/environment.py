"""The "OpenCL environment interface" from the paper.

Section IV-D: *"Our framework provides an OpenCL environment interface built
on top of PyOpenCL that records and categorizes timing events ... In
addition to recording timing events, the interface manages requests for
device buffers. The amount of memory reserved for each device buffer is
tracked."*

:class:`CLEnvironment` is that object: device selection, context + queue
creation, buffer management, and the aggregated timing / event-count /
memory views every study in the evaluation reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffer import AllocationStats, Buffer, BufferPool
from .context import Context
from .device import DeviceSpec, DeviceType
from .events import EventCounts, EventKind
from .platform import find_device
from .queue import CommandQueue
from ..trace import NULL_TRACER

__all__ = ["CLEnvironment", "TimingSummary"]


@dataclass(frozen=True)
class TimingSummary:
    """Per-category simulated timing breakdown for one execution.

    ``total`` corresponds to the y-axis of Fig 5: host-to-device transfers +
    kernel executions + device-to-host transfers (build time is reported
    separately, as the paper's timings exclude one-time compilation).
    """

    host_to_device: float
    kernel_exec: float
    device_to_host: float
    build: float
    wall: float
    # Timeline end: latest modeled completion across the event log.  On
    # the serial in-order queue this equals ``total`` + build; under the
    # overlapped streaming timeline (transfers of chunk k+1 behind the
    # compute of chunk k) it is strictly smaller — the double-buffering
    # win is exactly ``total + build - makespan``.
    makespan: float = 0.0

    @property
    def total(self) -> float:
        return self.host_to_device + self.kernel_exec + self.device_to_host


class CLEnvironment:
    """One device's context, queue, and instrumentation.

    Environments always run live.  :func:`repro.strategies.plan` plans
    shapes by running a schedule's modeled walk
    (:meth:`~repro.strategies.plancache.ExecutablePlan.model`) on a fresh
    environment's allocator and event log — a live run's events, peak
    and out-of-memory failures, without data.
    """

    def __init__(self, device: str | DeviceType | DeviceSpec = "gpu", *,
                 backend: str = "vectorized", pooling: bool = False,
                 tracer=None, registry=None):
        if isinstance(device, DeviceSpec):
            self.device = device
        else:
            self.device = find_device(device)
        # The owning engine's tracer (strategies read it for launch-phase
        # spans); NULL_TRACER keeps the hot path allocation-free.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.context = Context(self.device, backend=backend,
                               pooling=pooling, registry=registry)
        self.queue = CommandQueue(self.context, registry=registry)

    def capture(self) -> "CLEnvironment":
        """A capture twin of this environment: the *same* context
        (allocator and buffer pool — so buffers and pooled reuse behave
        exactly as a run on this environment would) but a private,
        registry-silent command queue.

        Batched and pipelined execution run each member/chunk against a
        capture twin to obtain its solo event stream, then rewrite the
        streams (:mod:`repro.clsim.pipeline`) into this environment's
        log — recording modeled events exactly once, on the merged
        timeline, so process-wide counters see the batched semantics.
        """
        from ..metrics import NULL_REGISTRY

        twin = object.__new__(CLEnvironment)
        twin.device = self.device
        twin.tracer = NULL_TRACER
        twin.context = self.context
        twin.queue = CommandQueue(self.context, registry=NULL_REGISTRY)
        return twin

    # -- buffers -------------------------------------------------------------

    def create_buffer(self, nbytes: int, label: str = "") -> Buffer:
        return self.context.create_buffer(nbytes, label)

    def upload(self, array: np.ndarray, label: str = "") -> Buffer:
        """Allocate a buffer and enqueue the host->device write."""
        buf = self.context.create_buffer(array.nbytes, label)
        self.queue.enqueue_write_buffer(buf, array)
        return buf

    # -- instrumentation ----------------------------------------------------

    def event_counts(self) -> EventCounts:
        """The Table II (Dev-W, Dev-R, K-Exe) triple."""
        return self.queue.log.counts()

    def timing(self) -> TimingSummary:
        log = self.queue.log
        return TimingSummary(
            host_to_device=log.sim_time([EventKind.DEV_WRITE]),
            kernel_exec=log.sim_time([EventKind.KERNEL]),
            device_to_host=log.sim_time([EventKind.DEV_READ]),
            build=log.sim_time([EventKind.BUILD]),
            wall=log.wall_time(),
            makespan=max(((e.ts_seconds or 0.0) + e.sim_seconds
                          for e in log.events), default=0.0),
        )

    @property
    def mem_high_water(self) -> int:
        """Peak global device memory reserved for buffers (Fig 6 y-axis)."""
        return self.context.mem_high_water

    @property
    def mem_in_use(self) -> int:
        return self.context.mem_in_use

    @property
    def pool(self) -> BufferPool | None:
        """The buffer pool, when this environment was built with
        ``pooling=True`` (the warm-execution path)."""
        return self.context.pool

    def alloc_stats(self) -> AllocationStats:
        """Allocator + pool counters: total/reused allocations, peak,
        pooled bytes.  Observable pool efficacy without a debugger."""
        return self.context.allocator.stats(self.context.pool)

    def reset_instrumentation(self) -> None:
        """Clear the event log and peak tracking between test cases."""
        self.queue.log.clear()
        self.context.allocator.reset_peak()
