"""Device global-memory buffers, the tracking allocator, and the pool.

The paper's memory study (Fig 6) measures "the maximum amount of global
device memory reserved for OpenCL buffers during execution" by having the
environment interface track every buffer request.  :class:`Allocator` does
exactly that: it refuses allocations beyond the device's global memory
(the mechanism behind the M2050's failed test cases) and records the
high-water mark.

Every :class:`Buffer` carries real NumPy storage.  The full-scale paper
grids (up to 2.6 GB per field) are planned without any buffers: a plan's
modeled walk (:meth:`~repro.strategies.plancache.ExecutablePlan.model`)
reserves their sizes on an :class:`Allocator` directly.

:class:`BufferPool` is the warm-execution extension (PyOpenCL ships the
same idea as ``pyopencl.tools.MemoryPool``): released buffers park their
device reservation in a size-class free list instead of returning it to the
allocator, so a repeated execution of the same plan recycles reservations
rather than re-reserving them.  Pooling is opt-in — cold runs (every Fig 6
artifact) never see a pool, so their accounting is unchanged — and pooled
bytes are reported separately (``pooled_bytes``) so warm-run accounting
stays honest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import CLInvalidOperation, CLOutOfMemoryError
from ..metrics import get_registry
from .device import DeviceSpec

__all__ = ["Buffer", "Allocator", "BufferPool", "AllocationStats"]


@dataclass(frozen=True)
class AllocationStats:
    """Observable allocator + pool counters for one device context.

    ``total_allocations`` counts real reservations (identical to the cold
    path); ``reused_allocations`` counts buffer requests satisfied from the
    pool without touching the allocator.  ``pooled_bytes`` is device memory
    currently parked in the pool — still reserved on the device, but not
    held by any live buffer.
    """

    total_allocations: int
    reused_allocations: int
    current_bytes: int
    peak_bytes: int
    pooled_bytes: int
    pool_hits: int
    pool_misses: int
    pool_returns: int

    @property
    def live_bytes(self) -> int:
        """Bytes held by live buffers (reserved minus pooled)."""
        return self.current_bytes - self.pooled_bytes


class Allocator:
    """Tracks global-memory consumption of one simulated device context."""

    def __init__(self, device: DeviceSpec, registry=None):
        self.device = device
        self.current_bytes = 0
        self.peak_bytes = 0
        self.total_allocations = 0
        self.reused_allocations = 0
        # Registry mirror (DESIGN.md §9): per-device allocated-bytes and
        # peak-bytes gauges plus a reservation counter.  Children are
        # bound once here; per-device gauges reflect the most recently
        # active allocator on that device label (one warm engine per
        # device in every supported deployment).  ``registry`` overrides
        # the process-wide registry — a plan's fold passes NULL_REGISTRY
        # so its modeled walk stays unmetered.
        if registry is None:
            registry = get_registry()
        device_label = {"device": device.name}
        self._m_allocated = registry.gauge(
            "repro_clsim_allocated_bytes",
            "Device global memory currently reserved for buffers",
            ("device",)).labels(**device_label)
        self._m_peak = registry.gauge(
            "repro_clsim_peak_bytes",
            "High-water mark of reserved device global memory since the "
            "last instrumentation reset (the Fig 6 measure)",
            ("device",)).labels(**device_label)
        self._m_reservations = registry.counter(
            "repro_clsim_allocations_total",
            "Device buffer reservations served by the allocator",
            ("device",)).labels(**device_label)
        self._m_allocated.set(0)
        self._m_peak.set(0)

    def reserve(self, nbytes: int, label: str = "") -> None:
        if nbytes < 0:
            raise CLInvalidOperation(f"negative allocation: {nbytes}")
        if self.current_bytes + nbytes > self.device.global_mem_bytes:
            raise CLOutOfMemoryError(
                f"allocating {nbytes} B for {label!r} exceeds "
                f"{self.device.name} global memory "
                f"({self.current_bytes} B in use of "
                f"{self.device.global_mem_bytes} B)",
                requested=nbytes,
                available=self.device.global_mem_bytes - self.current_bytes,
            )
        self.current_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        self.total_allocations += 1
        self._m_allocated.set(self.current_bytes)
        self._m_peak.set(self.peak_bytes)
        self._m_reservations.inc()

    def release(self, nbytes: int) -> None:
        if nbytes > self.current_bytes:
            raise CLInvalidOperation(
                f"releasing {nbytes} B but only {self.current_bytes} B in use")
        self.current_bytes -= nbytes
        self._m_allocated.set(self.current_bytes)

    @property
    def available_bytes(self) -> int:
        return self.device.global_mem_bytes - self.current_bytes

    def reset_peak(self) -> None:
        self.peak_bytes = self.current_bytes
        self._m_peak.set(self.peak_bytes)

    def note_external_peak(self, nbytes: int) -> None:
        """Raise the high-water mark to a peak modeled outside this
        allocator: a run notes its plan's fold peak, which a compiled
        sweep (no device buffers) or a chunked plan's overlapped slabs
        never reach live, so Fig 6 accounting is unchanged."""
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes
            self._m_peak.set(self.peak_bytes)

    def stats(self, pool: "BufferPool | None" = None) -> AllocationStats:
        return AllocationStats(
            total_allocations=self.total_allocations,
            reused_allocations=self.reused_allocations,
            current_bytes=self.current_bytes,
            peak_bytes=self.peak_bytes,
            pooled_bytes=pool.pooled_bytes if pool else 0,
            pool_hits=pool.hits if pool else 0,
            pool_misses=pool.misses if pool else 0,
            pool_returns=pool.returns if pool else 0,
        )


_MIN_CLASS = 64


def size_class(nbytes: int) -> int:
    """Round a request up to its pool size class (power of two, >= 64 B).

    Class binning is what lets slightly different request sizes share one
    free list; for warm re-execution of an identical plan the sizes repeat
    exactly, so every class is an exact hit after the first run.
    """
    if nbytes <= _MIN_CLASS:
        return _MIN_CLASS
    return 1 << (nbytes - 1).bit_length()


class BufferPool:
    """Size-class free list of parked device reservations.

    The pool never stores array data or :class:`Buffer` objects — only the
    byte reservations themselves — so a recycled buffer can never alias a
    previously released one.  A released pooled buffer keeps its bytes
    reserved on the device (they count against the OOM limit, exactly as a
    real ``MemoryPool`` would) until :meth:`trim` hands them back.

    Thread-safe: a single lock serializes park/acquire/trim and the
    counters, so pooled warm state can be shared by concurrent executions
    (the service's shared-engine path).  One reservation is handed to at
    most one acquirer by construction — the free-list decrement happens
    under the lock.
    """

    def __init__(self, allocator: Allocator, registry=None):
        self.allocator = allocator
        self._free: dict[int, int] = {}   # capacity -> parked reservations
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.returns = 0
        self.pooled_bytes = 0
        self.bytes_reused = 0
        # Registry mirror of the pool counters (hot on the warm path:
        # one hit + one return per recycled buffer per run).
        if registry is None:
            registry = get_registry()
        device_label = {"device": allocator.device.name}
        self._m_hits = registry.counter(
            "repro_clsim_pool_hits_total",
            "Buffer requests satisfied from the pool free list",
            ("device",)).labels(**device_label)
        self._m_misses = registry.counter(
            "repro_clsim_pool_misses_total",
            "Buffer requests that fell through to the allocator",
            ("device",)).labels(**device_label)
        self._m_returns = registry.counter(
            "repro_clsim_pool_returns_total",
            "Released buffers parked back into the pool",
            ("device",)).labels(**device_label)
        self._m_reused_bytes = registry.counter(
            "repro_clsim_pool_reused_bytes_total",
            "Reservation bytes recycled from the pool",
            ("device",)).labels(**device_label)
        self._m_pooled = registry.gauge(
            "repro_clsim_pooled_bytes",
            "Device memory currently parked in the pool free list",
            ("device",)).labels(**device_label)
        self._m_pooled.set(0)

    def capacity_for(self, nbytes: int) -> int:
        return size_class(nbytes)

    def acquire(self, nbytes: int, label: str = "") -> "Optional[Buffer]":
        """Return a recycled buffer for ``nbytes``, or None on a miss."""
        capacity = self.capacity_for(nbytes)
        with self._lock:
            if self._free.get(capacity, 0) > 0:
                self._free[capacity] -= 1
                self.pooled_bytes -= capacity
                self.hits += 1
                self.bytes_reused += capacity
                self.allocator.reused_allocations += 1
                self._m_hits.inc()
                self._m_reused_bytes.inc(capacity)
                self._m_pooled.set(self.pooled_bytes)
                return Buffer._adopt(self.allocator, nbytes,
                                     capacity=capacity, label=label,
                                     pool=self)
            self.misses += 1
            self._m_misses.inc()
            return None

    def _park(self, capacity: int) -> None:
        """Take back a released buffer's reservation (internal: called by
        :meth:`Buffer.release`)."""
        with self._lock:
            self._free[capacity] = self._free.get(capacity, 0) + 1
            self.pooled_bytes += capacity
            self.returns += 1
            self._m_returns.inc()
            self._m_pooled.set(self.pooled_bytes)

    def trim(self) -> int:
        """Release every parked reservation back to the allocator; returns
        the number of bytes freed."""
        with self._lock:
            freed = 0
            for capacity, count in self._free.items():
                for _ in range(count):
                    self.allocator.release(capacity)
                    freed += capacity
            self._free.clear()
            self.pooled_bytes = 0
            self._m_pooled.set(0)
            return freed


class Buffer:
    """A simulated ``cl.Buffer``.

    ``data`` is the device-side copy as a NumPy array (``None`` until the
    first write).  Release is explicit (:meth:`release`) — the execution
    strategies free intermediates as reference counts drop, which is what
    produces their distinct memory footprints.

    ``capacity`` is the reserved byte count; it equals ``nbytes`` except
    for pooled buffers, whose reservations are rounded up to the pool's
    size class.  A pooled buffer's :meth:`release` parks the reservation in
    the pool instead of returning it to the allocator.
    """

    def __init__(self, allocator: Allocator, nbytes: int, *,
                 label: str = "", capacity: Optional[int] = None,
                 pool: Optional[BufferPool] = None):
        capacity = nbytes if capacity is None else max(capacity, nbytes)
        allocator.reserve(capacity, label)
        self._setup(allocator, nbytes, capacity, label, pool)

    @classmethod
    def _adopt(cls, allocator: Allocator, nbytes: int, *, capacity: int,
               label: str, pool: BufferPool) -> "Buffer":
        """Construct over an already-reserved pooled capacity (no
        allocator traffic — the pool hit path)."""
        buf = cls.__new__(cls)
        buf._setup(allocator, nbytes, capacity, label, pool)
        return buf

    def _setup(self, allocator: Allocator, nbytes: int, capacity: int,
               label: str, pool: Optional[BufferPool]) -> None:
        self._allocator = allocator
        self.nbytes = nbytes
        self.capacity = capacity
        self.label = label
        self._pool = pool
        self.data: Optional[np.ndarray] = None
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def set_data(self, array: np.ndarray) -> None:
        """Attach the device-side copy (host->device write)."""
        self._check_alive()
        if array.nbytes != self.nbytes:
            raise CLInvalidOperation(
                f"buffer {self.label!r} is {self.nbytes} B but host array "
                f"is {array.nbytes} B")
        # Device memory is a distinct address space: always copy, never view,
        # so in-situ host arrays are never aliased by kernels.
        self.data = np.array(array, copy=True)

    def get_data(self) -> np.ndarray:
        """Return the device-side copy (device->host read)."""
        self._check_alive()
        if self.data is None:
            raise CLInvalidOperation(
                f"buffer {self.label!r} read before any write")
        return self.data

    def release(self) -> None:
        """Return this buffer's bytes to the allocator — or park them in
        the pool when this context pools buffers (idempotent)."""
        if self._released:
            return
        self.data = None
        self._released = True
        if self._pool is not None:
            self._pool._park(self.capacity)
        else:
            self._allocator.release(self.capacity)

    def _check_alive(self) -> None:
        if self._released:
            raise CLInvalidOperation(
                f"operation on released buffer {self.label!r}")

    def __repr__(self) -> str:
        state = "released" if self._released else "live"
        return f"Buffer({self.label!r}, {self.nbytes} B, {state})"
