"""Simulated OpenCL context: a device binding plus its memory allocator.

Every buffer a context creates holds real storage.  A dry run creates
none: the plan's modeled walk reserves sizes on the allocator directly.
"""

from __future__ import annotations

from .buffer import Allocator, Buffer, BufferPool
from .device import DeviceSpec

__all__ = ["Context"]


class Context:
    """Owns the allocator for one simulated device.

    ``backend`` selects how kernels execute: ``"vectorized"`` (default)
    runs each kernel's NumPy executor; ``"interpreted"`` parses the
    kernel's generated OpenCL C and executes it work-item by work-item
    through :mod:`repro.clc` — far slower, but it proves the emitted
    source end to end.

    ``pooling=True`` attaches a :class:`~repro.clsim.buffer.BufferPool`:
    released buffers park their reservations in size-class free lists and
    subsequent requests recycle them — the warm-execution path.  Pooled
    allocations reserve the size-class capacity (>= the request), so cold
    paper artifacts must run with pooling off (the default).
    """

    BACKENDS = ("vectorized", "interpreted")

    def __init__(self, device: DeviceSpec, *, backend: str = "vectorized",
                 pooling: bool = False, registry=None):
        if backend not in self.BACKENDS:
            from ..errors import CLError
            raise CLError(f"unknown backend {backend!r}; "
                          f"choose from {self.BACKENDS}")
        self.device = device
        self.backend = backend
        self.allocator = Allocator(device, registry=registry)
        self.pool = (BufferPool(self.allocator, registry=registry)
                     if pooling else None)

    def create_buffer(self, nbytes: int, label: str = "") -> Buffer:
        """Allocate device global memory (raises CLOutOfMemoryError)."""
        if self.pool is not None:
            buf = self.pool.acquire(nbytes, label)
            if buf is not None:
                return buf
            return Buffer(self.allocator, nbytes, label=label,
                          capacity=self.pool.capacity_for(nbytes),
                          pool=self.pool)
        return Buffer(self.allocator, nbytes, label=label)

    @property
    def mem_in_use(self) -> int:
        return self.allocator.current_bytes

    @property
    def mem_high_water(self) -> int:
        return self.allocator.peak_bytes
