"""Simulated command queue with OpenCL-style profiling.

Mirrors the PyOpenCL calls the paper's framework issues:
``enqueue_write_buffer`` (host->device), ``enqueue_read_buffer``
(device->host), ``enqueue_kernel`` (ND-range launch) and program builds.
Every call appends a profiled :class:`~repro.clsim.events.Event`; the
Table II counters and Fig 5 timings fall out of this log.  A plan's
launch calls only :meth:`CommandQueue.run_kernel`, the execute step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import CLInvalidOperation
from .buffer import Buffer
from .context import Context
from .events import Event, EventKind, EventLog, event_counters
from .kernel import Kernel, Program
from .perfmodel import KernelCost, build_seconds, kernel_seconds, \
    transfer_seconds

__all__ = ["CommandQueue"]

_OUT_DTYPES = {"double": np.float64, "float": np.float32,
               "int": np.int32, "long": np.int64, "size_t": np.int64}


def _run_interpreted(kernel: Kernel, device_args: list,
                     outs: "list[Buffer]"):
    """Execute a kernel from its generated OpenCL C source via the
    :mod:`repro.clc` interpreter (the ``backend="interpreted"`` path).

    Output arrays are synthesized from the kernel's trailing parameter
    types and the output buffers' byte sizes; the work-item count follows
    from the first output.
    """
    import time

    from ..clc import parse_clc
    from ..clc.interp import Interpreter
    from ..errors import CLBuildError

    cached = kernel.clc_cache
    if cached is None:
        unit = parse_clc(kernel.source)
        cached = (unit, Interpreter(unit))
        kernel.clc_cache = cached
    unit, interpreter = cached
    fn = unit.function(kernel.name)

    n_inputs = len(device_args)
    out_params = fn.params[n_inputs:]
    if len(out_params) != len(outs):
        raise CLBuildError(
            f"kernel {kernel.name!r} has {len(out_params)} output "
            f"parameters for {len(outs)} output buffers")

    out_arrays = []
    global_size = None
    for param, buf in zip(out_params, outs):
        dtype = np.dtype(_OUT_DTYPES[param.type.scalar_base])
        width = param.type.vector_width
        n = buf.nbytes // (dtype.itemsize * width)
        shape = (n,) if width == 1 else (n, width)
        out_arrays.append(np.zeros(shape, dtype=dtype))
        if global_size is None:
            global_size = n
    start = time.perf_counter()
    interpreter.run_kernel(kernel.name, [*device_args, *out_arrays],
                           global_size or 0)
    wall = time.perf_counter() - start
    result = out_arrays[0] if len(out_arrays) == 1 else tuple(out_arrays)
    return result, wall


class CommandQueue:
    """In-order command queue on one simulated device."""

    def __init__(self, context: Context, registry=None):
        self.context = context
        self.device = context.device
        self.log = EventLog()
        self._xfer_seconds: dict[int, float] = {}
        # Every record path of the log lands in the registry's
        # transfer/kernel counters (``registry``, default the process's).
        self.log.observer = event_counters(self.device.name, registry)

    def xfer_seconds(self, nbytes: int) -> float:
        """Modeled host<->device transfer time, memoized per size — warm
        re-executions repeat the same buffer sizes every run."""
        seconds = self._xfer_seconds.get(nbytes)
        if seconds is None:
            seconds = transfer_seconds(nbytes, self.device)
            self._xfer_seconds[nbytes] = seconds
        return seconds

    # -- transfers -----------------------------------------------------------

    def enqueue_write_buffer(self, buffer: Buffer,
                             host_array: np.ndarray) -> None:
        """Copy a host array into device memory (Dev-W event)."""
        buffer.set_data(host_array)
        self.log.record(Event(
            EventKind.DEV_WRITE, buffer.label, host_array.nbytes,
            sim_seconds=self.xfer_seconds(host_array.nbytes)))

    def enqueue_read_buffer(self, buffer: Buffer) -> np.ndarray:
        """Copy device memory back to the host (Dev-R event)."""
        result = buffer.get_data().copy()
        self.log.record(Event(
            EventKind.DEV_READ, buffer.label, buffer.nbytes,
            sim_seconds=self.xfer_seconds(buffer.nbytes)))
        return result

    # -- kernels ---------------------------------------------------------------

    def enqueue_kernel(self, kernel: Kernel, args: Sequence[object],
                       out: "Buffer | Sequence[Buffer]",
                       cost: KernelCost) -> None:
        """Launch a kernel (:meth:`run_kernel`) and record its K-Exe
        event.  ``out`` is one buffer, or a sequence when the kernel
        writes several global arrays."""
        outs = list(out) if isinstance(out, (list, tuple)) else [out]
        wall = self.run_kernel(kernel, args, outs)
        self.log.record(Event(
            EventKind.KERNEL, kernel.name, cost.global_bytes,
            sim_seconds=kernel_seconds(cost, self.device),
            wall_seconds=wall))

    def run_kernel(self, kernel: Kernel, args: Sequence[object],
                   outs: "Sequence[Buffer]") -> float:
        """Run the kernel's NumPy executor (on the ``interpreted``
        backend, its OpenCL C) over ``args`` — :class:`Buffer` objects
        and by-value scalars — and store its result(s), a tuple for
        several, in ``outs``.  Returns the host wall seconds; records
        nothing."""
        device_args = [a.get_data() if isinstance(a, Buffer) else a
                       for a in args]
        if self.context.backend == "interpreted" and kernel.source.strip():
            result, wall = _run_interpreted(kernel, device_args, outs)
        else:
            result, wall = kernel.run(device_args)
        if result is not None:
            results = list(result) if isinstance(result, tuple) \
                else [result]
            if len(results) != len(outs):
                raise CLInvalidOperation(
                    f"kernel {kernel.name!r} produced {len(results)} "
                    f"outputs for {len(outs)} output buffers")
            for array, buf in zip(results, outs):
                if array.nbytes != buf.nbytes:
                    raise CLInvalidOperation(
                        f"kernel {kernel.name!r} produced "
                        f"{array.nbytes} B but output buffer "
                        f"{buf.label!r} is {buf.nbytes} B")
                buf.data = np.ascontiguousarray(array)
        return wall

    def build_program(self, program: Program) -> Program:
        """Build a program (BUILD event with compile-time cost)."""
        program.built = True
        self.log.record(Event(
            EventKind.BUILD, f"build[{len(program.kernels)}]", 0,
            sim_seconds=build_seconds(
                len(program.kernels), program.source_lines, self.device)))
        return program

    def finish(self) -> None:
        """In-order simulated queue: everything already completed."""
