"""Simulated OpenCL kernel and program objects.

A :class:`Kernel` pairs the generated OpenCL C source (kept for inspection
and structural validation, exactly what the paper's dynamic kernel generator
emits) with a vectorized NumPy *executor* that performs the same computation
on the simulated device's buffers.  A :class:`Program` groups kernels built
from one source string, mirroring ``cl.Program(ctx, src).build()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import CLBuildError
from .perfmodel import KernelCost

__all__ = ["Kernel", "Program"]

# Executor signature: (*device_args) -> result ndarray.  Device args are the
# NumPy arrays backing buffer arguments, and plain Python scalars for
# by-value arguments (staged passes constants this way).
Executor = Callable[..., np.ndarray]


@dataclass
class Kernel:
    """One simulated ``__kernel`` entry point."""

    name: str
    source: str
    executor: Optional[Executor] = None
    arg_names: tuple[str, ...] = ()
    # Parsed-source cache for the interpreted backend: (unit, Interpreter).
    # Living on the kernel, it survives across plan-cached warm runs.
    clc_cache: Optional[tuple] = field(default=None, repr=False,
                                       compare=False)

    def run(self, args: Sequence[object]) -> tuple[Optional[np.ndarray], float]:
        """Execute the NumPy executor; returns (result, wall_seconds).

        A kernel without an executor returns ``(None, 0.0)``.
        """
        if self.executor is None:
            return None, 0.0
        start = time.perf_counter()
        result = self.executor(*args)
        return result, time.perf_counter() - start


@dataclass
class Program:
    """A set of kernels compiled from one OpenCL C source string."""

    source: str
    kernels: dict[str, Kernel] = field(default_factory=dict)
    built: bool = False

    def add_kernel(self, kernel: Kernel) -> None:
        if kernel.name in self.kernels:
            raise CLBuildError(f"duplicate kernel name {kernel.name!r}")
        self.kernels[kernel.name] = kernel

    def kernel(self, name: str) -> Kernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise CLBuildError(f"no kernel named {name!r} in program") from None

    @property
    def source_lines(self) -> int:
        return self.source.count("\n") + 1
