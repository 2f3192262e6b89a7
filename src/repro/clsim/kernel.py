"""Simulated OpenCL kernel and program objects.

A :class:`Kernel` pairs the generated OpenCL C source (kept for inspection
and structural validation, exactly what the paper's dynamic kernel generator
emits) with a vectorized NumPy *executor* that performs the same computation
on the simulated device's buffers.  A :class:`Program` groups kernels built
from one source string, mirroring ``cl.Program(ctx, src).build()``.

A generator may defer the expensive half of its kernels: a
:class:`KernelSources` holds the kernel names up front and a build function
that renders, validates and compiles every kernel of a plan the first time
any source or executor is read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..errors import CLBuildError

__all__ = ["Kernel", "KernelSources", "Program"]

# Executor signature: (*device_args) -> result ndarray.  Device args are the
# NumPy arrays backing buffer arguments, and plain Python scalars for
# by-value arguments (staged passes constants this way).
Executor = Callable[..., np.ndarray]


class KernelSources(Mapping):
    """Read-only ``{kernel name: OpenCL C}`` over kernels built on demand.

    ``build()`` returns ``{name: (source, executor)}`` for every name; it
    runs once, on the first read of a source or executor, under a lock,
    so the threads sharing one plan build it once and see one result.  A
    build that raises (say :class:`~repro.errors.CLBuildError` from
    validation) is not kept: every later read raises again.  Names,
    ``len()`` and iteration never build.
    """

    def __init__(self, names: Sequence[str],
                 build: Callable[[], Mapping[str, tuple[str, Executor]]]):
        self._names = tuple(names)
        self._build: Optional[Callable] = build
        self._built: Optional[Mapping[str, tuple[str, Executor]]] = None
        self._lock = threading.Lock()

    def kernels(self) -> Mapping[str, tuple[str, Executor]]:
        """Every kernel's ``(source, executor)``, built now if need be."""
        built = self._built
        if built is None:
            with self._lock:
                if self._built is None:
                    self._built = self._build()
                    self._build = None      # drop the generator's inputs
                built = self._built
        return built

    def __getitem__(self, name: str) -> str:
        if name not in self._names:
            raise KeyError(name)
        return self.kernels()[name][0]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._names


class Kernel:
    """One simulated ``__kernel`` entry point.

    ``source`` and ``executor`` are given, or — with ``on_demand`` — read
    from the plan's :class:`KernelSources`, which builds them on first
    access.
    """

    def __init__(self, name: str, source: str = "",
                 executor: Optional[Executor] = None,
                 arg_names: tuple[str, ...] = (), *,
                 on_demand: Optional[KernelSources] = None):
        self.name = name
        self.arg_names = arg_names
        self._source = source
        self._executor = executor
        self._on_demand = on_demand
        # Parsed-source cache for the interpreted backend: (unit,
        # Interpreter).  Living on the kernel, it survives across
        # plan-cached warm runs.
        self.clc_cache: Optional[tuple] = None

    def _pull(self) -> None:
        on_demand = self._on_demand
        if on_demand is not None:
            self._source, self._executor = on_demand.kernels()[self.name]
            self._on_demand = None

    @property
    def source(self) -> str:
        self._pull()
        return self._source

    @property
    def executor(self) -> Optional[Executor]:
        self._pull()
        return self._executor

    def __repr__(self) -> str:
        return f"Kernel({self.name!r})"

    def run(self, args: Sequence[object]) -> tuple[Optional[np.ndarray], float]:
        """Execute the NumPy executor; returns (result, wall_seconds).

        A kernel without an executor returns ``(None, 0.0)``.
        """
        executor = self.executor
        if executor is None:
            return None, 0.0
        start = time.perf_counter()
        result = executor(*args)
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
