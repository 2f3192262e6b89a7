"""Simulated OpenCL runtime (the PyOpenCL + hardware substitute).

Models the two Edge-cluster targets — the Intel X5660 CPU and the NVIDIA
Tesla M2050 GPU — as :class:`~repro.clsim.device.DeviceSpec` objects, and
provides contexts, tracked global-memory buffers, in-order command queues
with OpenCL-style profiling events, program/kernel objects carrying real
generated OpenCL C source, and the paper's "OpenCL environment interface"
(:class:`~repro.clsim.environment.CLEnvironment`).

Execution is backed by vectorized NumPy; durations come from an analytic
roofline performance model so full-paper-scale experiments run as dry
plans.  See DESIGN.md §2 for why this substitution preserves the paper's
observable behaviour.
"""

from .buffer import AllocationStats, Allocator, Buffer, BufferPool
from .compiler import KernelSourceBuilder, validate_source
from .context import Context
from .device import (DeviceSpec, DeviceType, GIB, INTEL_X5660_CPU, KIB, MIB,
                     NVIDIA_M2050_GPU)
from .environment import CLEnvironment, TimingSummary
from .events import Event, EventCounts, EventKind, EventLog
from .kernel import Kernel, KernelSources, Program
from .perfmodel import KernelCost, build_seconds, kernel_seconds, \
    transfer_seconds
from .platform import Platform, find_device, get_platforms
from .queue import CommandQueue

__all__ = [
    "AllocationStats", "Allocator", "Buffer", "BufferPool",
    "KernelSourceBuilder", "validate_source",
    "Context", "DeviceSpec", "DeviceType", "GIB", "KIB", "MIB",
    "INTEL_X5660_CPU", "NVIDIA_M2050_GPU", "CLEnvironment", "TimingSummary",
    "Event", "EventCounts", "EventKind", "EventLog", "Kernel",
    "KernelSources", "Program",
    "KernelCost", "build_seconds", "kernel_seconds", "transfer_seconds",
    "Platform", "find_device", "get_platforms", "CommandQueue",
]
