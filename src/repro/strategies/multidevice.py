"""The *multi-device* execution strategy — the paper's second future-work
item (Section VI: "strategies that use multiple target devices on a single
node", e.g. Edge's two M2050s).

The plan is :func:`~repro.strategies.chunking.chunk_plan` over an inner
strategy's schedule with one slab (plus stencil halos) per device, each
on its own allocator.  Devices run concurrently in the modeled timeline,
so the reported simulated time is the slowest device's per category,
event counts sum across devices, and the memory requirement per device
drops by ~1/n_devices — exactly the trade the paper anticipates.  The
report's ``device_reports`` break the run down per device.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

import numpy as np

from ..clsim.device import DeviceSpec, DeviceType
from ..clsim.platform import find_device
from ..dataflow.network import Network
from ..errors import StrategyError
from .base import DeviceReport, ExecutionStrategy
from .bindings import Binding
from .chunking import chunk_plan
from .fusion import FusionStrategy
from .plancache import ExecutablePlan

__all__ = ["MultiDeviceStrategy", "DeviceReport"]


class MultiDeviceStrategy(ExecutionStrategy):
    """One slab per device.  The environment a run launches on is the
    *primary* device and takes slab 0; ``devices[1:]`` take the rest."""

    name = "multi-device"

    def __init__(self,
                 devices: Sequence[Union[str, DeviceType, DeviceSpec]]
                 = ("gpu", "gpu"),
                 inner: ExecutionStrategy | None = None):
        if not devices:
            raise StrategyError("need at least one device")
        self.devices = tuple(devices)
        self.inner = inner if inner is not None else FusionStrategy()

    def build_plan(self, network: Network,
                   bindings: Mapping[str, Binding],
                   n: int, dtype: np.dtype) -> ExecutablePlan:
        return chunk_plan(self.inner, network, bindings, n, dtype,
                          len(self.devices), name=self.name,
                          devices=tuple(
                              d if isinstance(d, DeviceSpec)
                              else find_device(d)
                              for d in self.devices[1:]))
