"""The *multi-device* execution strategy — the paper's second future-work
item (Section VI: "strategies that use multiple target devices on a single
node", e.g. Edge's two M2050s).

Splits the problem into one slab per device (with stencil halos), executes
each slab through an inner strategy against that device's own context and
queue, and reassembles.  Devices run concurrently in the modeled timeline,
so the reported simulated time is the *maximum* over devices plus nothing
for the (host-side) reassembly, while event counts aggregate across
devices and the memory requirement per device drops by ~1/n_devices —
exactly the trade the paper anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from ..clsim.device import DeviceSpec, DeviceType
from ..clsim.environment import CLEnvironment, TimingSummary
from ..clsim.events import EventCounts
from ..dataflow.network import Network
from ..errors import StrategyError
from ..primitives.base import ResultKind, VECTOR_WIDTH
from .base import ExecutionReport, ExecutionStrategy
from .bindings import BindingInput, require_data
from .chunking import (assemble, chunk_bindings, discover_mesh, halo_width,
                       plan_chunks)
from .fusion import FusionStrategy

__all__ = ["MultiDeviceStrategy", "DeviceReport"]


@dataclass(frozen=True)
class DeviceReport:
    """Per-device accounting of one multi-device execution."""

    device: str
    counts: EventCounts
    timing: TimingSummary
    mem_high_water: int


class MultiDeviceStrategy(ExecutionStrategy):
    """One slab per device, executed on independent contexts."""

    name = "multi-device"

    def __init__(self,
                 devices: Sequence[Union[str, DeviceType, DeviceSpec]]
                 = ("gpu", "gpu"),
                 inner: ExecutionStrategy | None = None):
        if not devices:
            raise StrategyError("need at least one device")
        self.devices = tuple(devices)
        self.inner = inner if inner is not None else FusionStrategy()

    def execute(self, network: Network,
                arrays: Mapping[str, BindingInput],
                env: CLEnvironment) -> ExecutionReport:
        """Run across ``self.devices``.

        ``env`` names the *primary* device (slab 0) so the strategy drops
        into the standard interface; further devices get their own fresh
        environments.  Per-device details land on the returned report's
        ``device_reports`` — the strategy itself holds no per-run state,
        so one instance is safe to reuse concurrently.
        """
        bindings, n, dtype = self.prepare(network, arrays)
        require_data(bindings)
        host_arrays = {name: binding.data
                       for name, binding in bindings.items()}
        layout = discover_mesh(host_arrays, n)
        chunks = plan_chunks(layout, len(self.devices), halo_width(network))

        environments = [env]
        environments.extend(
            CLEnvironment(device, backend=env.context.backend)
            for device in self.devices[1:])

        output_id = network.output_ids()[0]
        components = (VECTOR_WIDTH
                      if network.kind_of(output_id) is ResultKind.VECTOR
                      else 1)
        pieces = []
        sources: dict[str, str] = {}
        device_reports: list[DeviceReport] = []
        for chunk, device_env in zip(chunks, environments):
            sub = chunk_bindings(host_arrays, layout, chunk)
            report = self.inner.execute(network, sub, device_env)
            sources.update(report.generated_sources)
            pieces.append((chunk, report.output))
            device_reports.append(DeviceReport(
                device=device_env.device.name,
                counts=report.counts,
                timing=report.timing,
                mem_high_water=report.mem_high_water))
        output = assemble(pieces, layout, components)

        # Aggregate: counts sum; time is the parallel makespan; the memory
        # constraint is the worst single device.
        counts = EventCounts(
            dev_writes=sum(r.counts.dev_writes
                           for r in device_reports),
            dev_reads=sum(r.counts.dev_reads for r in device_reports),
            kernel_execs=sum(r.counts.kernel_execs
                             for r in device_reports))
        makespan = TimingSummary(
            host_to_device=max(r.timing.host_to_device
                               for r in device_reports),
            kernel_exec=max(r.timing.kernel_exec
                            for r in device_reports),
            device_to_host=max(r.timing.device_to_host
                               for r in device_reports),
            build=max(r.timing.build for r in device_reports),
            wall=sum(r.timing.wall for r in device_reports),
            makespan=max(r.timing.makespan for r in device_reports))
        return ExecutionReport(
            strategy=self.name,
            output=output,
            counts=counts,
            timing=makespan,
            mem_high_water=max(r.mem_high_water
                               for r in device_reports),
            generated_sources=sources,
            device_reports=tuple(device_reports))
