"""Dry-run planning: full-paper-scale experiments without the data.

A plan is the strategy's op schedule folded for its modeled effects
only (:meth:`~repro.strategies.plancache.ExecutablePlan.modeled`):
:func:`plan` builds the schedule from shape-only bindings and reads its
fold on the device.  Buffer sizes are reserved on an allocator (so
out-of-memory failures happen exactly where they would on the real
device) and every transfer and kernel event is logged with its modeled
duration, but no buffer or data exists.  This is how the 12 Table I
sub-grids — up to 2.6 GB per field — are swept for Fig 5 and Fig 6 on a
machine that could not hold them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..clsim.device import DeviceSpec, DeviceType
from ..clsim.environment import TimingSummary
from ..clsim.events import EventCounts, EventLog, event_counters
from ..clsim.platform import find_device
from ..dataflow.network import Network
from .base import ExecutionStrategy
from .bindings import ArraySpec
from .reference import ReferenceKernel

__all__ = ["PlanResult", "plan"]


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one dry-run execution.

    ``failed`` is True when the device ran out of global memory — the gray
    series in the paper's Figs 5 and 6.  ``mem_high_water`` is still
    meaningful on failure: it records the peak before the failing
    allocation (the CPU columns of Fig 6 show what a device would need).
    """

    strategy: str
    device: str
    failed: bool
    mem_high_water: int
    counts: EventCounts
    timing: Optional[TimingSummary]
    error: Optional[str] = None

    @property
    def runtime(self) -> Optional[float]:
        return None if self.failed or self.timing is None \
            else self.timing.total


def plan(strategy: Union[ExecutionStrategy, ReferenceKernel],
         shapes: Mapping[str, ArraySpec],
         device: Union[str, DeviceType, DeviceSpec],
         network: Optional[Network] = None) -> PlanResult:
    """Walk ``strategy``'s op schedule over shape-only bindings on
    ``device``.

    ``network`` is required for :class:`ExecutionStrategy` instances and
    ignored for :class:`ReferenceKernel` (which binds its own inputs).
    Chunked strategies (streaming, multi-device) plan like the others:
    their schedules are op tuples too.  The fold's events advance the
    process-wide ``repro_clsim_*`` transfer and kernel counters, as a
    live run's do.
    """
    if isinstance(strategy, ReferenceKernel):
        bindings, n, dtype = strategy.prepare(shapes)
        schedule = strategy.build_plan(bindings, n, dtype)
    else:
        if network is None:
            raise ValueError("network required for strategy plans")
        bindings, n, dtype = strategy.prepare(network, shapes)
        schedule = strategy.build_plan(network, bindings, n, dtype)
    spec = device if isinstance(device, DeviceSpec) else find_device(device)
    fold = schedule.modeled(spec)
    fold.record(EventLog(observer=event_counters(spec.name)))
    failed = fold.error is not None
    return PlanResult(
        strategy=strategy.name,
        device=spec.name,
        failed=failed,
        mem_high_water=fold.peak,
        counts=fold.counts,
        timing=None if failed else fold.timing,
        error=str(fold.error) if failed else None,
    )
