"""Dry-run planning: full-paper-scale experiments without the data.

A plan runs a strategy's ``execute`` unmodified against a dry-run
:class:`~repro.clsim.environment.CLEnvironment`, where the strategy's op
schedule is walked for its modeled effects only
(:meth:`~repro.strategies.plancache.ExecutablePlan.model`): buffer sizes
are reserved on the allocator (so out-of-memory failures happen exactly
where they would on the real device) and every transfer and kernel event
is logged with its modeled duration, but no buffer or data exists.  This
is how the 12 Table I sub-grids — up to 2.6 GB per field — are swept for
Fig 5 and Fig 6 on a machine that could not hold them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..clsim.device import DeviceSpec, DeviceType
from ..clsim.environment import CLEnvironment, TimingSummary
from ..clsim.events import EventCounts
from ..dataflow.network import Network
from ..errors import CLOutOfMemoryError
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
    """Dry-run ``strategy`` over shape-only bindings on ``device``.

    ``network`` is required for :class:`ExecutionStrategy` instances and
    ignored for :class:`ReferenceKernel` (which binds its own inputs).
    """
    env = CLEnvironment(device, dry_run=True)
    try:
        if isinstance(strategy, ReferenceKernel):
            report = strategy.execute(shapes, env)
        else:
            if network is None:
                raise ValueError("network required for strategy plans")
            report = strategy.execute(network, shapes, env)
    except CLOutOfMemoryError as exc:
        return PlanResult(
            strategy=strategy.name,
            device=env.device.name,
            failed=True,
            mem_high_water=env.mem_high_water,
            counts=env.event_counts(),
            timing=None,
            error=str(exc),
        )
    return PlanResult(
        strategy=strategy.name,
        device=env.device.name,
        failed=False,
        mem_high_water=report.mem_high_water,
        counts=report.counts,
        timing=report.timing,
    )
