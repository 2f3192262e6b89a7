"""Dry-run planning: full-paper-scale experiments without the data.

A plan is the strategy's op schedule walked for its modeled effects
only (:meth:`~repro.strategies.plancache.ExecutablePlan.model`):
:func:`plan` builds the schedule from shape-only bindings and runs the
walk on a fresh environment's allocator and event log.  Buffer sizes
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
from ..errors import CLOutOfMemoryError, StrategyError
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
    Strategies without an op schedule (streaming, multi-device) cannot
    be planned.
    """
    if isinstance(strategy, ReferenceKernel):
        bindings, n, dtype = strategy.prepare(shapes)
        schedule = strategy.build_plan(bindings, n, dtype)
    else:
        if network is None:
            raise ValueError("network required for strategy plans")
        if not hasattr(strategy, "build_plan"):
            raise StrategyError(
                f"{strategy.name} works on live arrays and has no op "
                "schedule to plan; plan one chunk or slab with its "
                "inner strategy instead")
        bindings, n, dtype = strategy.prepare(network, shapes)
        schedule = strategy.build_plan(network, bindings, n, dtype)
    env = CLEnvironment(device)
    error = None
    try:
        schedule.model(env.context.allocator, env.queue.log)
    except CLOutOfMemoryError as exc:
        error = str(exc)
    return PlanResult(
        strategy=strategy.name,
        device=env.device.name,
        failed=error is not None,
        mem_high_water=env.mem_high_water,
        counts=env.event_counts(),
        timing=None if error is not None else env.timing(),
        error=error,
    )
