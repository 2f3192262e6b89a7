"""The paper's evaluation sweeps (Section IV-D / V).

One *case* is (expression, sub-grid, device, executor) where executor is a
strategy or the reference kernel — 3 x 12 x 2 x 4 = 288 cases, of which
the paper plots the 144 per-device runtime points of Fig 5 and the memory
points of Fig 6.  Full-paper-scale cases run through the dry-run planner:
exact event counts and memory, modeled durations.

Records are plain dataclasses so benchmarks, examples, and tests can share
one sweep implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from ..dataflow.network import Network
from ..host.engine import DerivedFieldEngine
from ..strategies import ReferenceKernel, get_strategy
from ..strategies.planner import PlanResult, plan
from ..workloads.datasets import SubGrid, TABLE1_SUBGRIDS, make_shapes

__all__ = ["CaseResult", "run_case", "run_sweep", "EXECUTORS", "DEVICES",
           "gpu_success_rate"]

EXECUTORS = ("roundtrip", "staged", "fusion", "reference")
DEVICES = ("cpu", "gpu")


@dataclass(frozen=True)
class CaseResult:
    """One point of Fig 5 / Fig 6."""

    expression: str
    grid: SubGrid
    device: str
    executor: str
    failed: bool
    runtime: Optional[float]       # modeled seconds (Fig 5 y-axis)
    mem_high_water: int            # bytes (Fig 6 y-axis)
    dev_writes: int
    dev_reads: int
    kernel_execs: int

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells


def _network(expression: str) -> Network:
    """The compiled network of one named paper expression."""
    return DerivedFieldEngine().compile(EXPRESSIONS[expression]).network


def _plan_case(expression: str, grid: SubGrid, device: str,
               executor: str, network: Optional[Network] = None,
               ) -> PlanResult:
    shapes = {name: spec for name, spec in make_shapes(grid).items()
              if name in EXPRESSION_INPUTS[expression]}
    if executor == "reference":
        return plan(ReferenceKernel(expression), shapes, device)
    return plan(get_strategy(executor), shapes, device,
                network=(_network(expression) if network is None
                         else network))


def run_case(expression: str, grid: SubGrid, device: str,
             executor: str, network: Optional[Network] = None,
             ) -> CaseResult:
    """Plan one evaluation case at full scale.  ``network`` is the
    expression's compiled network when the caller already holds it (a
    sweep compiles each expression once); otherwise it is compiled
    here."""
    result = _plan_case(expression, grid, device, executor, network)
    return CaseResult(
        expression=expression,
        grid=grid,
        device=device,
        executor=executor,
        failed=result.failed,
        runtime=result.runtime,
        mem_high_water=result.mem_high_water,
        dev_writes=result.counts.dev_writes,
        dev_reads=result.counts.dev_reads,
        kernel_execs=result.counts.kernel_execs,
    )


def run_sweep(expressions: Iterable[str] = tuple(EXPRESSIONS),
              grids: Iterable[SubGrid] = TABLE1_SUBGRIDS,
              devices: Iterable[str] = DEVICES,
              executors: Iterable[str] = EXECUTORS) -> list[CaseResult]:
    """The full evaluation sweep (planned, full paper scale); each
    expression is compiled once."""
    networks = {e: _network(e) for e in expressions}
    return [run_case(e, g, d, x, networks[e])
            for e in networks for d in devices
            for x in executors for g in grids]


def gpu_success_rate(results: list[CaseResult]) -> tuple[int, int]:
    """(completed, attempted) GPU cases — the paper reports 106 of 144."""
    gpu = [r for r in results if r.device == "gpu"]
    return sum(1 for r in gpu if not r.failed), len(gpu)
