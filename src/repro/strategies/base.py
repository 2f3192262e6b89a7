"""Execution-strategy interface and shared machinery.

Section III-C: a strategy controls *"data movement and how the OpenCL
kernels for each of the derived field primitives are composed to compute
the final result"*.  Strategies share the primitive library and the
dataflow network; they differ only in transfers, kernel granularity, and
intermediate placement — which is all a plan's op schedule encodes
(:mod:`repro.strategies.plancache`).  Adding a strategy means subclassing
:class:`ExecutionStrategy`, usually with just a ``build_plan`` that emits
that schedule — no primitive changes, exactly the paper's extension
story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from ..clsim.buffer import AllocationStats
from ..clsim.environment import CLEnvironment, TimingSummary
from ..clsim.events import EventCounts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .plancache import CacheInfo
from ..dataflow.network import Network
from ..errors import StrategyError
from ..obs.log import get_logger
from ..primitives.base import ResultKind, VECTOR_WIDTH
from .bindings import Binding, BindingInput, normalize, \
    problem_size, require_data

__all__ = ["CodegenInfo", "DeviceReport", "ExecutionReport",
           "ExecutionStrategy", "ctype_for"]


def ctype_for(dtype: np.dtype) -> str:
    """OpenCL element type for a NumPy float dtype."""
    if np.dtype(dtype) == np.float64:
        return "double"
    if np.dtype(dtype) == np.float32:
        return "float"
    raise StrategyError(f"unsupported field dtype {dtype}")


@dataclass(frozen=True)
class CodegenInfo:
    """How the compiled executor backend handled one execution.

    ``disposition`` is one of ``memory-hit`` (plan served from the
    in-memory cache), ``disk-hit`` (rebuilt from the persistent plan
    cache), ``cold-codegen`` (generated and compiled this run), or
    ``interpreter-fallback`` (codegen failed; the interpreter plan ran
    and was cached).  ``compiled`` says whether the plan that actually
    ran was a compiled sweep.
    """

    backend: str
    disposition: str
    compiled: bool


@dataclass(frozen=True)
class DeviceReport:
    """Per-device accounting of one multi-device execution."""

    device: str
    counts: EventCounts
    timing: TimingSummary
    mem_high_water: int


@dataclass
class ExecutionReport:
    """Everything one execution produced.

    ``output`` is ``None`` only on a report rebuilt by
    :meth:`from_json` (dry plans yield a
    :class:`~repro.strategies.planner.PlanResult`, not a report).  The
    ``counts``/``timing``/``mem_high_water`` triple feeds Table II, Fig 5,
    and Fig 6 respectively; ``generated_sources`` maps kernel names to the
    OpenCL C the strategy emitted, for inspection and validation — for a
    fusion plan a read-only mapping whose sources are built and validated
    on first read (:class:`~repro.clsim.kernel.KernelSources`).

    ``cache`` and ``alloc`` are filled in by the warm-execution path
    (:class:`~repro.host.engine.DerivedFieldEngine` with its plan cache):
    plan-cache hit/miss/evict counters and allocator/pool statistics.
    Direct strategy executions leave them ``None``.

    ``device_reports`` carries the per-device breakdown of a multi-device
    execution (empty for single-device strategies).  It lives on the
    report — not on the strategy — so one strategy instance can safely be
    reused across runs and threads.
    """

    strategy: str
    output: Optional[np.ndarray]
    counts: EventCounts
    timing: TimingSummary
    mem_high_water: int
    generated_sources: Mapping[str, str] = field(default_factory=dict)
    cache: "Optional[CacheInfo]" = None
    alloc: Optional[AllocationStats] = None
    device_reports: tuple[DeviceReport, ...] = ()
    codegen: Optional[CodegenInfo] = None
    # Correlation id of the trace this execution ran under (None when
    # the engine ran with the null tracer).  Bundles, trace files, and
    # service snapshots cross-reference reports by this id.
    trace_id: Optional[str] = None

    # -- stable JSON round-trip ----------------------------------------------

    def to_json(self) -> dict:
        """A stable, ``json.dumps``-able view of the report.

        Trace files and bench artifacts embed this instead of ad-hoc
        ``__dict__`` dumps.  The output array itself is *not* serialized
        (only its shape/dtype); everything else — counts, timing, memory,
        sources, cache/alloc counters, per-device reports — round-trips
        through :meth:`from_json` unchanged.
        """
        from dataclasses import asdict
        return {
            "strategy": self.strategy,
            "output": (None if self.output is None else
                       {"shape": list(self.output.shape),
                        "dtype": str(self.output.dtype)}),
            "counts": asdict(self.counts),
            "timing": asdict(self.timing),
            "mem_high_water": self.mem_high_water,
            "generated_sources": dict(self.generated_sources),
            "cache": None if self.cache is None else asdict(self.cache),
            "alloc": None if self.alloc is None else asdict(self.alloc),
            "device_reports": [
                {"device": d.device, "counts": asdict(d.counts),
                 "timing": asdict(d.timing),
                 "mem_high_water": d.mem_high_water}
                for d in self.device_reports],
            "codegen": (None if self.codegen is None
                        else asdict(self.codegen)),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExecutionReport":
        """Rebuild a report from :meth:`to_json` output.  ``output`` comes
        back ``None`` — arrays are never serialized."""
        from ..clsim.buffer import AllocationStats as Alloc
        from .plancache import CacheInfo

        def counts(d: dict) -> EventCounts:
            return EventCounts(**d)

        def timing(d: dict) -> TimingSummary:
            return TimingSummary(**d)

        return cls(
            strategy=data["strategy"],
            output=None,
            counts=counts(data["counts"]),
            timing=timing(data["timing"]),
            mem_high_water=data["mem_high_water"],
            generated_sources=dict(data.get("generated_sources", {})),
            cache=(None if data.get("cache") is None
                   else CacheInfo(**data["cache"])),
            alloc=(None if data.get("alloc") is None
                   else Alloc(**data["alloc"])),
            device_reports=tuple(
                DeviceReport(device=d["device"], counts=counts(d["counts"]),
                             timing=timing(d["timing"]),
                             mem_high_water=d["mem_high_water"])
                for d in data.get("device_reports", ())),
            codegen=(None if data.get("codegen") is None
                     else CodegenInfo(**data["codegen"])),
            trace_id=data.get("trace_id"),
        )


class ExecutionStrategy:
    """Base class: orchestration helpers shared by all strategies."""

    name: str = "abstract"
    # Whether an engine caches this strategy's plans on its pooled warm
    # environment.  Chunked strategies do not: the pool would round
    # their slabs' reservations up to size classes and move their peaks.
    plan_cached: bool = False

    def execute(self, network: Network,
                arrays: Mapping[str, BindingInput],
                env: CLEnvironment) -> ExecutionReport:
        """Run ``network`` over the bound host arrays on ``env``'s device.

        Strategies with ``build_plan`` (which emits the op schedule)
        inherit this: prepare, build, then
        :meth:`~repro.strategies.plancache.ExecutablePlan.execute`.  A
        custom strategy may override it instead.  Shape-only bindings raise
        :class:`~repro.errors.StrategyError`: shapes are walked by
        :func:`repro.strategies.plan`, not executed.
        """
        bindings, n, dtype = self.prepare(network, arrays)
        require_data(bindings)
        plan = self.build_plan(network, bindings, n, dtype)
        log = get_logger()
        if log.debug_enabled:
            log.debug("strategy.execute", tracer=env.tracer,
                      strategy=self.name, device=env.device.name,
                      n=n, dtype=str(dtype))
        return plan.execute(bindings, env)

    def plan_token(self) -> tuple:
        """This strategy's contribution to the executable-plan cache key.

        Must cover every option that changes the generated plan; strategies
        with knobs (e.g. streaming's chunk count) extend the tuple.
        """
        return (self.name,)

    # -- shared helpers ---------------------------------------------------------

    def prepare(self, network: Network,
                arrays: Mapping[str, BindingInput],
                ) -> tuple[dict[str, Binding], int, np.dtype]:
        """Normalize bindings and compute problem sizing.

        Public: hosts (the engine's plan path, the service scheduler) call
        this to size and key an execution without running it.  The method
        is pure — safe to call concurrently on one strategy instance.
        """
        bindings = normalize(arrays, network.live_sources())
        n, dtype = problem_size(bindings)
        return bindings, n, np.dtype(dtype)

    def _node_components(self, network: Network, node_id: str) -> int:
        return (VECTOR_WIDTH
                if network.kind_of(node_id) is ResultKind.VECTOR else 1)

    def _node_nbytes(self, network: Network, node_id: str,
                     bindings: Mapping[str, Binding],
                     n: int, dtype: np.dtype) -> int:
        """Device-buffer size for a node's value.  Uniform (constant-
        valued) nodes occupy one element and broadcast."""
        node = network.spec.node(node_id)
        if node.filter == "source":
            return bindings[node_id].nbytes
        if node.filter == "const" or network.uniform(node_id):
            return dtype.itemsize * self._node_components(network, node_id)
        return n * dtype.itemsize * self._node_components(network, node_id)

    def _report(self, env: CLEnvironment, output: Optional[np.ndarray],
                sources: dict[str, str]) -> ExecutionReport:
        return ExecutionReport(
            strategy=self.name,
            output=output,
            counts=env.event_counts(),
            timing=env.timing(),
            mem_high_water=env.mem_high_water,
            generated_sources=sources,
        )
