"""Execution strategies (Section III-C): roundtrip, staged, fusion, plus
the hand-written reference kernels and the dry-run planner.

All strategies consume the same dataflow network and primitive library;
they differ only in data movement and kernel composition.  New strategies
subclass :class:`~repro.strategies.base.ExecutionStrategy` without touching
any primitive — the paper's extensibility claim.
"""

from .base import CodegenInfo, ExecutionReport, ExecutionStrategy, \
    ctype_for
from .bindings import ArraySpec, Binding, normalize, problem_size
from .chunking import Chunk, MeshLayout, discover_mesh, plan_chunks
from .fusion import FusedStage, FusionStrategy, plan_stages
from .kernelgen import KernelCache
from .multidevice import DeviceReport, MultiDeviceStrategy
from .plancache import (CacheInfo, ExecutablePlan, PlanCache, PlanKey,
                        network_signature, plan_key)
from .planner import PlanResult, plan
from .reference import ReferenceKernel
from .roundtrip import RoundtripStrategy
from .staged import StagedStrategy
from .streaming import StreamingFusionStrategy

STRATEGIES = {
    "roundtrip": RoundtripStrategy,
    "staged": StagedStrategy,
    "fusion": FusionStrategy,
    # Extensions implementing the paper's future-work strategies:
    "streaming": StreamingFusionStrategy,
    "multi-device": MultiDeviceStrategy,
}


def get_strategy(name: str) -> ExecutionStrategy:
    """Instantiate a strategy by name ('roundtrip' | 'staged' | 'fusion')."""
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; available: "
            f"{sorted(STRATEGIES)}") from None


__all__ = [
    "CodegenInfo", "ExecutionReport", "ExecutionStrategy", "ctype_for",
    "ArraySpec", "Binding", "normalize", "problem_size",
    "Chunk", "MeshLayout", "discover_mesh", "plan_chunks",
    "FusedStage", "FusionStrategy", "plan_stages",
    "KernelCache", "DeviceReport", "MultiDeviceStrategy",
    "StreamingFusionStrategy", "CacheInfo", "ExecutablePlan", "PlanCache",
    "PlanKey", "network_signature", "plan_key",
    "PlanResult", "plan", "ReferenceKernel",
    "RoundtripStrategy", "StagedStrategy",
    "STRATEGIES", "get_strategy",
]
