"""The *streaming* execution strategy — the paper's first future-work item
(Section VI: "we plan to investigate the runtime performance of our
execution strategies in a streaming context").

Streams the fused kernel over slabs of the problem: each slab (plus a halo
wide enough for the gradient stencil) is uploaded, executed, and read back,
so device global memory is bounded by the slab working set rather than the
problem size.  This is what lets the GPU process Table I grids that plain
fusion cannot fit (see ``benchmarks/bench_ext_strategies.py``).

The plan is :func:`~repro.strategies.chunking.chunk_plan` over
:class:`~repro.strategies.fusion.FusionStrategy`'s schedule, launched,
folded and planned like any other.  The fold is *double-buffered*: the
upload of slab k+1 overlaps the compute of slab k on the modeled
device's separate engines (:class:`~repro.clsim.pipeline.Timeline`),
``pipeline_depth`` slabs resident at once.  Per-category totals (Fig 5)
equal serial chunked execution's, ``timing.makespan`` drops below
``total + build`` by the hidden transfer time, and the modeled memory
peak pays for it: up to ``pipeline_depth`` slab working sets in flight.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..dataflow.network import Network
from ..errors import StrategyError
from .base import ExecutionStrategy
from .bindings import Binding
from .chunking import chunk_plan
from .fusion import FusionStrategy
from .plancache import ExecutablePlan

__all__ = ["StreamingFusionStrategy"]


class StreamingFusionStrategy(ExecutionStrategy):
    """Fused execution over i-axis slabs with stencil halos, pipelined
    ``pipeline_depth`` slabs deep (2 = classic double buffering)."""

    name = "streaming"

    def __init__(self, n_chunks: int = 4, pipeline_depth: int = 2):
        if n_chunks < 1:
            raise StrategyError("n_chunks must be >= 1")
        if pipeline_depth < 1:
            raise StrategyError("pipeline_depth must be >= 1")
        self.n_chunks = n_chunks
        self.pipeline_depth = pipeline_depth
        self._inner = FusionStrategy()

    def build_plan(self, network: Network,
                   bindings: Mapping[str, Binding],
                   n: int, dtype: np.dtype) -> ExecutablePlan:
        return chunk_plan(self._inner, network, bindings, n, dtype,
                          self.n_chunks, name=self.name,
                          depth=self.pipeline_depth)
