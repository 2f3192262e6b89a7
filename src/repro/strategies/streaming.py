"""The *streaming* execution strategy — the paper's first future-work item
(Section VI: "we plan to investigate the runtime performance of our
execution strategies in a streaming context").

Streams the fused kernel over slabs of the problem: each slab (plus a halo
wide enough for the gradient stencil) is uploaded, executed, and read back,
so device global memory is bounded by the slab working set rather than the
problem size.  This is what lets the GPU process Table I grids that plain
fusion cannot fit (see ``benchmarks/bench_ext_streaming.py``).

Chunked execution is *double-buffered*: the modeled device has separate
upload/compute/readback engines (the Tesla M2050's dual DMA layout), so
the host→device transfer of chunk k+1 overlaps the compute of chunk k,
with at most ``pipeline_depth`` chunks resident at once.  Each chunk's
arrays are still computed serially on the host (the capture-twin runs),
then the per-chunk event streams are re-timed onto the overlapped
timeline (:func:`~repro.clsim.pipeline.overlap_events`) and recorded into
the caller's environment: per-category totals (Fig 5) are unchanged,
while the report's ``timing.makespan`` drops below ``total + build`` by
exactly the hidden transfer time — and the overlap is visible as
concurrent category lanes in the Chrome trace.  The modeled memory peak
grows accordingly: up to ``pipeline_depth`` chunk working sets in flight.

Composition, not duplication: each slab runs through the unmodified
:class:`~repro.strategies.fusion.FusionStrategy` against a capture twin
of the shared environment, so the dynamic kernel generator, primitive
library, event accounting, and memory tracking are exercised as-is.
"""

from __future__ import annotations

from typing import Mapping

from ..clsim.environment import CLEnvironment
from ..clsim.pipeline import overlap_events
from ..dataflow.network import Network
from ..primitives.base import ResultKind, VECTOR_WIDTH
from ..errors import StrategyError
from .base import ExecutionReport, ExecutionStrategy
from .bindings import BindingInput
from .chunking import (assemble, chunk_bindings, discover_mesh, halo_width,
                       plan_chunks)
from .fusion import FusionStrategy

__all__ = ["StreamingFusionStrategy"]


class StreamingFusionStrategy(ExecutionStrategy):
    """Fused execution over i-axis slabs with stencil halos, pipelined
    ``pipeline_depth`` chunks deep (2 = classic double buffering)."""

    name = "streaming"

    def __init__(self, n_chunks: int = 4, pipeline_depth: int = 2):
        if n_chunks < 1:
            raise StrategyError("n_chunks must be >= 1")
        if pipeline_depth < 1:
            raise StrategyError("pipeline_depth must be >= 1")
        self.n_chunks = n_chunks
        self.pipeline_depth = pipeline_depth
        self._inner = FusionStrategy()

    def execute(self, network: Network,
                arrays: Mapping[str, BindingInput],
                env: CLEnvironment) -> ExecutionReport:
        bindings, n, dtype = self.prepare(network, arrays)
        if env.dry_run:
            raise StrategyError(
                "streaming works on live arrays; plan its memory bound by "
                "planning a single chunk with FusionStrategy instead")
        host_arrays = {name: binding.data
                       for name, binding in bindings.items()}
        layout = discover_mesh(host_arrays, n)
        chunks = plan_chunks(layout, self.n_chunks, halo_width(network))

        output_id = network.output_ids()[0]
        components = (VECTOR_WIDTH
                      if network.kind_of(output_id) is ResultKind.VECTOR
                      else 1)
        pieces = []
        sources: dict[str, str] = {}
        chunk_streams = []
        chunk_peaks = []
        allocator = env.context.allocator
        for chunk in chunks:
            sub = chunk_bindings(host_arrays, layout, chunk)
            # Capture twin: same context/allocator/pool, private silent
            # event log — the chunk's solo stream, ready for re-timing.
            twin = env.capture()
            allocator.reset_peak()
            report = self._inner.execute(network, sub, twin)
            sources.update(report.generated_sources)
            pieces.append((chunk, report.output))
            chunk_streams.append(twin.queue.log.events)
            chunk_peaks.append(report.mem_high_water)
        for event in overlap_events(chunk_streams,
                                    depth=self.pipeline_depth):
            env.queue.log.record(event)
        # Up to pipeline_depth chunk working sets are device-resident at
        # once on the overlapped timeline — the memory cost of hiding
        # the transfers (Fig 6 accounting stays honest about it).
        window = self.pipeline_depth
        allocator.reset_peak()
        allocator.note_external_peak(max(
            (sum(chunk_peaks[i:i + window])
             for i in range(len(chunk_peaks))), default=0))
        output = assemble(pieces, layout, components)
        return self._report(env, output, sources)
