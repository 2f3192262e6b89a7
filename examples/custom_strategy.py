#!/usr/bin/env python3
"""Extending the framework with a new execution strategy.

The paper's design claim (Section III-C): "Our system could easily be
extended to generate other execution strategies as well. This extension
would involve modifying only the Python-based transformations — the OpenCL
kernels for each primitive would not need to be modified."

This example adds a *chunked* strategy from the paper's future work ("we
plan to investigate the runtime performance of our execution strategies in
a streaming context"): it splits the element range into fixed-size chunks
and runs the fused kernel chunk by chunk, bounding device memory by the
chunk size at the cost of extra kernel launches.  It reuses the primitive
library and the fusion generator untouched.

Run:  python examples/custom_strategy.py
"""

import numpy as np

from repro.analysis.vortex import VELOCITY_MAGNITUDE
from repro.clsim import CLEnvironment, KernelCost
from repro.host import DerivedFieldEngine
from repro.strategies import ExecutionStrategy, FusionStrategy
from repro.strategies.fusion import plan_stages
from repro.strategies.plancache import KernelOp
from repro.workloads import SubGrid, make_fields


class ChunkedFusionStrategy(ExecutionStrategy):
    """Stream the fused kernel over element chunks.

    Only valid for pointwise networks (no gradient): a chunk is
    self-contained only when no work-item reads its neighbours.
    """

    name = "chunked-fusion"

    def __init__(self, chunk_elements: int = 4096):
        self.chunk_elements = chunk_elements
        self._fusion = FusionStrategy()

    def execute(self, network, arrays, env: CLEnvironment):
        bindings, n, dtype = self.prepare(network, arrays)
        stages, _ = plan_stages(network)
        if len(stages) != 1 or any(
                network.registry.get(node.filter).call_style.name
                == "GLOBAL" for node in stages[0].nodes):
            raise ValueError("chunked strategy supports pointwise "
                             "networks only")
        (fused,) = [op for op in self._fusion.build_plan(
                        network, bindings, n, dtype).ops
                    if isinstance(op, KernelOp)]
        kernel, cost = fused.kernel, fused.cost

        output_id = network.output_ids()[0]
        out = np.empty(n, dtype=dtype)
        itemsize = dtype.itemsize
        for start in range(0, n, self.chunk_elements):
            stop = min(start + self.chunk_elements, n)
            chunk_args = []
            for node_id in stages[0].reads:
                data = bindings[node_id].data
                chunk_args.append(env.upload(data[start:stop], node_id))
            out_buf = env.create_buffer((stop - start) * itemsize, "out")
            chunk_cost = KernelCost(
                global_bytes=cost.global_bytes * (stop - start) // n,
                flops=cost.flops * (stop - start) // n,
                register_words=cost.register_words,
                itemsize=itemsize, elements=stop - start)
            env.queue.enqueue_kernel(kernel, chunk_args, out_buf,
                                     chunk_cost)
            out[start:stop] = env.queue.enqueue_read_buffer(out_buf)
            for buf in chunk_args:
                buf.release()
            out_buf.release()
        return self._report(env, out, {})


grid = SubGrid(24, 24, 48)
fields = make_fields(grid, seed=3)
inputs = {k: fields[k] for k in ("u", "v", "w")}

print(f"{'strategy':<16} {'K-Exe':>6} {'Dev-W':>6} "
      f"{'peak device bytes':>18} {'modeled s':>10}")
for strategy in ("fusion", ChunkedFusionStrategy(chunk_elements=2048)):
    engine = DerivedFieldEngine(device="gpu", strategy=strategy)
    report = engine.execute(VELOCITY_MAGNITUDE, inputs)
    print(f"{report.strategy:<16} {report.counts.kernel_execs:>6} "
          f"{report.counts.dev_writes:>6} {report.mem_high_water:>18,} "
          f"{report.timing.total:>10.5f}")

# both agree with the direct computation
engine = DerivedFieldEngine(device="gpu",
                            strategy=ChunkedFusionStrategy(2048))
got = engine.derive(VELOCITY_MAGNITUDE, inputs)
want = np.sqrt(fields["u"] ** 2 + fields["v"] ** 2 + fields["w"] ** 2)
print(f"\nchunked result max error vs direct NumPy: "
      f"{np.abs(got - want).max():.2e}")
print("device memory is bounded by the chunk size — the streaming "
      "direction the paper names as future work.")
