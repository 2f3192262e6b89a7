"""The *staged* execution strategy (Section III-C2).

Like roundtrip, one kernel per primitive — but intermediate results never
leave the device: each distinct input is uploaded exactly once (just before
its first consumer), intermediates stay in device global memory between
kernel invocations with reference-counted eager release, and only the
final result is read back (Dev-R = 1).

Consequences measured by the paper:

* decompose becomes a device kernel ("staged used more kernel dispatches
  than roundtrip, because it implements the decomposition primitive using
  a kernel to move intermediate results on the OpenCL target device");
* each unique constant is materialized once by a fill kernel (the +1 in
  Q-Crit's 67 kernels);
* holding live intermediates in global memory makes staged the *most*
  memory-constrained strategy, even with reference-counted eager release.

:meth:`StagedStrategy.build_plan` walks the schedule once, generates
kernels, and *simulates* the reference counts so the plan's op tuple
carries each eager release right after the kernel that made it due; the
shared launcher runs those ops unchanged cold or warm.  Replaying them
reproduces the cold path's allocation order exactly, so the strategy's
signature memory high-water mark is identical warm or cold.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..clsim.perfmodel import KernelCost
from ..dataflow.network import Network
from ..dataflow.spec import CONST, SOURCE
from ..primitives.base import ResultKind
from .base import ExecutionStrategy
from .bindings import Binding
from .kernelgen import ARRAY, BY_VALUE, CONST_BUF, KernelCache, VECTOR
from .plancache import AllocOp, ExecutablePlan, KernelOp, ReadOp, \
    ReleaseOp, UploadOp

__all__ = ["StagedStrategy"]


class StagedStrategy(ExecutionStrategy):
    """Kernel-per-primitive with device-resident intermediates."""

    name = "staged"
    plan_cached = True

    def build_plan(self, network: Network,
                   bindings: Mapping[str, Binding],
                   n: int, dtype: np.dtype) -> ExecutablePlan:
        """Walk the schedule once: generate kernels, size buffers, and
        simulate the reference counts so every eager release lands on the
        same op it does in live execution."""
        cache = KernelCache(dtype)
        registry = network.registry
        refcounts = network.refcounts()
        output_id = network.output_ids()[0]
        slot_of: dict[str, int] = {}    # node id -> its buffer's slot
        ops: list = []

        def upload(source_id: str) -> None:
            """Upload a source just before its first consumer runs (exactly
            one Dev-W per distinct input).  Lazy staging keeps the device
            footprint to live values only — the property that lets staged
            execute networks whose fused form cannot fit (Section V-D)."""
            slot_of[source_id] = len(slot_of)
            ops.append(UploadOp(slot_of[source_id], source_id,
                                bindings[source_id].nbytes))

        # Materialize each constant once with a fill kernel.
        for node in network.schedule():
            if node.filter != CONST:
                continue
            slot_of[node.id] = len(slot_of)
            ops += [AllocOp(slot_of[node.id], node.id, dtype.itemsize),
                    KernelOp(cache.fill_kernel(), (), (slot_of[node.id],),
                             KernelCost(global_bytes=dtype.itemsize,
                                        flops=0, itemsize=dtype.itemsize),
                             by_value=(float(node.param("value")),))]

        # Execute filters in dependency order.
        for node in network.schedule():
            if node.filter in (SOURCE, CONST):
                continue
            primitive = registry.get(node.filter)
            for input_id in node.inputs:
                if network.spec.node(input_id).filter == SOURCE \
                        and input_id not in slot_of:
                    upload(input_id)

            arg_kinds = []
            for input_id in node.inputs:
                input_node = network.spec.node(input_id)
                if input_node.filter == CONST:
                    arg_kinds.append(CONST_BUF)
                elif network.kind_of(input_id) is ResultKind.VECTOR:
                    arg_kinds.append(VECTOR)
                else:
                    arg_kinds.append(ARRAY)
            # decompose's component travels by value, not as a buffer.
            by_value = ((int(node.param("component")),)
                        if node.filter == "decompose" else ())
            if by_value:
                arg_kinds.append(BY_VALUE)

            input_nbytes = [
                self._node_nbytes(network, input_id, bindings, n, dtype)
                for input_id in node.inputs]
            out_nbytes = self._node_nbytes(network, node.id, bindings,
                                           n, dtype)
            kernel = cache.primitive_kernel(
                primitive, arg_kinds[:primitive.arity],
                component=node.param("component")
                if node.filter == "decompose" else None)
            cost = KernelCost(
                global_bytes=out_nbytes + sum(input_nbytes),
                flops=primitive.flops_per_element * n,
                register_words=4,
                itemsize=dtype.itemsize,
                elements=n)

            slot_of[node.id] = len(slot_of)
            ops += [AllocOp(slot_of[node.id], node.id, out_nbytes),
                    KernelOp(kernel,
                             tuple(slot_of[i] for i in node.inputs),
                             (slot_of[node.id],), cost, by_value)]
            releases = []
            for input_id in node.inputs:
                refcounts[input_id] -= 1
                if refcounts[input_id] == 0:
                    releases.append(slot_of[input_id])
            if releases:
                ops.append(ReleaseOp(tuple(releases)))

        # Read back only the final result; the launcher releases whatever
        # is still live once the schedule ends.
        if output_id not in slot_of:
            upload(output_id)                   # degenerate `a = u`
        ops.append(ReadOp(
            slot_of[output_id], output_id,
            reshape=(network.kind_of(output_id) is ResultKind.VECTOR
                     and not network.uniform(output_id)
                     and network.spec.node(output_id).filter != SOURCE)))

        return ExecutablePlan(
            ops=tuple(ops),
            strategy_name=self.name,
            source_order=tuple(network.live_sources()),
            n=n, dtype=dtype,
            output_id=output_id,
            output_kind=network.kind_of(output_id),
            output_uniform=network.uniform(output_id),
            generated_sources=cache.sources(),
        )
