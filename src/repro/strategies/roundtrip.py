"""The *roundtrip* execution strategy (Section III-C1).

One OpenCL kernel per derived-field primitive, and **every** intermediate
result transfers back to host memory after its kernel completes.  Each
kernel argument occurrence is uploaded fresh (``u*u`` uploads ``u`` twice),
which is what yields the paper's Table II write counts (VelMag 11,
VortMag 32, Q-Crit 123).  Decomposition happens on the host — the gradient
result is already in host memory — so staged ends up with *more* kernel
launches than roundtrip for the gradient-based expressions.

The payoff for all this traffic: device global memory only ever holds one
kernel's working set, making roundtrip the least memory-constrained
strategy (it can process data sets the faster strategies cannot fit).

:meth:`RoundtripStrategy.build_plan` resolves the schedule to a plan's op
tuple — per kernel node: one upload per argument occurrence, alloc,
kernel, read back, release; per ``const``/``decompose`` node: a host op —
which the shared launcher runs cold and, through the engine's plan
cache, warm against new arrays.
"""

from __future__ import annotations

import functools
import itertools
from typing import Mapping

import numpy as np

from ..clsim.perfmodel import KernelCost
from ..dataflow.network import Network
from ..dataflow.spec import CONST, SOURCE
from ..primitives.base import ResultKind
from .base import ExecutionStrategy
from .bindings import Binding
from .kernelgen import ARRAY, CONST_BUF, KernelCache, VECTOR
from .plancache import AllocOp, ExecutablePlan, HostOp, KernelOp, ReadOp, \
    ReleaseOp, UploadOp

__all__ = ["RoundtripStrategy"]


def _host_component(vector: np.ndarray, component: int) -> np.ndarray:
    """Host-side decompose: the gradient is already in host memory."""
    return np.ascontiguousarray(vector[:, component])


class RoundtripStrategy(ExecutionStrategy):
    """Kernel-per-primitive with host round trips for every intermediate."""

    name = "roundtrip"
    plan_cached = True

    def build_plan(self, network: Network,
                   bindings: Mapping[str, Binding],
                   n: int, dtype: np.dtype) -> ExecutablePlan:
        """Resolve the schedule to value-independent ops: generated
        kernels, argument kinds, buffer sizes, and modeled costs."""
        cache = KernelCache(dtype)
        registry = network.registry
        output_id = network.output_ids()[0]
        slots = itertools.count()
        ops: list = []

        for node in network.schedule():
            if node.filter == SOURCE:
                continue        # host value: the binding itself
            if node.filter == CONST:
                ops.append(HostOp(node.id, functools.partial(
                    np.full, 1, float(node.param("value")), dtype=dtype)))
                continue
            if node.filter == "decompose":
                ops.append(HostOp(node.id, functools.partial(
                    _host_component,
                    component=int(node.param("component"))),
                    inputs=node.inputs))
                continue

            primitive = registry.get(node.filter)
            arg_kinds = []
            for input_id in node.inputs:
                input_node = network.spec.node(input_id)
                if input_node.filter == CONST:
                    arg_kinds.append(CONST_BUF)
                elif network.kind_of(input_id) is ResultKind.VECTOR:
                    arg_kinds.append(VECTOR)
                else:
                    arg_kinds.append(ARRAY)

            input_nbytes = tuple(
                self._node_nbytes(network, input_id, bindings, n, dtype)
                for input_id in node.inputs)
            out_nbytes = self._node_nbytes(network, node.id, bindings,
                                           n, dtype)
            kernel = cache.primitive_kernel(primitive, arg_kinds)
            cost = KernelCost(
                global_bytes=sum(input_nbytes) + out_nbytes,
                flops=primitive.flops_per_element * n,
                register_words=4,
                itemsize=dtype.itemsize,
                elements=n)
            # One fresh buffer per argument occurrence, then the node's
            # full round trip: launch, read back, release everything.
            args = tuple(next(slots) for _ in node.inputs)
            ops.extend(UploadOp(slot, input_id, nbytes) for slot, input_id,
                       nbytes in zip(args, node.inputs, input_nbytes))
            out = next(slots)
            ops += [AllocOp(out, node.id, out_nbytes),
                    KernelOp(kernel, args, (out,), cost),
                    ReadOp(out, node.id, reshape=network.kind_of(node.id)
                           is ResultKind.VECTOR),
                    ReleaseOp((*args, out))]

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
