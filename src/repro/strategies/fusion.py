"""The *fusion* execution strategy (Section III-C3): a dynamic kernel
generator that composes the whole dataflow network into OpenCL kernels
whose intermediates live in registers.

The generator implements every feature the paper lists:

* per-element function calls for simple primitives (``dfg_add(...)``);
* direct access to device global memory for operations with complex memory
  requirements — ``grad3d`` receives global pointers, since a work-item
  needs its neighbours' values;
* source-code level insertion of constants (literals, no buffers — the
  reason fusion needs no constant uploads or fill kernels);
* multi-valued operations held in built-in OpenCL vector types
  (``double4`` locals);
* source-level array decomposition (``val.s0``, ``val.s1``, ...).

For the paper's expressions every gradient reads a *source* field, so the
entire network fuses into exactly one kernel (K-Exe = 1).  As an extension,
the generator also handles gradients of computed values by splitting the
network into fusion *stages* at global-materialization boundaries — a
gradient of ``u*u`` yields two fused kernels with one materialized
intermediate, which OpenCL's lack of device-wide barriers makes
unavoidable.

Fusion is where plan caching pays most.  :meth:`FusionStrategy.build_plan`
plans the stages and fixes each stage's kernel name and
:class:`~repro.clsim.perfmodel.KernelCost` (bytes, flops, register
liveness): everything the schedule, the modeled walk and the compiled
backend read.  Generating the OpenCL C, validating it and
``exec``-compiling the NumPy executors is left to the plan's
:class:`~repro.clsim.kernel.KernelSources`, which does it once, on first
read — an interpreter launch, a report's sources, the disk cache — so the
compiled backend, which runs only its generated sweep, never pays for it.
The plan's op tuple is just uploads + one alloc/kernel per stage + the
single read-back, run by the shared launcher.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..clsim.compiler import KernelSourceBuilder, validate_source_cached
from ..clsim.kernel import Kernel, KernelSources
from ..clsim.perfmodel import KernelCost
from ..dataflow.network import Network
from ..dataflow.spec import CONST, SOURCE, NodeSpec
from ..errors import StrategyError
from ..primitives.base import CallStyle, ResultKind, VECTOR_WIDTH
from .base import ExecutionStrategy, ctype_for
from .bindings import Binding
from .plancache import AllocOp, ExecutablePlan, KernelOp, ReadOp, \
    ReleaseOp, UploadOp

__all__ = ["FusionStrategy", "FusedStage", "plan_stages"]

_RESERVED = {"gid", "out", "np"}


def _param_name(node_id: str, is_source: bool) -> str:
    if is_source:
        return node_id if node_id not in _RESERVED else f"{node_id}_in"
    return f"m_{node_id}"


def _binding_ctype(binding: Binding) -> str:
    kind = binding.spec.dtype.kind
    if kind == "f":
        return ctype_for(binding.spec.dtype)
    if kind == "i":
        return "int" if binding.spec.dtype.itemsize <= 4 else "long"
    raise StrategyError(
        f"cannot map source {binding.name!r} dtype {binding.spec.dtype} "
        "to an OpenCL type")


@dataclass
class FusedStage:
    """One fused kernel: the nodes it computes, what it reads from global
    memory, and what it materializes back to global memory."""

    index: int
    nodes: list[NodeSpec] = field(default_factory=list)
    reads: list[str] = field(default_factory=list)       # node ids
    writes: list[str] = field(default_factory=list)      # node ids


def plan_stages(network: Network) -> tuple[list[FusedStage], set[str]]:
    """Partition the network into fusion stages.

    A GLOBAL-style node (gradient) must launch after any computed input has
    been materialized, so it starts a later stage than the stage producing
    that input.  Returns the stages and the set of node ids that need
    global materialization (cross-stage values plus the network output).
    """
    spec = network.spec
    stage_of: dict[str, int] = {}
    schedule = network.schedule()
    n_stages = 1
    for node in schedule:
        if node.filter in (SOURCE, CONST):
            continue
        primitive = network.registry.get(node.filter)
        stage = 0
        for input_id in node.inputs:
            input_node = spec.node(input_id)
            if input_node.filter in (SOURCE, CONST):
                if (primitive.call_style is CallStyle.GLOBAL
                        and input_node.filter == CONST):
                    raise StrategyError(
                        f"{node.filter} input {input_id!r} is a constant; "
                        "global-access primitives need array inputs")
                continue
            if primitive.call_style is CallStyle.GLOBAL:
                stage = max(stage, stage_of[input_id] + 1)
            else:
                stage = max(stage, stage_of[input_id])
        stage_of[node.id] = stage
        n_stages = max(n_stages, stage + 1)

    output_id = network.output_ids()[0]
    materialize: set[str] = set()
    if spec.node(output_id).filter not in (SOURCE,):
        materialize.add(output_id)
    for node in schedule:
        if node.filter in (SOURCE, CONST):
            continue
        primitive = network.registry.get(node.filter)
        for input_id in node.inputs:
            input_node = spec.node(input_id)
            if input_node.filter in (SOURCE, CONST):
                continue
            if (primitive.call_style is CallStyle.GLOBAL
                    or stage_of[input_id] < stage_of[node.id]):
                materialize.add(input_id)

    stages = [FusedStage(i) for i in range(n_stages)]
    for node in schedule:
        if node.filter in (SOURCE, CONST):
            continue
        stages[stage_of[node.id]].nodes.append(node)

    # Per-stage global reads: sources used, plus materialized values from
    # earlier stages.
    for stage in stages:
        in_stage = {n.id for n in stage.nodes}
        seen: list[str] = []
        for node in stage.nodes:
            for input_id in node.inputs:
                input_node = spec.node(input_id)
                needs_global = (
                    input_node.filter == SOURCE
                    or (input_node.filter != CONST
                        and input_id not in in_stage))
                if needs_global and input_id not in seen:
                    seen.append(input_id)
        stage.reads = seen
        stage.writes = [n.id for n in stage.nodes if n.id in materialize]
    return stages, materialize


class FusionStrategy(ExecutionStrategy):
    """Single (or minimal) kernel execution with register intermediates."""

    name = "fusion"
    plan_cached = True

    def build_plan(self, network: Network,
                   bindings: Mapping[str, Binding],
                   n: int, dtype: np.dtype) -> ExecutablePlan:
        """Plan stages and emit the schedule: each stage's kernel name and
        :class:`KernelCost` now; its OpenCL C (validated) and NumPy
        executor on demand, built by the plan's
        :class:`~repro.clsim.kernel.KernelSources` the first time a launch,
        a report or the disk cache reads them."""
        stages, _materialize = plan_stages(network)
        stages = [stage for stage in stages if stage.nodes]
        output_id = network.output_ids()[0]
        sources = tuple(network.live_sources())
        spec = network.spec
        ctypes = {node_id: _binding_ctype(bindings[node_id])
                  for stage in stages for node_id in stage.reads
                  if spec.node(node_id).filter == SOURCE}

        def build() -> dict:
            return {_kernel_name(stage): self._generate(
                        network, stage, ctypes, n, dtype)
                    for stage in stages}

        kernels = KernelSources([_kernel_name(s) for s in stages], build)

        # Last stage that reads each materialized value, for eager release.
        last_read: dict[str, int] = {}
        for stage in stages:
            for node_id in stage.reads:
                last_read[node_id] = stage.index

        # Upload each input exactly once (Dev-W = number of sources).
        slot_of = {source_id: slot for slot, source_id in enumerate(sources)}
        ops: list = [UploadOp(slot, source_id, bindings[source_id].nbytes)
                     for source_id, slot in slot_of.items()]
        for stage in stages:
            for node_id in stage.writes:
                slot_of[node_id] = len(slot_of)
                ops.append(AllocOp(slot_of[node_id], node_id,
                                   self._node_nbytes(network, node_id,
                                                     bindings, n, dtype)))
            kernel = Kernel(_kernel_name(stage),
                            arg_names=tuple(_read_params(network, stage)),
                            on_demand=kernels)
            ops.append(KernelOp(kernel,
                                tuple(slot_of[i] for i in stage.reads),
                                tuple(slot_of[i] for i in stage.writes),
                                self._stage_cost(network, stage, bindings,
                                                 n, dtype)))
            releases = tuple(
                slot_of[node_id] for node_id in stage.reads
                if spec.node(node_id).filter != SOURCE
                and last_read.get(node_id, -1) == stage.index
                and node_id != output_id)
            if releases:
                ops.append(ReleaseOp(releases))
        ops.append(ReadOp(
            slot_of[output_id], output_id,
            reshape=(network.kind_of(output_id) is ResultKind.VECTOR
                     and not network.uniform(output_id))))

        return ExecutablePlan(
            ops=tuple(ops),
            strategy_name=self.name,
            source_order=sources,
            n=n, dtype=dtype,
            output_id=output_id,
            output_kind=network.kind_of(output_id),
            output_uniform=network.uniform(output_id),
            generated_sources=kernels,
        )

    def _stage_cost(self, network: Network, stage: FusedStage,
                    bindings: Mapping[str, Binding], n: int,
                    dtype: np.dtype) -> KernelCost:
        """One stage's modeled cost: the global bytes it reads and
        writes, its flops, and its peak live register words (the spill
        model) — no code generated."""
        registry = network.registry
        flops = 0
        live_words = 0
        peak_words = 0
        uses = Counter(i for m in stage.nodes for i in m.inputs)
        remaining_uses = {node.id: uses[node.id] for node in stage.nodes}
        for node in stage.nodes:
            primitive = registry.get(node.filter)
            flops += primitive.flops_per_element * n
            live_words += (VECTOR_WIDTH if primitive.result_kind
                           is ResultKind.VECTOR else 1)
            peak_words = max(peak_words, live_words)
            for input_id in set(node.inputs):
                if input_id in remaining_uses:
                    remaining_uses[input_id] -= node.inputs.count(input_id)
                    if remaining_uses[input_id] <= 0 \
                            and input_id not in stage.writes:
                        input_kind = network.kind_of(input_id)
                        live_words -= (VECTOR_WIDTH if input_kind
                                       is ResultKind.VECTOR else 1)
        global_bytes = sum(
            self._node_nbytes(network, node_id, bindings, n, dtype)
            for node_id in (*stage.reads, *stage.writes))
        return KernelCost(global_bytes=global_bytes, flops=flops,
                          register_words=peak_words,
                          itemsize=dtype.itemsize, elements=n)

    # -- code generation -------------------------------------------------------

    def _generate(self, network: Network, stage: FusedStage,
                  ctypes: Mapping[str, str], n: int,
                  dtype: np.dtype) -> tuple[str, Callable]:
        """Emit and validate the OpenCL C, and ``exec``-compile the NumPy
        executor, of one fused stage.  ``ctypes`` maps each source the
        stage reads to its OpenCL type."""
        spec = network.spec
        registry = network.registry
        ctype = ctype_for(dtype)
        vec_ctype = f"{ctype}{VECTOR_WIDTH}"
        builder = KernelSourceBuilder(_kernel_name(stage))
        py_lines: list[str] = []
        namespace: dict[str, object] = {"np": np}

        in_stage = {node.id: node for node in stage.nodes}
        read_params = _read_params(network, stage)
        param_names = dict(zip(stage.reads, read_params))

        for node_id, pname in param_names.items():
            if node_id in ctypes:
                builder.add_global_param(ctypes[node_id], pname)
            else:
                kind_ctype = (vec_ctype if network.kind_of(node_id)
                              is ResultKind.VECTOR else ctype)
                builder.add_global_param(kind_ctype, pname)

        def cl_operand(input_id: str) -> str:
            node = spec.node(input_id)
            if node.filter == CONST:
                # source-code level constant insertion
                return f"(({ctype})({node.param('value')!r}))"
            if input_id in in_stage and input_id not in stage.reads:
                return f"v_{input_id}"
            return f"{param_names[input_id]}[gid]"

        def py_operand(input_id: str) -> str:
            node = spec.node(input_id)
            if node.filter == CONST:
                return repr(float(node.param("value")))
            if input_id in in_stage and input_id not in stage.reads:
                return f"v_{input_id}"
            return param_names[input_id]

        for node in stage.nodes:
            primitive = registry.get(node.filter)
            local_ctype = (vec_ctype if primitive.result_kind
                           is ResultKind.VECTOR else ctype)

            if primitive.call_style is CallStyle.GLOBAL:
                operands = []
                for input_id in node.inputs:
                    input_node = spec.node(input_id)
                    if input_node.filter == SOURCE \
                            or input_id in stage.reads:
                        operands.append(param_names[input_id])
                    else:  # pragma: no cover - staged out by plan_stages
                        raise StrategyError(
                            f"global primitive {node.filter} input "
                            f"{input_id!r} not materialized")
                for helper_name, helper_src in \
                        primitive.iter_helpers(ctype):
                    builder.add_helper(helper_name, helper_src)
                call = primitive.render_call(*operands, T=ctype)
                py_call = (f"_p_{primitive.name}("
                           + ", ".join(operands) + ")")
                namespace[f"_p_{primitive.name}"] = primitive.numpy_fn
            elif node.filter == "decompose":
                component = node.param("component")
                base = cl_operand(node.inputs[0])
                call = f"({base}).s{component}"
                py_call = f"({py_operand(node.inputs[0])})[:, {component}]"
            else:
                for helper_name, helper_src in \
                        primitive.iter_helpers(ctype):
                    builder.add_helper(helper_name, helper_src)
                call = primitive.render_call(
                    *[cl_operand(i) for i in node.inputs], T=ctype)
                py_call = (f"_p_{primitive.name}("
                           + ", ".join(py_operand(i)
                                       for i in node.inputs) + ")")
                namespace[f"_p_{primitive.name}"] = primitive.numpy_fn

            builder.add_statement(
                f"const {local_ctype} v_{node.id} = {call};")
            py_lines.append(f"v_{node.id} = {py_call}")

        # Stores for materialized values.
        out_exprs = []
        for node_id in stage.writes:
            pname = f"m_{node_id}"
            kind_ctype = (vec_ctype if network.kind_of(node_id)
                          is ResultKind.VECTOR else ctype)
            builder.add_global_param(kind_ctype, pname, const=False)
            builder.add_statement(f"{pname}[gid] = v_{node_id};")
            if network.uniform(node_id):
                out_exprs.append(f"_as_uniform(v_{node_id})")
            elif network.kind_of(node_id) is ResultKind.VECTOR:
                out_exprs.append(f"_as_vec(v_{node_id})")
            else:
                out_exprs.append(f"_as_field(v_{node_id})")
        cl_source = builder.render()

        # Build the NumPy executor by exec-ing generated Python — the same
        # dynamic-generation step, on the simulation side.
        py_src_lines = [f"def _fused({', '.join(read_params)}):"]
        py_src_lines.extend(f"    {line}" for line in py_lines)
        returns = ", ".join(out_exprs)
        py_src_lines.append(
            f"    return ({returns},)" if len(out_exprs) == 1
            else f"    return ({returns})")
        py_source = "\n".join(py_src_lines)
        namespace["_as_field"] = _as_field_factory(n, dtype)
        namespace["_as_vec"] = _as_vec
        namespace["_as_uniform"] = _as_uniform_factory(dtype)
        exec(compile(py_source, f"<fused_stage_{stage.index}>", "exec"),
             namespace)
        fused_fn = namespace["_fused"]
        validate_source_cached(cl_source)

        def executor(*args):
            results = fused_fn(*args)
            return results[0] if len(results) == 1 else results

        return cl_source, executor


def _kernel_name(stage: FusedStage) -> str:
    return f"k_fused_s{stage.index}"


def _read_params(network: Network, stage: FusedStage) -> list[str]:
    """The stage kernel's global parameter name for each value it reads."""
    return [_param_name(node_id, network.spec.node(node_id).filter == SOURCE)
            for node_id in stage.reads]


def _as_field_factory(n: int, dtype: np.dtype):
    """Broadcast scalar-expression results to full problem-sized fields
    (a fused expression of constants still fills the output array)."""
    def _as_field(value):
        array = np.asarray(value, dtype=dtype)
        if array.ndim == 0 or array.size == 1:
            return np.full(n, float(array.reshape(-1)[0]), dtype=dtype)
        return np.ascontiguousarray(array)
    return _as_field


def _as_vec(value):
    return np.ascontiguousarray(value)


def _as_uniform_factory(dtype: np.dtype):
    """Uniform (constant-valued) results occupy single-element buffers."""
    def _as_uniform(value):
        return np.asarray(value, dtype=dtype).reshape(-1)
    return _as_uniform
