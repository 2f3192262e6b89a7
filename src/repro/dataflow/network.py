"""Executable dataflow network: validation, topological sort, reference
counts, and result-kind inference.

Section III-B2: *"Executing a dataflow network requires understanding the
dependencies between filters. Our dataflow network module uses a topological
sort to ensure proper precedence. It provides reference counting and reuses
intermediate results multiple times to avoid unnecessary computation and
reduce memory overhead."*

The network itself is strategy-agnostic: execution strategies walk
:meth:`Network.schedule` and use :meth:`Network.refcounts` to free device
buffers as soon as their last consumer has run — the mechanism behind the
distinct memory footprints in the paper's Fig 2 and Fig 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Optional

from ..errors import NetworkError
from ..primitives.base import CallStyle, PrimitiveRegistry, ResultKind
from ..primitives.registry import DEFAULT_REGISTRY
from .spec import CONST, SOURCE, NetworkSpec, NodeSpec

__all__ = ["Network", "NodeInfo"]


@dataclass(frozen=True)
class NodeInfo:
    """A validated node with its inferred result kind."""

    spec: NodeSpec
    kind: ResultKind
    consumers: int


class Network:
    """A validated, schedulable dataflow network."""

    def __init__(self, spec: NetworkSpec,
                 registry: Optional[PrimitiveRegistry] = None, *,
                 source_kinds: Optional[dict[str, ResultKind]] = None):
        self.spec = spec
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._source_kinds = source_kinds or {}
        if not spec.outputs:
            raise NetworkError("network has no output node")
        self._order = self._toposort()
        self._refcounts = self._count_consumers()
        self._kinds = self._infer_kinds()
        self._uniform = self._infer_uniform()
        self._validate()
        self._live_sources = tuple(
            node_id for node_id in self._order
            if self.spec.node(node_id).filter == SOURCE)

    # -- construction helpers ------------------------------------------------

    def _toposort(self) -> list[str]:
        graph = {n.id: set(n.inputs) for n in self.spec.nodes}
        sorter = TopologicalSorter(graph)
        try:
            order = list(sorter.static_order())
        except CycleError as exc:
            raise NetworkError(f"network contains a cycle: {exc}") from exc
        # Restrict to nodes actually reachable from the outputs so dead
        # assignments cost nothing (the refcount/reuse design).
        live: set[str] = set()
        stack = [self.spec.resolve(o) for o in self.spec.outputs]
        while stack:
            node_id = stack.pop()
            if node_id in live:
                continue
            live.add(node_id)
            stack.extend(self.spec.node(node_id).inputs)
        return [node_id for node_id in order if node_id in live]

    def _count_consumers(self) -> dict[str, int]:
        counts = {node_id: 0 for node_id in self._order}
        for node_id in self._order:
            for input_id in self.spec.node(node_id).inputs:
                counts[input_id] += 1
        for output in self.spec.outputs:
            counts[self.spec.resolve(output)] += 1
        return counts

    def _infer_kinds(self) -> dict[str, ResultKind]:
        kinds: dict[str, ResultKind] = {}
        for node_id in self._order:
            node = self.spec.node(node_id)
            if node.filter == SOURCE:
                kinds[node_id] = self._source_kinds.get(
                    node_id, ResultKind.SCALAR)
            elif node.filter == CONST:
                kinds[node_id] = ResultKind.SCALAR
            else:
                kinds[node_id] = self.registry.get(node.filter).result_kind
        return kinds

    def _infer_uniform(self) -> dict[str, bool]:
        """A node is *uniform* when its value is one number per problem
        (constants and elementwise combinations of constants).  Uniform
        values occupy single-element device buffers and broadcast."""
        uniform: dict[str, bool] = {}
        for node_id in self._order:
            node = self.spec.node(node_id)
            if node.filter == CONST:
                uniform[node_id] = True
            elif node.filter == SOURCE:
                uniform[node_id] = False
            else:
                primitive = self.registry.get(node.filter)
                uniform[node_id] = (
                    primitive.call_style is not CallStyle.GLOBAL
                    and all(uniform[i] for i in node.inputs))
        return uniform

    def _validate(self) -> None:
        for node_id in self._order:
            node = self.spec.node(node_id)
            if node.filter in (SOURCE, CONST):
                continue
            primitive = self.registry.get(node.filter)  # raises if unknown
            if (primitive.call_style is CallStyle.GLOBAL and node.inputs
                    and self._uniform[node.inputs[0]]):
                raise NetworkError(
                    f"{node.filter!r} node {node_id} applies a stencil to "
                    "a uniform (constant-valued) expression; bind a field "
                    "instead")
            if len(node.inputs) != primitive.arity:
                raise NetworkError(
                    f"{node.filter!r} node {node_id} has "
                    f"{len(node.inputs)} inputs; primitive arity is "
                    f"{primitive.arity}")
            if node.filter == "decompose":
                input_kind = self._kinds[node.inputs[0]]
                if input_kind is not ResultKind.VECTOR:
                    raise NetworkError(
                        f"decompose node {node_id} applied to non-vector "
                        f"input {node.inputs[0]!r}")

    # -- public surface --------------------------------------------------------

    def schedule(self) -> list[NodeSpec]:
        """Live nodes in dependency order."""
        return [self.spec.node(node_id) for node_id in self._order]

    def refcounts(self) -> dict[str, int]:
        """Consumer counts per node (outputs count as one extra consumer),
        for copy-free intermediate reuse and eager buffer release."""
        return dict(self._refcounts)

    def kind_of(self, node_id: str) -> ResultKind:
        return self._kinds[node_id]

    def uniform(self, node_id: str) -> bool:
        """Whether a node's value is one number per problem (broadcast)."""
        return self._uniform[node_id]

    def output_ids(self) -> list[str]:
        return [self.spec.resolve(o) for o in self.spec.outputs]

    def live_sources(self) -> list[str]:
        return list(self._live_sources)

    def stencil_depth(self) -> int:
        """The longest chain of stencil (global-access) primitives through
        computed values: a gradient of a gradient's result is depth 2.
        Each stencil reads one neighbour per side, so a block needs this
        many halo (ghost) layers for every value at its seams to be
        exact."""
        depth: dict[str, int] = {}
        for node_id in self._order:
            node = self.spec.node(node_id)
            if node.filter in (SOURCE, CONST):
                depth[node_id] = 0
                continue
            stencil = (self.registry.get(node.filter).call_style
                       is CallStyle.GLOBAL)
            depth[node_id] = stencil + max(
                (depth[i] for i in node.inputs), default=0)
        return max(depth.values(), default=0)

    def n_filters(self) -> int:
        return sum(1 for node_id in self._order
                   if self.spec.node(node_id).filter not in (SOURCE, CONST))

    def __len__(self) -> int:
        return len(self._order)
