"""Mesh-aware chunking: the schedule transform behind the two
future-work strategies the paper names (Section VI), *streaming* and
*multiple target devices on a single node*.

Both split a rectilinear problem into slabs along the slowest-varying
(i) axis, with a halo wide enough for stencil primitives, and reassemble
outputs with the halo stripped — tiling with halos.  :func:`chunk_plan`
does it as one transform of an inner strategy's op schedule: the
semantics stay the inner strategy's, only the schedule changes, so a
chunked plan is launched, folded and planned like any other.

The mesh layout is discovered from the bindings themselves: an integer
3-vector is the ``dims`` array; 1-D float arrays of length ``dims[k]+1``
are the point coordinates; full-size float arrays are cell fields.  A
shape-only ``dims`` (planning) takes the dims from the coordinate arrays'
lengths, less one.  A pointwise problem (no mesh bound) chunks by flat
element ranges.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Optional

import numpy as np

from ..clsim.device import DeviceSpec
from ..dataflow.network import Network
from ..errors import StrategyError
from .base import ExecutionStrategy
from .bindings import (ArraySpec, Binding, BindingInput, normalize,
                       problem_size)
from .plancache import (AllocOp, ExecutablePlan, HostOp, KernelOp, Op,
                        ReleaseOp, UploadOp)

__all__ = ["MeshLayout", "Chunk", "discover_mesh", "halo_width",
           "plan_chunks", "chunk_bindings", "chunk_plan", "assemble"]


@dataclass(frozen=True)
class MeshLayout:
    """How the bound arrays relate to the rectilinear mesh."""

    dims_name: Optional[str]            # the dims source, if any
    coord_names: tuple[str, ...]        # (x, y, z) sources, if any
    field_names: tuple[str, ...]        # full-sized cell fields
    dims: tuple[int, int, int]          # (ni, nj, nk)

    @property
    def has_mesh(self) -> bool:
        return self.dims_name is not None

    @property
    def n_cells(self) -> int:
        ni, nj, nk = self.dims
        return ni * nj * nk


@dataclass(frozen=True)
class Chunk:
    """One slab along the i axis, in cell indices."""

    start: int          # first owned i-layer
    stop: int           # one past the last owned i-layer
    halo_lo: int        # extra layers included below `start`
    halo_hi: int        # extra layers included above `stop`

    @property
    def owned(self) -> int:
        return self.stop - self.start

    @property
    def extent(self) -> tuple[int, int]:
        """The (lo, hi) i-range actually present in the chunk arrays."""
        return self.start - self.halo_lo, self.stop + self.halo_hi


def discover_mesh(bindings: Mapping[str, BindingInput],
                  n_cells: int) -> MeshLayout:
    """Classify bound arrays (or their shapes) into dims / coordinates /
    fields."""
    bound = normalize(bindings, list(bindings))
    specs = {name: b.spec for name, b in bound.items()}
    fields = tuple(name for name, spec in specs.items()
                   if spec.dtype.kind == "f" and spec.size == n_cells)
    dims_name = next((name for name, spec in specs.items()
                      if spec.dtype.kind == "i" and spec.size == 3), None)
    if dims_name is None:
        # Pointwise problem: treat the flat range as (n, 1, 1).
        return MeshLayout(None, (), fields, (n_cells, 1, 1))
    coords = [name for name, spec in specs.items()
              if spec.dtype.kind == "f" and len(spec.shape) == 1
              and spec.size != n_cells]
    if coords and len(coords) != 3:
        raise StrategyError(
            f"expected 3 coordinate arrays with dims; found {coords}")
    data = bound[dims_name].data
    # Shape-only dims (planning): the coordinate arrays size the mesh.
    dims = (tuple(specs[c].size - 1 for c in coords) if data is None
            else tuple(int(d) for d in data.ravel()))
    if len(dims) != 3 or dims[0] * dims[1] * dims[2] != n_cells:
        raise StrategyError(
            f"dims {dims} do not match problem size {n_cells}")
    # order coordinates by their length matching dims[k] + 1
    ordered: list[str] = []
    for k in range(3 if coords else 0):
        match = next((c for c in coords if c not in ordered
                      and specs[c].size == dims[k] + 1), None)
        if match is None:
            raise StrategyError(
                f"no coordinate array of length {dims[k] + 1} for axis {k}")
        ordered.append(match)
    return MeshLayout(dims_name, tuple(ordered), fields, dims)


def halo_width(network: Network) -> int:
    """Cells of halo per slab side: the network's stencil depth (the
    gradient's central difference reads +-1 along each axis, and a
    gradient of a gradient's result reads +-2), 0 without a stencil."""
    return network.stencil_depth()


def plan_chunks(layout: MeshLayout, n_chunks: int,
                halo: int) -> list[Chunk]:
    """Split the i axis into ``n_chunks`` near-equal slabs.

    Halos are clipped at the physical domain boundary, so boundary cells
    keep their one-sided differences — identical to the unchunked result.
    """
    ni = layout.dims[0]
    if n_chunks < 1:
        raise StrategyError("need at least one chunk")
    n_chunks = min(n_chunks, ni)
    bounds = np.linspace(0, ni, n_chunks + 1).astype(int)
    chunks = []
    for k in range(n_chunks):
        start, stop = int(bounds[k]), int(bounds[k + 1])
        if start == stop:
            continue
        chunks.append(Chunk(
            start=start, stop=stop,
            halo_lo=min(halo, start),
            halo_hi=min(halo, ni - stop)))
    return chunks


def _slab(name: str, layout: MeshLayout, chunk: Chunk,
          array: np.ndarray) -> np.ndarray:
    """One bound array cut down to a slab (copy-free for fields in C
    order: slabs along i are contiguous)."""
    lo, hi = chunk.extent
    ni, nj, nk = layout.dims
    if name in layout.field_names:
        return array.reshape(ni, nj, nk)[lo:hi].reshape(-1)
    if name == layout.dims_name:
        return np.asarray([hi - lo, nj, nk], dtype=array.dtype)
    if layout.coord_names and name == layout.coord_names[0]:
        return array[lo:hi + 1]
    return array


def _slab_spec(name: str, layout: MeshLayout, chunk: Chunk,
               spec: ArraySpec) -> ArraySpec:
    """The shape :func:`_slab` cuts ``spec``'s array to."""
    lo, hi = chunk.extent
    _, nj, nk = layout.dims
    if name in layout.field_names:
        return ArraySpec(((hi - lo) * nj * nk,), spec.dtype)
    if layout.coord_names and name == layout.coord_names[0]:
        return ArraySpec((hi - lo + 1,), spec.dtype)
    return spec


def chunk_bindings(bindings: Mapping[str, np.ndarray],
                   layout: MeshLayout,
                   chunk: Chunk) -> dict[str, np.ndarray]:
    """Slice every bound array down to one slab."""
    return {name: _slab(name, layout, chunk, np.asarray(array))
            for name, array in bindings.items()}


def _renumber(op: Op, base: int, k: int, device: int) -> Op:
    """``op`` moved into slab ``k`` on ``device``: slots shifted by
    ``base``, node ids suffixed ``@k``."""
    def local(node_id: str) -> str:
        return f"{node_id}@{k}"

    def shift(slots: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(s + base for s in slots)

    kind = type(op)
    if kind is KernelOp:
        changes = {"args": shift(op.args), "outs": shift(op.outs)}
    elif kind is ReleaseOp:
        changes = {"slots": shift(op.slots)}
    elif kind is HostOp:
        changes = {"node_id": local(op.node_id),
                   "inputs": tuple(map(local, op.inputs))}
    else:
        changes = {"slot": op.slot + base, "node_id": local(op.node_id)}
    return replace(op, slab=k, device=device, **changes)


def chunk_plan(inner: ExecutionStrategy, network: Network,
               bindings: Mapping[str, Binding], n: int, dtype: np.dtype,
               n_slabs: int, *, name: str, depth: int = 1,
               devices: tuple[DeviceSpec, ...] = ()) -> ExecutablePlan:
    """``inner``'s schedule over ``n_slabs`` i-axis slabs, as one op
    tuple.

    Per slab, host ops slice the slab's sub-bindings out of the full
    ones and ``inner.build_plan`` runs over the slab's shapes; its slots
    and node ids are renumbered (node ``u`` of slab 2 is ``u@2``), and a
    trailing release frees what the slab still holds.  A final host op
    assembles the owned rows.  With ``devices``, slab k runs on device k
    (0 is the launching environment's, k >= 1 ``devices[k - 1]``).  Up
    to ``depth`` slabs are resident on one device at once: the fold
    overlaps them on the device's engines and peaks at the most
    ``depth`` consecutive slabs reserve.
    """
    layout = discover_mesh(bindings, n)
    chunks = plan_chunks(layout, n_slabs, halo_width(network))
    ops: list[Op] = []
    plans: list[ExecutablePlan] = []
    for k, chunk in enumerate(chunks):
        device = k if devices else 0
        sub = {s: Binding(s, _slab_spec(s, layout, chunk, b.spec), None)
               for s, b in bindings.items()}
        plan = inner.build_plan(network, sub, problem_size(sub)[0], dtype)
        plans.append(plan)
        ops.extend(HostOp(f"{s}@{k}", partial(_slab, s, layout, chunk),
                          (s,), slab=k, device=device)
                   for s in plan.source_order)
        base = 1 + max((op.slot for op in ops if hasattr(op, "slot")),
                       default=-1)
        held: dict[int, None] = {}
        for op in plan.ops:
            ops.append(op := _renumber(op, base, k, device))
            if type(op) is UploadOp or type(op) is AllocOp:
                held[op.slot] = None
            elif type(op) is ReleaseOp:
                for s in op.slots:
                    del held[s]
        if held:
            ops.append(ReleaseOp(tuple(held), slab=k, device=device))

    def assembled(*values: np.ndarray) -> np.ndarray:
        return assemble([(chunk, plan._broadcast(value)) for chunk, plan,
                         value in zip(chunks, plans, values)],
                        layout, plans[0].output_components)

    output_id = network.output_ids()[0]
    ops.append(HostOp(output_id, assembled,
                      tuple(f"{output_id}@{k}" for k in range(len(plans)))))
    chunked = ExecutablePlan(
        strategy_name=name, source_order=tuple(bindings), n=n, dtype=dtype,
        output_id=output_id, output_kind=network.kind_of(output_id),
        output_uniform=False,
        generated_sources=ChainMap(*reversed(
            [plan.generated_sources for plan in plans])),
        ops=tuple(ops))
    chunked.pipeline_depth = depth
    chunked.devices = devices[:len(plans) - 1]
    return chunked


def assemble(pieces: list[tuple[Chunk, np.ndarray]],
             layout: MeshLayout, components: int = 1) -> np.ndarray:
    """Concatenate owned slabs (halo rows stripped) into the full field."""
    ni, nj, nk = layout.dims
    tail = (components,) if components > 1 else ()
    out = np.empty((ni, nj * nk, *tail), dtype=pieces[0][1].dtype)
    for chunk, values in pieces:
        lo, hi = chunk.extent
        out[chunk.start:chunk.stop] = values.reshape(
            hi - lo, nj * nk, *tail)[chunk.halo_lo:
                                     chunk.halo_lo + chunk.owned]
    return out.reshape(ni * nj * nk, *tail)
