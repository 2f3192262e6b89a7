"""Mesh-aware chunking of host bindings.

Shared machinery for the two future-work strategies the paper names
(Section VI): *streaming* execution and *multiple target devices on a
single node*.  Both need to split a rectilinear problem into slabs along
the slowest-varying (i) axis, with a halo wide enough for stencil
primitives, and to reassemble outputs with the halo stripped.

The mesh layout is discovered from the bindings themselves: an integer
3-vector is the ``dims`` array; 1-D float arrays of length ``dims[k]+1``
are the point coordinates; full-size float arrays are cell fields.  A
pointwise problem (no mesh bound) chunks by flat element ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..dataflow.network import Network
from ..errors import StrategyError

__all__ = ["MeshLayout", "Chunk", "discover_mesh", "halo_width",
           "plan_chunks", "chunk_bindings", "assemble"]


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


def discover_mesh(bindings: Mapping[str, np.ndarray],
                  n_cells: int) -> MeshLayout:
    """Classify bound arrays into dims / coordinates / fields."""
    dims_name = None
    dims = None
    for name, array in bindings.items():
        array = np.asarray(array)
        if array.dtype.kind == "i" and array.size == 3:
            dims_name = name
            dims = tuple(int(d) for d in array.ravel())
            break
    if dims_name is None:
        # Pointwise problem: treat the flat range as (n, 1, 1).
        fields = tuple(name for name, a in bindings.items()
                       if np.asarray(a).dtype.kind == "f"
                       and np.asarray(a).size == n_cells)
        return MeshLayout(None, (), fields, (n_cells, 1, 1))

    if dims[0] * dims[1] * dims[2] != n_cells:
        raise StrategyError(
            f"dims {dims} do not match problem size {n_cells}")
    coords = []
    fields = []
    for name, array in bindings.items():
        array = np.asarray(array)
        if name == dims_name:
            continue
        if array.dtype.kind == "f" and array.size == n_cells:
            fields.append(name)
        elif array.dtype.kind == "f" and array.ndim == 1:
            coords.append(name)
    if coords and len(coords) != 3:
        raise StrategyError(
            f"expected 3 coordinate arrays with dims; found {coords}")
    # order coordinates by their length matching dims[k] + 1
    ordered: list[str] = []
    remaining = list(coords)
    for k in range(3):
        match = next((c for c in remaining
                      if np.asarray(bindings[c]).size == dims[k] + 1),
                     None)
        if match is None and coords:
            raise StrategyError(
                f"no coordinate array of length {dims[k] + 1} for axis {k}")
        if match is not None:
            ordered.append(match)
            remaining.remove(match)
    return MeshLayout(dims_name, tuple(ordered), tuple(fields), dims)


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


def chunk_bindings(bindings: Mapping[str, np.ndarray],
                   layout: MeshLayout,
                   chunk: Chunk) -> dict[str, np.ndarray]:
    """Slice every bound array down to one slab (copy-free for fields in
    C order: slabs along i are contiguous)."""
    lo, hi = chunk.extent
    ni, nj, nk = layout.dims
    out: dict[str, np.ndarray] = {}
    for name, array in bindings.items():
        array = np.asarray(array)
        if name in layout.field_names:
            out[name] = array.reshape(ni, nj, nk)[lo:hi].reshape(-1)
        elif name == layout.dims_name:
            out[name] = np.asarray([hi - lo, nj, nk], dtype=array.dtype)
        elif layout.coord_names and name == layout.coord_names[0]:
            out[name] = array[lo:hi + 1]
        else:
            out[name] = array
    return out


def assemble(pieces: list[tuple[Chunk, np.ndarray]],
             layout: MeshLayout, components: int = 1) -> np.ndarray:
    """Concatenate owned slabs (halo rows stripped) into the full field."""
    ni, nj, nk = layout.dims
    plane = nj * nk
    if components == 1:
        out = np.empty(ni * plane, dtype=pieces[0][1].dtype)
        target = out.reshape(ni, plane)
    else:
        out = np.empty((ni * plane, components), dtype=pieces[0][1].dtype)
        target = out.reshape(ni, plane, components)
    for chunk, values in pieces:
        lo, hi = chunk.extent
        local = values.reshape(hi - lo, plane, *(
            (components,) if components > 1 else ()))
        target[chunk.start:chunk.stop] = local[
            chunk.halo_lo:chunk.halo_lo + chunk.owned]
    return out
