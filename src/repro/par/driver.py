"""Distributed-memory parallel execution driver (the Fig 7 experiment).

Each rank owns a set of sub-grids, binds one simulated device, and runs the
framework in situ exactly as the single-device path does — the kernels are
embarrassingly parallel; what the distributed test adds (and what this
driver exercises) is ghost-data generation at block seams, multiple target
devices per node, multiple sub-grid chunks per device, and embedding in a
larger pipeline.

Two modes:

* :func:`run_distributed` — live execution over a (small) global dataset,
  reassembling the global derived field and allreducing statistics through
  the simulated MPI layer;
* :func:`plan_distributed` — full-paper-scale dry run (3072 blocks, 256
  devices) through the planner, producing per-rank event counts, modeled
  times, and memory peaks without any element data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import MPIError
from ..host.engine import DerivedFieldEngine
from ..host.visitsim.dataset import RectilinearDataset
from ..host.visitsim.ghost import BlockExtent, decompose, extract_block
from ..strategies import get_strategy
from ..strategies.bindings import ArraySpec
from ..strategies.plancache import PlanCache
from ..strategies.planner import PlanResult, plan
from .decomp import RankAssignment, assign_blocks
from .mpi import Comm, World

__all__ = ["DistributedResult", "run_distributed",
           "run_distributed_from_store", "plan_distributed", "RankStats"]


@dataclass(frozen=True)
class RankStats:
    """Per-rank execution accounting."""

    rank: int
    device_index: int
    n_blocks: int
    n_cells: int
    kernel_execs: int
    dev_writes: int
    dev_reads: int
    sim_seconds: float
    mem_high_water: int


@dataclass
class DistributedResult:
    """Reassembled output + global statistics + per-rank accounting."""

    field: Optional[np.ndarray]        # flat global derived field
    global_dims: tuple[int, int, int]
    field_min: float
    field_max: float
    field_sum: float
    rank_stats: list[RankStats]

    @property
    def n_ranks(self) -> int:
        return len(self.rank_stats)


# Executable plans shared by every rank engine of every call: an in-situ
# host runs the same expression each time step, so only the first step
# builds (and compiles) plans.  PlanKey covers the device, strategy,
# backend and block shapes, and the cache is thread-safe.
_RANK_PLANS = PlanCache()


# Compiles each expression once per process for every rank and call
# (default registry and CSE, as a rank engine would): a time step after
# the first parses and validates nothing.
_COMPILER = DerivedFieldEngine(plan_cache=False)


def _rank_body(comm: Comm, read_block: Callable,
               assignments: list[RankAssignment], expression: str,
               strategy: str, device: str, ghost_width: Optional[int]):
    """What each MPI task runs: its blocks, in situ, on its device.

    ``read_block(block, ghost_width)`` turns one of the rank's assigned
    blocks into ``(extent, ghosted dataset)`` — extracted from a global
    in-memory dataset, or read (ghosts included) from a brick store."""
    mine = assignments[comm.rank]
    engine = DerivedFieldEngine(device=device, strategy=strategy,
                                plan_cache=_RANK_PLANS)
    compiled = _COMPILER.compile(expression)
    # None = the expression's stencil depth (the ghost width its VisIt
    # contract requests, the normal in-situ path); an explicit width
    # overrides it (0 disables ghosts, for ablation).
    width = (compiled.network.stencil_depth() if ghost_width is None
             else ghost_width)

    pieces: list[tuple[BlockExtent, np.ndarray]] = []
    counts = {"k": 0, "w": 0, "r": 0}
    sim_seconds = 0.0
    mem_peak = 0
    n_cells = 0
    local_min, local_max, local_sum = np.inf, -np.inf, 0.0
    for assigned in mine.blocks:
        extent, block = read_block(assigned, width)
        bindings = dict(block.mesh_arrays())
        for name in compiled.required_inputs:
            if name not in bindings:
                bindings[name] = block.field(name)
        report = engine.execute(compiled, bindings)
        derived = block.with_fields(
            {compiled.result_name: report.output}).strip_ghost()
        values = derived.field(compiled.result_name)
        pieces.append((extent, values))
        counts["k"] += report.counts.kernel_execs
        counts["w"] += report.counts.dev_writes
        counts["r"] += report.counts.dev_reads
        sim_seconds += report.timing.total
        mem_peak = max(mem_peak, report.mem_high_water)
        n_cells += extent.n_cells
        if values.size:
            local_min = min(local_min, float(values.min()))
            local_max = max(local_max, float(values.max()))
            local_sum += float(values.sum())

    field_min = comm.allreduce(local_min, min)
    field_max = comm.allreduce(local_max, max)
    field_sum = comm.allreduce(local_sum)
    stats = RankStats(
        rank=comm.rank, device_index=mine.device_index,
        n_blocks=mine.n_blocks, n_cells=n_cells,
        kernel_execs=counts["k"], dev_writes=counts["w"],
        dev_reads=counts["r"], sim_seconds=sim_seconds,
        mem_high_water=mem_peak)
    return pieces, stats, (field_min, field_max, field_sum)


def _reassemble(rank_results: list, global_dims: tuple[int, int, int],
                ) -> DistributedResult:
    """Scatter every rank's blocks into the flat global field."""
    output = np.empty(global_dims[0] * global_dims[1] * global_dims[2],
                      dtype=np.float64)
    output3d = output.reshape(global_dims)
    for pieces, _stats, _reduced in rank_results:
        for extent, values in pieces:
            (i0, j0, k0), (bi, bj, bk) = extent.lo, extent.dims
            output3d[i0:i0 + bi, j0:j0 + bj, k0:k0 + bk] = \
                values.reshape(bi, bj, bk)
    field_min, field_max, field_sum = rank_results[0][2]
    return DistributedResult(
        field=output,
        global_dims=global_dims,
        field_min=field_min, field_max=field_max, field_sum=field_sum,
        rank_stats=[stats for _p, stats, _r in rank_results],
    )


def run_distributed(expression: str, global_ds: RectilinearDataset, *,
                    block_dims: tuple[int, int, int], n_ranks: int,
                    strategy: str = "fusion", device: str = "gpu",
                    devices_per_node: int = 2,
                    ghost_width: Optional[int] = None) -> DistributedResult:
    """Execute ``expression`` over a decomposed global dataset."""
    blocks = decompose(global_ds.dims, block_dims)
    if n_ranks > len(blocks):
        raise MPIError(
            f"{n_ranks} ranks for {len(blocks)} blocks; reduce ranks")
    assignments = assign_blocks(blocks, n_ranks,
                                devices_per_node=devices_per_node)

    def read_block(extent: BlockExtent, width: int):
        return extent, extract_block(global_ds, extent, ghost_width=width)

    rank_results = World(n_ranks).run(_rank_body, read_block, assignments,
                                      expression, strategy, device,
                                      ghost_width)
    return _reassemble(rank_results, global_ds.dims)


def run_distributed_from_store(expression: str, store, *, n_ranks: int,
                               strategy: str = "fusion",
                               device: str = "gpu",
                               devices_per_node: int = 2,
                               ghost_width: Optional[int] = None,
                               ) -> DistributedResult:
    """Out-of-core variant of :func:`run_distributed`: each rank reads its
    bricks (with disk-assembled ghosts) from a
    :class:`~repro.io.decomposed.DecomposedReader` — no rank ever holds
    more than one ghosted brick."""
    extents = store.extents()
    if n_ranks > len(extents):
        raise MPIError(
            f"{n_ranks} ranks for {len(extents)} blocks; reduce ranks")
    # assign by block *index* so ranks address the store directly
    index_assignments = assign_blocks(list(range(len(extents))), n_ranks,
                                      devices_per_node=devices_per_node)

    def read_block(index: int, width: int):
        return extents[index], store.read_block(index, ghost_width=width)

    rank_results = World(n_ranks).run(_rank_body, read_block,
                                      index_assignments, expression,
                                      strategy, device, ghost_width)
    return _reassemble(rank_results, store.global_dims)


def plan_distributed(expression: str, *,
                     global_dims: tuple[int, int, int],
                     block_dims: tuple[int, int, int], n_ranks: int,
                     strategy: str = "fusion", device: str = "gpu",
                     devices_per_node: int = 2,
                     ghost_width: Optional[int] = None,
                     dtype=np.float64) -> list[PlanResult]:
    """Full-scale dry-run: plan every rank's first block (all blocks are
    identically sized, so one plan per rank characterizes the run) and
    scale by its block count.  ``ghost_width`` defaults, as in
    :func:`run_distributed`, to the expression's stencil depth.

    Returns one :class:`PlanResult` per rank.
    """
    blocks = decompose(global_dims, block_dims)
    assignments = assign_blocks(blocks, n_ranks,
                                devices_per_node=devices_per_node)
    compiled = _COMPILER.compile(expression)
    if ghost_width is None:
        ghost_width = compiled.network.stencil_depth()
    dtype = np.dtype(dtype)

    results: list[PlanResult] = []
    for assignment in assignments:
        if not assignment.blocks:
            continue
        # Ghosted block shape: interior faces gain ghost_width layers.
        extent = assignment.blocks[0]
        dims = []
        for axis in range(3):
            lo_g = ghost_width if extent.lo[axis] > 0 else 0
            hi_g = ghost_width if extent.hi[axis] < global_dims[axis] else 0
            dims.append(extent.dims[axis] + lo_g + hi_g)
        ni, nj, nk = dims
        n = ni * nj * nk
        shapes = {
            "u": ArraySpec((n,), dtype), "v": ArraySpec((n,), dtype),
            "w": ArraySpec((n,), dtype),
            "dims": ArraySpec((3,), np.dtype(np.int32)),
            "x": ArraySpec((ni + 1,), dtype),
            "y": ArraySpec((nj + 1,), dtype),
            "z": ArraySpec((nk + 1,), dtype),
        }
        shapes = {k: v for k, v in shapes.items()
                  if k in compiled.required_inputs}
        results.append(plan(get_strategy(strategy), shapes, device,
                            network=compiled.network))
    return results
