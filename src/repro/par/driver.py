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
from typing import Optional

import numpy as np

from ..clsim.device import DeviceType
from ..clsim.environment import CLEnvironment
from ..errors import MPIError
from ..host.engine import DerivedFieldEngine
from ..host.visitsim.dataset import RectilinearDataset
from ..host.visitsim.ghost import BlockExtent, decompose, extract_block
from ..host.visitsim.pyexpr import PythonExpressionFilter
from ..strategies import get_strategy
from ..strategies.bindings import ArraySpec
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


def _rank_body(comm: Comm, global_ds: RectilinearDataset,
               assignments: list[RankAssignment], expression: str,
               strategy: str, device: str, ghost_width: Optional[int]):
    """What each MPI task runs: its blocks, in situ, on its device."""
    mine = assignments[comm.rank]
    engine = DerivedFieldEngine(device=device, strategy=strategy)
    expr_filter = PythonExpressionFilter(expression, engine=engine)
    # None = honour the expression's contract (the normal in-situ path);
    # an explicit width overrides it (0 disables ghosts, for ablation).
    width = (expr_filter.contract().ghost_width if ghost_width is None
             else ghost_width)

    pieces: list[tuple[BlockExtent, np.ndarray]] = []
    counts = {"k": 0, "w": 0, "r": 0}
    sim_seconds = 0.0
    mem_peak = 0
    n_cells = 0
    local_min, local_max, local_sum = np.inf, -np.inf, 0.0
    for extent in mine.blocks:
        block = extract_block(global_ds, extent, ghost_width=width)
        bindings = dict(block.mesh_arrays())
        for name in expr_filter.compiled.required_inputs:
            if name not in bindings:
                bindings[name] = block.field(name)
        report = engine.execute(expr_filter.compiled, bindings)
        derived = block.with_fields(
            {expr_filter.output_name: report.output}).strip_ghost()
        values = derived.field(expr_filter.output_name)
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
    world = World(n_ranks)
    rank_results = world.run(_rank_body, global_ds, assignments,
                             expression, strategy, device, ghost_width)

    output = np.empty(global_ds.n_cells, dtype=np.float64)
    output3d = output.reshape(global_ds.dims)
    for pieces, _stats, _reduced in rank_results:
        for extent, values in pieces:
            (i0, j0, k0), (bi, bj, bk) = extent.lo, extent.dims
            output3d[i0:i0 + bi, j0:j0 + bj, k0:k0 + bk] = \
                values.reshape(bi, bj, bk)
    field_min, field_max, field_sum = rank_results[0][2]
    return DistributedResult(
        field=output,
        global_dims=global_ds.dims,
        field_min=field_min, field_max=field_max, field_sum=field_sum,
        rank_stats=[stats for _p, stats, _r in rank_results],
    )


def _rank_body_store(comm: Comm, store, assignments, expression: str,
                     strategy: str, device: str,
                     ghost_width: Optional[int]):
    """Out-of-core rank body: blocks (and their ghost layers) come from a
    :class:`~repro.io.decomposed.DecomposedReader` instead of a global
    in-memory dataset — no rank ever holds more than one ghosted brick."""
    mine = assignments[comm.rank]
    engine = DerivedFieldEngine(device=device, strategy=strategy)
    expr_filter = PythonExpressionFilter(expression, engine=engine)
    width = (expr_filter.contract().ghost_width if ghost_width is None
             else ghost_width)

    extents = store.extents()
    pieces: list[tuple[BlockExtent, np.ndarray]] = []
    counts = {"k": 0, "w": 0, "r": 0}
    sim_seconds = 0.0
    mem_peak = 0
    n_cells = 0
    local_min, local_max, local_sum = np.inf, -np.inf, 0.0
    for block_index in mine.blocks:
        extent = extents[block_index]
        block = store.read_block(block_index, ghost_width=width)
        bindings = dict(block.mesh_arrays())
        for name in expr_filter.compiled.required_inputs:
            if name not in bindings:
                bindings[name] = block.field(name)
        report = engine.execute(expr_filter.compiled, bindings)
        derived = block.with_fields(
            {expr_filter.output_name: report.output}).strip_ghost()
        values = derived.field(expr_filter.output_name)
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


def run_distributed_from_store(expression: str, store, *, n_ranks: int,
                               strategy: str = "fusion",
                               device: str = "gpu",
                               devices_per_node: int = 2,
                               ghost_width: Optional[int] = None,
                               ) -> DistributedResult:
    """Out-of-core variant of :func:`run_distributed`: each rank reads its
    bricks (with disk-assembled ghosts) from a
    :class:`~repro.io.decomposed.DecomposedReader`."""
    extents = store.extents()
    if n_ranks > len(extents):
        raise MPIError(
            f"{n_ranks} ranks for {len(extents)} blocks; reduce ranks")
    # assign by block *index* so ranks address the store directly
    index_assignments = assign_blocks(list(range(len(extents))), n_ranks,
                                      devices_per_node=devices_per_node)
    world = World(n_ranks)
    rank_results = world.run(_rank_body_store, store, index_assignments,
                             expression, strategy, device, ghost_width)

    global_dims = store.global_dims
    n_total = global_dims[0] * global_dims[1] * global_dims[2]
    output = np.empty(n_total, dtype=np.float64)
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


def plan_distributed(expression: str, *,
                     global_dims: tuple[int, int, int],
                     block_dims: tuple[int, int, int], n_ranks: int,
                     strategy: str = "fusion", device: str = "gpu",
                     devices_per_node: int = 2, ghost_width: int = 1,
                     dtype=np.float64) -> list[PlanResult]:
    """Full-scale dry-run: plan every rank's first block (all blocks are
    identically sized, so one plan per rank characterizes the run) and
    scale by its block count.

    Returns one :class:`PlanResult` per rank.
    """
    from ..expr import parse  # lazy: only needed for input discovery
    blocks = decompose(global_dims, block_dims)
    assignments = assign_blocks(blocks, n_ranks,
                                devices_per_node=devices_per_node)
    engine = DerivedFieldEngine(device=device, strategy=strategy)
    compiled = engine.compile(expression)
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
