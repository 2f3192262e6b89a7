"""Tests for block/rank assignment and the distributed driver (Fig 7)."""

import numpy as np
import pytest

from repro.analysis import vortex
from repro.errors import MPIError
from repro.host.visitsim import RectilinearDataset, decompose
from repro.par import (assign_blocks, plan_distributed, run_distributed)


@pytest.fixture
def global_ds(small_fields):
    return RectilinearDataset(
        x=small_fields["x"], y=small_fields["y"], z=small_fields["z"],
        cell_fields={"u": small_fields["u"], "v": small_fields["v"],
                     "w": small_fields["w"]})


class TestAssignment:
    def test_round_robin_even_share(self):
        blocks = decompose((8, 8, 8), (2, 2, 2))  # 64 blocks
        assignments = assign_blocks(blocks, 16)
        assert all(a.n_blocks == 4 for a in assignments)

    def test_device_and_node_binding(self):
        blocks = decompose((4, 4, 4), (2, 2, 2))
        assignments = assign_blocks(blocks, 4, devices_per_node=2)
        assert [a.node for a in assignments] == [0, 0, 1, 1]
        assert [a.device_index for a in assignments] == [0, 1, 0, 1]

    def test_paper_configuration(self):
        """3072 blocks over 256 ranks / 128 nodes: 12 blocks per GPU."""
        blocks = decompose((3072, 3072, 3072), (192, 192, 256))
        assert len(blocks) == 3072
        assignments = assign_blocks(blocks, 256, devices_per_node=2)
        assert all(a.n_blocks == 12 for a in assignments)
        assert assignments[-1].node == 127

    def test_invalid_counts_rejected(self):
        with pytest.raises(MPIError):
            assign_blocks([], 0)


class TestDistributedRun:
    def test_matches_global_computation(self, global_ds, small_fields):
        """The headline correctness property: ghosted distributed
        execution reproduces the single-grid global result exactly."""
        result = run_distributed(
            vortex.Q_CRITERION, global_ds, block_dims=(3, 7, 4),
            n_ranks=4, strategy="fusion", device="gpu")
        expected = vortex.q_criterion_reference(
            *[small_fields[k] for k in
              ("u", "v", "w", "dims", "x", "y", "z")])
        np.testing.assert_allclose(result.field, expected, rtol=1e-12,
                                   atol=1e-12)

    def test_without_ghost_boundaries_differ(self, global_ds,
                                             small_fields):
        """Dropping ghost generation corrupts seam gradients — evidence the
        ghost machinery is doing real work."""
        result = run_distributed(
            vortex.Q_CRITERION, global_ds, block_dims=(3, 7, 4),
            n_ranks=2, ghost_width=0, strategy="fusion", device="cpu")
        expected = vortex.q_criterion_reference(
            *[small_fields[k] for k in
              ("u", "v", "w", "dims", "x", "y", "z")])
        assert np.abs(result.field - expected).max() > 1e-8

    def test_statistics_allreduced(self, global_ds):
        result = run_distributed(
            vortex.VELOCITY_MAGNITUDE, global_ds, block_dims=(3, 7, 4),
            n_ranks=4, strategy="staged", device="cpu")
        assert result.field_min == pytest.approx(result.field.min())
        assert result.field_max == pytest.approx(result.field.max())
        assert result.field_sum == pytest.approx(result.field.sum(),
                                                 rel=1e-12)

    def test_per_rank_stats(self, global_ds):
        result = run_distributed(
            vortex.VELOCITY_MAGNITUDE, global_ds, block_dims=(3, 7, 4),
            n_ranks=4, strategy="fusion", device="gpu")
        assert result.n_ranks == 4
        total_cells = sum(s.n_cells for s in result.rank_stats)
        assert total_cells == global_ds.n_cells
        # fusion: one kernel per block
        for stats in result.rank_stats:
            assert stats.kernel_execs == stats.n_blocks

    def test_too_many_ranks_rejected(self, global_ds):
        with pytest.raises(MPIError, match="reduce ranks"):
            run_distributed(vortex.VELOCITY_MAGNITUDE, global_ds,
                            block_dims=(6, 7, 8), n_ranks=2)


class TestSharedRankPlans:
    def test_second_identical_call_compiles_nothing(self, global_ds):
        """Rank engines share plans across calls: an in-situ host's
        second time step builds and compiles no plan."""
        from repro.metrics import MetricsRegistry, set_registry
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            first = run_distributed(
                vortex.Q_CRITERION, global_ds, block_dims=(3, 7, 4),
                n_ranks=2, strategy="fusion", device="gpu")
            compiles = registry.value("repro_codegen_compiles_total")
            second = run_distributed(
                vortex.Q_CRITERION, global_ds, block_dims=(3, 7, 4),
                n_ranks=2, strategy="fusion", device="gpu")
            assert registry.value("repro_codegen_compiles_total") \
                == compiles
        finally:
            set_registry(previous)
        assert second.field.tobytes() == first.field.tobytes()
        assert second.rank_stats == first.rank_stats

    def test_second_identical_call_parses_nothing(self, global_ds,
                                                  monkeypatch):
        """Nor does it compile the expression again: no rank of a later
        time step parses, lowers or validates it."""
        import repro.host.engine as engine_mod
        parses = []
        parse = engine_mod.parse

        def counting(text):
            parses.append(text)
            return parse(text)

        monkeypatch.setattr(engine_mod, "parse", counting)
        first = run_distributed(
            vortex.VORTICITY_MAGNITUDE, global_ds, block_dims=(3, 7, 4),
            n_ranks=2, strategy="staged", device="gpu")
        del parses[:]
        second = run_distributed(
            vortex.VORTICITY_MAGNITUDE, global_ds, block_dims=(3, 7, 4),
            n_ranks=2, strategy="staged", device="gpu")
        assert parses == []
        assert second.field.tobytes() == first.field.tobytes()


class TestDistributedPlan:
    def test_full_paper_scale(self):
        """Fig 7's configuration planned end to end: every one of the 256
        GPUs fits its 12 ghosted sub-grids comfortably in 3 GiB."""
        plans = plan_distributed(
            vortex.Q_CRITERION, global_dims=(3072, 3072, 3072),
            block_dims=(192, 192, 256), n_ranks=256, strategy="fusion",
            device="gpu")
        assert len(plans) == 256
        assert all(not p.failed for p in plans)
        assert max(p.mem_high_water for p in plans) < 3 * 2**30
        # every plan used the fusion single-kernel path
        assert all(p.counts.kernel_execs == 1 for p in plans)

    def test_reduced_scale_plan(self):
        plans = plan_distributed(
            vortex.VORTICITY_MAGNITUDE, global_dims=(8, 8, 8),
            block_dims=(4, 4, 4), n_ranks=4, strategy="staged",
            device="cpu")
        assert len(plans) == 4
        assert all(p.counts.kernel_execs == 18 for p in plans)


class TestOutOfCoreDistributed:
    def test_store_backed_run_matches_global(self, tmp_path, global_ds,
                                             small_fields):
        """Bricks + disk-assembled ghosts + simulated MPI reproduce the
        single-device global result exactly, with no global arrays in any
        rank."""
        from repro.io import write_decomposed, DecomposedReader
        from repro.par import run_distributed_from_store

        write_decomposed(global_ds, (3, 7, 4), tmp_path / "bricks")
        store = DecomposedReader(tmp_path / "bricks")
        result = run_distributed_from_store(
            vortex.Q_CRITERION, store, n_ranks=4, strategy="fusion",
            device="gpu")
        expected = vortex.q_criterion_reference(
            *[small_fields[k] for k in
              ("u", "v", "w", "dims", "x", "y", "z")])
        np.testing.assert_allclose(result.field, expected, rtol=1e-12,
                                   atol=1e-12)
        assert result.n_ranks == 4

    def test_store_backed_run_equals_in_memory_bitwise(self, tmp_path):
        """Where a rank's blocks come from changes nothing: bricks read
        from disk give the in-memory run's field, per-rank accounting
        and global statistics bit for bit."""
        from repro.io import write_decomposed, DecomposedReader
        from repro.par import run_distributed_from_store
        from repro.workloads import SubGrid, make_fields

        fields = make_fields(SubGrid(12, 14, 16), seed=5)
        dataset = RectilinearDataset(
            x=fields["x"], y=fields["y"], z=fields["z"],
            cell_fields={k: fields[k] for k in ("u", "v", "w")})
        write_decomposed(dataset, (6, 7, 8), tmp_path / "bricks")
        stored = run_distributed_from_store(
            vortex.Q_CRITERION, DecomposedReader(tmp_path / "bricks"),
            n_ranks=4)
        memory = run_distributed(vortex.Q_CRITERION, dataset,
                                 block_dims=(6, 7, 8), n_ranks=4)
        assert stored.field.tobytes() == memory.field.tobytes()
        assert stored.rank_stats == memory.rank_stats
        assert (stored.field_min, stored.field_max, stored.field_sum) == \
            (memory.field_min, memory.field_max, memory.field_sum)

    def test_too_many_ranks_rejected(self, tmp_path, global_ds):
        from repro.io import write_decomposed, DecomposedReader
        from repro.par import run_distributed_from_store

        write_decomposed(global_ds, (6, 7, 8), tmp_path / "bricks")
        store = DecomposedReader(tmp_path / "bricks")
        with pytest.raises(MPIError, match="reduce ranks"):
            run_distributed_from_store(vortex.VELOCITY_MAGNITUDE, store,
                                       n_ranks=5)
