"""Tests for the future-work strategies: mesh-aware chunking, streaming
fusion, and multi-device execution (paper Section VI)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import vortex
from repro.clsim import CLEnvironment
from repro.errors import StrategyError
from repro.host import DerivedFieldEngine
from repro.strategies import (MultiDeviceStrategy, StreamingFusionStrategy,
                              discover_mesh, plan_chunks)
from repro.strategies.chunking import assemble, chunk_bindings
from repro.workloads import SubGrid, make_fields


@pytest.fixture(scope="module")
def grid():
    return SubGrid(12, 10, 8)


@pytest.fixture(scope="module")
def fields(grid):
    return make_fields(grid, seed=13)


@pytest.fixture(scope="module")
def q_reference(fields):
    return vortex.q_criterion_reference(
        *[fields[k] for k in ("u", "v", "w", "dims", "x", "y", "z")])


class TestMeshDiscovery:
    def test_full_mesh(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        assert layout.has_mesh
        assert layout.dims == grid.dims
        assert layout.dims_name == "dims"
        assert layout.coord_names == ("x", "y", "z")
        assert set(layout.field_names) == {"u", "v", "w"}

    def test_pointwise_problem(self, fields, grid):
        pointwise = {k: fields[k] for k in ("u", "v", "w")}
        layout = discover_mesh(pointwise, grid.n_cells)
        assert not layout.has_mesh
        assert layout.dims == (grid.n_cells, 1, 1)

    def test_dims_mismatch_rejected(self, fields):
        bad = dict(fields)
        bad["dims"] = np.array([2, 2, 2], np.int32)
        with pytest.raises(StrategyError, match="dims"):
            discover_mesh(bad, fields["u"].size)

    def test_missing_coordinate_rejected(self, fields, grid):
        bad = dict(fields)
        bad["x"] = bad["x"][:-2]  # wrong length for every axis
        with pytest.raises(StrategyError, match="coordinate"):
            discover_mesh(bad, grid.n_cells)


class TestChunkPlanning:
    def test_chunks_cover_axis(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        chunks = plan_chunks(layout, 4, halo=1)
        assert chunks[0].start == 0 and chunks[-1].stop == grid.ni
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start

    def test_halo_clipped_at_boundary(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        chunks = plan_chunks(layout, 3, halo=1)
        assert chunks[0].halo_lo == 0
        assert chunks[-1].halo_hi == 0
        assert chunks[1].halo_lo == chunks[1].halo_hi == 1

    def test_more_chunks_than_layers(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        chunks = plan_chunks(layout, 99, halo=0)
        assert len(chunks) == grid.ni
        assert all(c.owned == 1 for c in chunks)

    def test_chunk_bindings_shapes(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        (chunk,) = [c for c in plan_chunks(layout, 3, halo=1)
                    if c.halo_lo and c.halo_hi]
        sub = chunk_bindings(fields, layout, chunk)
        span = chunk.owned + 2
        assert sub["u"].size == span * grid.nj * grid.nk
        assert sub["dims"].tolist() == [span, grid.nj, grid.nk]
        assert sub["x"].size == span + 1
        np.testing.assert_array_equal(sub["y"], fields["y"])

    def test_assemble_round_trips(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        chunks = plan_chunks(layout, 4, halo=1)
        pieces = [(c, chunk_bindings(fields, layout, c)["u"])
                  for c in chunks]
        np.testing.assert_array_equal(
            assemble(pieces, layout), fields["u"])

    def test_zero_chunks_rejected(self, fields, grid):
        layout = discover_mesh(fields, grid.n_cells)
        with pytest.raises(StrategyError):
            plan_chunks(layout, 0, halo=1)


class TestStreamingStrategy:
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 6, 12])
    def test_matches_reference_for_all_chunk_counts(self, n_chunks,
                                                    fields, q_reference):
        engine = DerivedFieldEngine(
            device="gpu", strategy=StreamingFusionStrategy(n_chunks))
        out = engine.derive(vortex.Q_CRITERION, fields)
        np.testing.assert_allclose(out, q_reference, rtol=1e-12,
                                   atol=1e-12)

    def test_pointwise_expression(self, fields):
        engine = DerivedFieldEngine(
            device="gpu", strategy=StreamingFusionStrategy(5))
        out = engine.derive(vortex.VELOCITY_MAGNITUDE,
                            {k: fields[k] for k in ("u", "v", "w")})
        np.testing.assert_array_equal(
            out, vortex.velocity_magnitude_reference(
                fields["u"], fields["v"], fields["w"]))

    def test_memory_bounded_by_chunk(self, fields):
        """Serial streaming (pipeline_depth=1) holds one chunk working
        set; the default double buffering (depth=2) pays at most two of
        them for the transfer/compute overlap — still below fused."""
        fused = DerivedFieldEngine(device="gpu", strategy="fusion")
        serial = DerivedFieldEngine(
            device="gpu",
            strategy=StreamingFusionStrategy(4, pipeline_depth=1))
        buffered = DerivedFieldEngine(
            device="gpu", strategy=StreamingFusionStrategy(4))
        mem_f = fused.execute(vortex.Q_CRITERION, fields).mem_high_water
        mem_1 = serial.execute(vortex.Q_CRITERION, fields).mem_high_water
        mem_2 = buffered.execute(vortex.Q_CRITERION, fields).mem_high_water
        assert mem_1 < 0.5 * mem_f
        assert mem_1 <= mem_2 <= 2 * mem_1
        assert mem_2 < mem_f

    def test_kernel_per_chunk(self, fields):
        engine = DerivedFieldEngine(
            device="gpu", strategy=StreamingFusionStrategy(4))
        report = engine.execute(vortex.Q_CRITERION, fields)
        assert report.counts.kernel_execs == 4
        assert report.counts.dev_reads == 4

    def test_dry_run_plans_what_executes(self, fields):
        from repro.strategies import ArraySpec, plan
        network = DerivedFieldEngine().compile(vortex.Q_CRITERION).network
        shapes = {k: ArraySpec(v.shape, v.dtype)
                  for k, v in fields.items()}
        planned = plan(StreamingFusionStrategy(2), shapes, "gpu",
                       network=network)
        report = StreamingFusionStrategy(2).execute(network, fields,
                                                    CLEnvironment("gpu"))
        assert not planned.failed
        assert planned.counts == report.counts
        assert planned.timing == dataclasses.replace(report.timing,
                                                     wall=0.0)
        assert planned.mem_high_water == report.mem_high_water
        with pytest.raises(StrategyError, match=r"plan\(\)"):
            StreamingFusionStrategy(2).execute(network, shapes,
                                               CLEnvironment("gpu"))

    def test_bad_chunk_count_rejected(self):
        with pytest.raises(StrategyError):
            StreamingFusionStrategy(0)

    def test_enables_otherwise_oversized_problem(self):
        """The streaming payoff: a problem whose fused form exceeds a tiny
        device limit still executes chunked."""
        import dataclasses
        from repro.clsim import NVIDIA_M2050_GPU
        from repro.dataflow import Network
        from repro.expr import lower, parse
        from repro.errors import CLOutOfMemoryError

        # room for ~3.5 problem-sized fields; fusion needs 4 (u,v,w,out)
        tiny_gpu = dataclasses.replace(
            NVIDIA_M2050_GPU, global_mem_bytes=110_000)
        grid = SubGrid(48, 10, 8)
        fields = make_fields(grid, seed=1)
        spec, _ = lower(parse(vortex.VELOCITY_MAGNITUDE))
        net = Network(spec)
        inputs = {k: fields[k] for k in ("u", "v", "w")}
        from repro.strategies import FusionStrategy
        with pytest.raises(CLOutOfMemoryError):
            FusionStrategy().execute(net, inputs, CLEnvironment(tiny_gpu))
        report = StreamingFusionStrategy(8).execute(
            net, inputs, CLEnvironment(tiny_gpu))
        np.testing.assert_array_equal(
            report.output, vortex.velocity_magnitude_reference(
                fields["u"], fields["v"], fields["w"]))


class TestMultiDeviceStrategy:
    def test_matches_reference(self, fields, q_reference):
        engine = DerivedFieldEngine(
            device="gpu",
            strategy=MultiDeviceStrategy(devices=("gpu", "gpu")))
        out = engine.derive(vortex.Q_CRITERION, fields)
        np.testing.assert_allclose(out, q_reference, rtol=1e-12,
                                   atol=1e-12)

    def test_heterogeneous_devices(self, fields, q_reference):
        engine = DerivedFieldEngine(
            device="gpu",
            strategy=MultiDeviceStrategy(devices=("gpu", "cpu")))
        out = engine.derive(vortex.Q_CRITERION, fields)
        np.testing.assert_allclose(out, q_reference, rtol=1e-12,
                                   atol=1e-12)

    def test_per_device_reports(self, fields):
        strategy = MultiDeviceStrategy(devices=("gpu", "gpu"))
        engine = DerivedFieldEngine(device="gpu", strategy=strategy)
        report = engine.execute(vortex.Q_CRITERION, fields)
        assert len(report.device_reports) == 2
        assert all(r.counts.kernel_execs == 1
                   for r in report.device_reports)

    def test_strategy_holds_no_per_run_state(self, fields):
        # device_reports lives on the report, not the strategy — one
        # instance is reusable across runs (and threads).
        strategy = MultiDeviceStrategy(devices=("gpu", "gpu"))
        assert not hasattr(strategy, "device_reports")
        engine = DerivedFieldEngine(device="gpu", strategy=strategy)
        first = engine.execute(vortex.Q_CRITERION, fields)
        second = engine.execute(vortex.Q_CRITERION, fields)
        assert not hasattr(strategy, "device_reports")
        assert len(first.device_reports) == len(second.device_reports) == 2

    def test_makespan_less_than_serial_sum(self, fields):
        strategy = MultiDeviceStrategy(devices=("gpu", "gpu"))
        engine = DerivedFieldEngine(device="gpu", strategy=strategy)
        report = engine.execute(vortex.Q_CRITERION, fields)
        serial = sum(r.timing.total for r in report.device_reports)
        assert report.timing.total < serial

    def test_timeline_makespan_is_slowest_device(self, fields):
        strategy = MultiDeviceStrategy(devices=("gpu", "gpu"))
        engine = DerivedFieldEngine(device="gpu", strategy=strategy)
        report = engine.execute(vortex.Q_CRITERION, fields)
        slowest = max(r.timing.makespan for r in report.device_reports)
        assert slowest > 0.0
        assert report.timing.makespan == slowest

    def test_memory_split_across_devices(self, fields):
        single = DerivedFieldEngine(device="gpu", strategy="fusion")
        dual = DerivedFieldEngine(
            device="gpu", strategy=MultiDeviceStrategy(("gpu", "gpu")))
        mem_1 = single.execute(vortex.Q_CRITERION, fields).mem_high_water
        mem_2 = dual.execute(vortex.Q_CRITERION, fields).mem_high_water
        assert mem_2 < 0.75 * mem_1

    def test_empty_devices_rejected(self):
        with pytest.raises(StrategyError):
            MultiDeviceStrategy(devices=())

    def test_registered_by_name(self, fields, q_reference):
        engine = DerivedFieldEngine(device="gpu", strategy="multi-device")
        out = engine.derive(vortex.Q_CRITERION, fields)
        np.testing.assert_allclose(out, q_reference, rtol=1e-12,
                                   atol=1e-12)


class TestExtensionsUnderInterpretedBackend:
    def test_streaming_interpreted(self, fields, q_reference):
        """The future-work strategies compose with the interpreted
        backend too: chunked kernels run from generated source."""
        engine = DerivedFieldEngine(
            device="gpu", strategy=StreamingFusionStrategy(3),
            backend="interpreted")
        out = engine.derive(vortex.Q_CRITERION, fields)
        np.testing.assert_allclose(out, q_reference, rtol=1e-12,
                                   atol=1e-12)

    def test_multidevice_interpreted(self, fields, q_reference):
        engine = DerivedFieldEngine(
            device="gpu", strategy=MultiDeviceStrategy(("gpu", "gpu")),
            backend="interpreted")
        out = engine.derive(vortex.Q_CRITERION, fields)
        np.testing.assert_allclose(out, q_reference, rtol=1e-12,
                                   atol=1e-12)
