"""Acceptance tests for the subsystem instrumentation: the registry's
paper-facing families must agree exactly with the per-run reports the
``clsim`` layer already produces — the per-device peak-bytes gauge with
the Fig 6 high-water mark, and the transfer/kernel counters with the
Table II event counts, for all three strategies."""

import pytest

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.host.engine import DerivedFieldEngine
from repro.metrics import MetricsRegistry, set_registry
from repro.workloads import SubGrid, make_fields

# (Dev-W, Dev-R, K-Exe) for q_criterion, verbatim from Table II.
TABLE_II_QCRIT = {
    "roundtrip": (123, 57, 57),
    "staged": (7, 1, 67),
    "fusion": (7, 1, 1),
}


@pytest.fixture
def registry():
    """A fresh default registry; engines built inside the test bind to
    it, and the process-wide one is restored afterwards."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture
def inputs():
    fields = make_fields(SubGrid(8, 8, 12), seed=0)
    return {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}


def warm_run(registry, inputs, strategy, device="gpu", backend=None):
    """Cold + warm q_criterion execute; returns (engine, warm report)."""
    engine = DerivedFieldEngine(device=device, strategy=strategy,
                                backend=backend)
    compiled = engine.compile(EXPRESSIONS["q_criterion"])
    engine.execute(compiled, inputs)
    report = engine.execute(compiled, inputs)
    assert report.cache is not None and report.cache.hit
    return engine, report


@pytest.mark.parametrize("strategy", sorted(TABLE_II_QCRIT))
class TestPaperFamilies:
    def test_peak_bytes_gauge_is_fig6_high_water(self, registry, inputs,
                                                 strategy):
        engine, report = warm_run(registry, inputs, strategy)
        device = engine.device_spec.name
        assert registry.value("repro_clsim_peak_bytes",
                              device=device) == report.mem_high_water
        assert report.mem_high_water > 0

    def test_event_counters_are_table2_counts(self, registry, inputs,
                                              strategy):
        engine, report = warm_run(registry, inputs, strategy)
        device = engine.device_spec.name
        writes, reads, kernels = TABLE_II_QCRIT[strategy]
        assert report.counts.as_row() == (writes, reads, kernels)
        # Counters are cumulative over the cold + warm runs; each run
        # contributes identical structural counts.
        assert registry.value("repro_clsim_transfers_total",
                              device=device,
                              direction="write") == 2 * writes
        assert registry.value("repro_clsim_transfers_total",
                              device=device,
                              direction="read") == 2 * reads
        assert registry.value("repro_clsim_kernel_launches_total",
                              device=device) == 2 * kernels

    def test_transfer_bytes_accumulate(self, registry, inputs,
                                       strategy):
        engine, report = warm_run(registry, inputs, strategy)
        device = engine.device_spec.name
        written = registry.value("repro_clsim_transfer_bytes_total",
                                 device=device, direction="write")
        read = registry.value("repro_clsim_transfer_bytes_total",
                              device=device, direction="read")
        assert written > 0
        # Every strategy reads the final result back once per run;
        # roundtrip reads every intermediate as well.
        result_bytes = 2 * report.output.nbytes
        if strategy == "roundtrip":
            assert read > result_bytes
        else:
            assert read == result_bytes


class TestEnginePhaseFamilies:
    def test_execute_counters_split_by_cache_disposition(self, registry,
                                                         inputs):
        warm_run(registry, inputs, "fusion")
        assert registry.value("repro_engine_execute_total",
                              cache="miss") == 1
        assert registry.value("repro_engine_execute_total",
                              cache="hit") == 1
        assert registry.value("repro_engine_execute_total",
                              cache="uncached") == 0
        histogram = registry.get("repro_engine_execute_duration_seconds")
        assert histogram.labels(cache="miss").count == 1
        assert histogram.labels(cache="hit").count == 1

    def test_compile_counted_once_for_cached_expression(self, registry,
                                                        inputs):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        engine.compile(EXPRESSIONS["q_criterion"])
        engine.compile(EXPRESSIONS["q_criterion"])   # expression-cache hit
        assert registry.value("repro_engine_compile_total") == 1
        assert registry.get(
            "repro_engine_compile_duration_seconds").count == 1

    def test_prepare_counted(self, registry, inputs):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        engine.prepare(EXPRESSIONS["q_criterion"], inputs)
        assert registry.value("repro_engine_prepare_total") == 1


class TestCacheAndPoolFamilies:
    def test_plancache_counters_accumulate(self, registry, inputs):
        warm_run(registry, inputs, "fusion")
        assert registry.value("repro_plancache_misses_total") == 1
        assert registry.value("repro_plancache_hits_total") == 1

    def test_pool_reuse_on_warm_run(self, registry, inputs):
        # Pinned to the interpreter backend: compiled plans never touch
        # device buffers, so only interpreter runs exercise the pool.
        engine, _ = warm_run(registry, inputs, "fusion",
                             backend="vectorized")
        device = engine.device_spec.name
        # The warm run acquires every buffer from the pool.
        assert registry.value("repro_clsim_pool_hits_total",
                              device=device) > 0
        assert registry.value("repro_clsim_pool_reused_bytes_total",
                              device=device) > 0

    def test_allocated_bytes_returns_to_pool_level(self, registry,
                                                   inputs):
        engine, _ = warm_run(registry, inputs, "fusion")
        device = engine.device_spec.name
        allocated = registry.value("repro_clsim_allocated_bytes",
                                   device=device)
        peak = registry.value("repro_clsim_peak_bytes", device=device)
        assert 0 <= allocated <= peak


def test_dry_run_events_are_counted(registry):
    """The observer hook covers the dry-run shape path too."""
    from repro.strategies import FusionStrategy, plan
    from repro.strategies.bindings import ArraySpec
    import numpy as np
    fields = make_fields(SubGrid(8, 8, 12), seed=0)
    shapes = {k: ArraySpec(fields[k].shape, np.dtype(fields[k].dtype))
              for k in EXPRESSION_INPUTS["q_criterion"]}
    compiled = DerivedFieldEngine().compile(EXPRESSIONS["q_criterion"])
    result = plan(FusionStrategy(), shapes, "gpu",
                  network=compiled.network)
    device = result.device
    assert registry.value("repro_clsim_kernel_launches_total",
                          device=device) == result.counts.kernel_execs
    assert registry.value("repro_clsim_transfers_total", device=device,
                          direction="write") == result.counts.dev_writes
