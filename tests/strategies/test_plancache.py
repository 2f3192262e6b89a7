"""Warm-execution layer: plan cache keys, LRU policy, engine integration,
and the cold/warm equivalence guarantees."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import vortex
from repro.clsim.device import INTEL_X5660_CPU, NVIDIA_M2050_GPU
from repro.clsim.environment import CLEnvironment
from repro.errors import CLOutOfMemoryError
from repro.expr.lower import lower
from repro.expr.parser import parse
from repro.dataflow.network import Network
from repro.host.engine import DerivedFieldEngine
from repro.strategies import get_strategy
from repro.strategies.bindings import normalize, problem_size
from repro.strategies.plancache import (PlanCache, network_signature,
                                        plan_key)

STRATEGIES = ("roundtrip", "staged", "fusion")


def _network(text: str) -> Network:
    spec, kinds = lower(parse(text))
    return Network(spec, source_kinds=kinds)


def _key(text: str, fields, strategy="fusion", device=INTEL_X5660_CPU,
         backend="vectorized", dtype=None):
    network = _network(text)
    bindings = normalize(fields, network.live_sources())
    n, inferred = problem_size(bindings)
    return plan_key(network, get_strategy(strategy), bindings, n,
                    dtype or np.dtype(inferred), device, backend)[0]


class TestNetworkSignature:
    def test_identical_structure_different_names_share(self):
        sig_a, sources_a = network_signature(_network("t = u * v"))
        sig_b, sources_b = network_signature(_network("s = p * q"))
        assert sig_a == sig_b
        assert sources_a != sources_b  # names differ, structure does not

    def test_different_structure_differs(self):
        sig_mul, _ = network_signature(_network("a = u * v"))
        sig_add, _ = network_signature(_network("a = u + v"))
        assert sig_mul != sig_add

    def test_const_value_in_signature(self):
        sig_2, _ = network_signature(_network("a = u * 2.0"))
        sig_3, _ = network_signature(_network("a = u * 3.0"))
        assert sig_2 != sig_3

    def test_memoized_on_network(self):
        network = _network("a = u + v")
        assert network_signature(network) is network_signature(network)


class TestPlanKeyInvalidation:
    def test_dtype_change_misses(self, rng):
        f64 = {"u": rng.standard_normal(32)}
        f32 = {"u": rng.standard_normal(32).astype(np.float32)}
        assert _key("a = sqrt(u)", f64) != _key("a = sqrt(u)", f32)

    def test_element_count_change_misses(self, rng):
        k32 = _key("a = sqrt(u)", {"u": rng.standard_normal(32)})
        k64 = _key("a = sqrt(u)", {"u": rng.standard_normal(64)})
        assert k32 != k64

    def test_device_change_misses(self, rng):
        fields = {"u": rng.standard_normal(32)}
        cpu = _key("a = sqrt(u)", fields, device=INTEL_X5660_CPU)
        gpu = _key("a = sqrt(u)", fields, device=NVIDIA_M2050_GPU)
        assert cpu != gpu

    def test_strategy_change_misses(self, rng):
        fields = {"u": rng.standard_normal(32)}
        assert _key("a = sqrt(u)", fields, strategy="roundtrip") != \
            _key("a = sqrt(u)", fields, strategy="staged")

    def test_strategy_option_change_misses(self, rng):
        """A strategy knob folded into plan_token() must invalidate."""
        from repro.strategies import FusionStrategy

        class TunedFusion(FusionStrategy):
            def __init__(self, width):
                self.width = width

            def plan_token(self):
                return (self.name, self.width)

        network = _network("a = sqrt(u)")
        bindings = normalize({"u": rng.standard_normal(32)},
                             network.live_sources())
        n, dtype = problem_size(bindings)
        keys = {plan_key(network, TunedFusion(w), bindings, n,
                         np.dtype(dtype), INTEL_X5660_CPU,
                         "vectorized")[0] for w in (2, 4)}
        assert len(keys) == 2

    def test_backend_change_misses(self, rng):
        fields = {"u": rng.standard_normal(32)}
        assert _key("a = sqrt(u)", fields, backend="vectorized") != \
            _key("a = sqrt(u)", fields, backend="interpreted")

    def test_source_shape_change_misses(self, rng):
        """Same element count, different bound array shapes (e.g. the
        same cell count with different coordinate-array sizes)."""
        flat = _key("a = sqrt(u)", {"u": rng.standard_normal(32)})
        square = _key("a = sqrt(u)",
                      {"u": rng.standard_normal(32).reshape(8, 4)})
        assert flat != square


class TestPlanCacheLRU:
    def test_hit_miss_eviction_counters(self):
        cache = PlanCache(maxsize=2)
        k1, k2, k3 = "k1", "k2", "k3"
        assert cache.get(k1) is None          # miss
        cache.put(k1, "plan1")
        cache.put(k2, "plan2")
        assert cache.get(k1) == "plan1"       # hit; k1 now most recent
        cache.put(k3, "plan3")                # evicts k2 (LRU)
        assert k2 not in cache
        assert k1 in cache and k3 in cache
        info = cache.info(hit=False)
        assert (info.hits, info.misses, info.evictions) == (1, 1, 1)
        assert info.size == 2 and info.maxsize == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestEngineWarmPath:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_warm_bitwise_equals_cold(self, strategy, small_fields):
        cold = DerivedFieldEngine(device="cpu", strategy=strategy,
                                  plan_cache=False)
        warm = DerivedFieldEngine(device="cpu", strategy=strategy)
        cold_report = cold.execute(vortex.Q_CRITERION, small_fields)
        warm.execute(vortex.Q_CRITERION, small_fields)   # populate
        warm_report = warm.execute(vortex.Q_CRITERION, small_fields)
        assert warm_report.cache is not None and warm_report.cache.hit
        np.testing.assert_array_equal(cold_report.output,
                                      warm_report.output)
        # The warm run replays the identical transfer/launch sequence, so
        # every modeled observable matches the cold run exactly.
        assert warm_report.counts == cold_report.counts
        assert warm_report.timing.total == cold_report.timing.total
        assert warm_report.generated_sources == \
            cold_report.generated_sources

    def test_first_run_miss_then_hits(self, small_fields):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        first = engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        assert first.cache is not None
        assert not first.cache.hit and first.cache.misses == 1
        second = engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        assert second.cache.hit and second.cache.hits == 1
        assert second.cache.size == 1

    def test_structural_sharing_across_names(self, rng):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        u, v = rng.standard_normal(64), rng.standard_normal(64)
        first = engine.execute("t = u * v", {"u": u, "v": v})
        assert not first.cache.hit
        p, q = rng.standard_normal(64), rng.standard_normal(64)
        second = engine.execute("s = p * q", {"p": p, "q": q})
        assert second.cache.hit  # same structure, names erased
        np.testing.assert_array_equal(second.output, p * q)

    def test_new_arrays_each_timestep(self, rng):
        """The in-situ pattern: one plan, fresh data every step."""
        engine = DerivedFieldEngine(device="cpu", strategy="staged")
        compiled = engine.compile("a = u * u + v")
        for _ in range(3):
            u, v = rng.standard_normal(48), rng.standard_normal(48)
            out = engine.derive(compiled, {"u": u, "v": v})
            np.testing.assert_array_equal(out, u * u + v)

    def test_pool_recycles_reservations(self, small_fields):
        # Pinned to the interpreter backend: compiled plans never touch
        # device buffers, so only interpreter runs exercise the pool.
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend="vectorized")
        engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        report = engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        alloc = report.alloc
        assert alloc.reused_allocations > 0
        assert alloc.pool_hits > 0
        assert alloc.pooled_bytes > 0      # parked again after the run
        assert alloc.live_bytes == 0       # nothing left alive

    def test_cache_disabled_matches_seed_behavior(self, small_fields):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    plan_cache=False)
        report = engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        assert report.cache is None
        assert report.alloc is not None
        assert report.alloc.reused_allocations == 0

    def test_lru_bound_evicts_through_engine(self, rng):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    plan_cache=2)
        u = rng.standard_normal(32)
        engine.execute("a = u + 1.0", {"u": u})
        engine.execute("a = u + 2.0", {"u": u})
        report = engine.execute("a = u + 3.0", {"u": u})
        assert report.cache.evictions == 1
        assert report.cache.size == 2
        # The first expression was evicted: re-running it misses again.
        report = engine.execute("a = u + 1.0", {"u": u})
        assert not report.cache.hit


class TestErrorPathRelease:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_oom_mid_run_leaks_nothing(self, strategy, rng):
        """A failed execution must release every buffer it allocated
        (the try/finally fix) so later accounting is not skewed."""
        tiny = dataclasses.replace(NVIDIA_M2050_GPU, name="tiny",
                                   global_mem_bytes=2048)
        env = CLEnvironment(tiny)
        fields = {"u": rng.standard_normal(96),
                  "v": rng.standard_normal(96)}
        net = _network("a = sqrt(u * u + v * v)")
        with pytest.raises(CLOutOfMemoryError):
            get_strategy(strategy).execute(net, fields, env)
        assert env.mem_in_use == 0
        # The environment is still usable at a size that fits.
        small = {"u": rng.standard_normal(8), "v": rng.standard_normal(8)}
        report = get_strategy(strategy).execute(net, small, env)
        assert report.output is not None
        assert env.mem_in_use == 0
