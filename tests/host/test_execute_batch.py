"""One keyed launch path: a solo request is a batch of one.

``execute_batch([p])`` must be indistinguishable from
``execute_prepared(p)`` — report, warm event log, and registry deltas —
and each member of a coalesced batch must equal its own solo run.
"""

import dataclasses

import pytest

from repro.analysis import vortex
from repro.errors import HostInterfaceError
from repro.host import DerivedFieldEngine
from repro.metrics import MetricsRegistry, set_registry
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(6, 7, 8)
CONFIGS = [("fusion", "compiled"), ("fusion", "vectorized"),
           ("staged", None), ("roundtrip", None)]


def registry_state(registry):
    """Every counter/gauge value and histogram count.  Histogram sums are
    wall durations, which differ run to run, so they are left out."""
    state = {}
    for name, family in registry.snapshot().items():
        for sample in family["samples"]:
            key = (name, tuple(sorted(sample["labels"].items())))
            state[key] = sample.get("value", sample.get("count"))
    return state


def registry_delta(before, after):
    return {key: value - before.get(key, 0)
            for key, value in after.items()
            if value != before.get(key, 0)}


def modeled(timing):
    """A timing summary without its host wall seconds."""
    return dataclasses.replace(timing, wall=0.0)


def warm_run(strategy, backend, fields, call, *, plan_cache=True):
    """Build an engine on a fresh registry, warm its plan cache, then
    return one more ``call(engine, prepared)``'s report, warm event log
    (wall seconds zeroed), and registry delta."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        engine = DerivedFieldEngine(device="cpu", strategy=strategy,
                                    backend=backend, plan_cache=plan_cache)
        prepared = engine.prepare(vortex.Q_CRITERION, fields)
        call(engine, prepared)
        before = registry_state(registry)
        report = call(engine, prepared)
        delta = registry_delta(before, registry_state(registry))
        env = engine.environment
        events = ([] if env is None else
                  [dataclasses.replace(e, wall_seconds=0.0)
                   for e in env.queue.log.events])
        return report, events, delta
    finally:
        set_registry(previous)


def solo(engine, prepared):
    return engine.execute_prepared(prepared)


def batch_of_one(engine, prepared):
    result = engine.execute_batch([prepared])
    assert len(result.reports) == 1
    return result.reports[0]


def assert_same_report(got, want):
    assert got.output.tobytes() == want.output.tobytes()
    assert got.strategy == want.strategy
    assert got.counts == want.counts
    assert modeled(got.timing) == modeled(want.timing)
    assert got.mem_high_water == want.mem_high_water
    assert got.generated_sources == want.generated_sources
    assert got.codegen == want.codegen


@pytest.fixture(scope="module")
def fields():
    return make_fields(GRID, seed=7)


class TestBatchOfOne:
    @pytest.mark.parametrize("strategy,backend", CONFIGS)
    def test_equals_execute_prepared(self, fields, strategy, backend):
        want, want_events, want_delta = warm_run(strategy, backend,
                                                 fields, solo)
        got, got_events, got_delta = warm_run(strategy, backend, fields,
                                              batch_of_one)
        assert_same_report(got, want)
        assert got.cache == want.cache
        assert got.alloc == want.alloc
        assert got_events == want_events
        assert got_delta == want_delta

    def test_unkeyed_request_takes_the_uncached_path(self, fields):
        want, _, want_delta = warm_run("fusion", None, fields, solo,
                                       plan_cache=False)
        got, _, got_delta = warm_run("fusion", None, fields,
                                     batch_of_one, plan_cache=False)
        assert got.cache is None
        assert_same_report(got, want)
        assert got.alloc == want.alloc
        assert got_delta == want_delta

    def test_unkeyed_batch_reports_no_cache_outcome(self, fields):
        engine = DerivedFieldEngine(device="cpu", plan_cache=False)
        prepared = engine.prepare(vortex.Q_CRITERION, fields)
        assert engine.execute_batch([prepared]).hit is None


class TestCoalescedBatch:
    @pytest.mark.parametrize("strategy,backend", CONFIGS)
    def test_members_equal_their_solo_runs(self, strategy, backend):
        members = [make_fields(GRID, seed=seed) for seed in range(4)]
        batched = DerivedFieldEngine(device="cpu", strategy=strategy,
                                     backend=backend)
        reference = DerivedFieldEngine(device="cpu", strategy=strategy,
                                       backend=backend)
        prepared = [batched.prepare(vortex.Q_CRITERION, f)
                    for f in members]
        batched.execute_prepared(prepared[0])        # warm both caches
        reference.execute_prepared(prepared[0])
        result = batched.execute_batch(prepared)
        assert result.hit is True
        assert len(result.reports) == len(members)
        for member, p in zip(result.reports, prepared):
            assert_same_report(member, reference.execute_prepared(p))
        # The coalesced launch amortizes per-launch overhead.
        solo_total = sum(r.timing.total for r in result.reports)
        assert 0 < result.modeled_seconds < solo_total

    def test_rejects_mixed_keys_and_empty_batches(self, fields):
        engine = DerivedFieldEngine(device="cpu")
        q = engine.prepare(vortex.Q_CRITERION, fields)
        v = engine.prepare(vortex.VELOCITY_MAGNITUDE, fields)
        with pytest.raises(HostInterfaceError):
            engine.execute_batch([q, v])
        with pytest.raises(ValueError):
            engine.execute_batch([])
