"""A plan's modeled run is one fold, computed once per device: the
compiled warm path records it without replaying or re-stamping events,
a coalesced batch of compiled members captures nothing, and every
reader — a compiled report, the disk entry, the planner — sees the same
events, counts, timing and peak a live run on a fresh environment
does."""

import dataclasses
import sys
import threading

import pytest

import repro.host.engine as engine_mod
from repro.analysis import vortex
from repro.clsim import queue as queue_mod
from repro.clsim.device import NVIDIA_M2050_GPU
from repro.clsim.environment import CLEnvironment
from repro.clsim.events import EventLog
from repro.codegen import CompiledPlan
from repro.errors import CLOutOfMemoryError, CodegenError
from repro.host import DerivedFieldEngine
from repro.strategies import get_strategy
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(6, 7, 8)


@pytest.fixture(scope="module")
def fields():
    return make_fields(GRID, seed=7)


def base_plan(fields, strategy="fusion"):
    """An interpreter plan for q_criterion, and its bindings."""
    network = DerivedFieldEngine().compile(vortex.Q_CRITERION).network
    chosen = get_strategy(strategy)
    bindings, n, dtype = chosen.prepare(network, fields)
    return chosen.build_plan(network, bindings, n, dtype), bindings


def calls_to(functions, action):
    """Run ``action()`` and count the calls it makes to each function."""
    codes = {fn.__code__: name for name, fn in functions.items()}
    counts = dict.fromkeys(functions, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


class TestWarmCompiledLaunch:
    def test_records_the_fold_without_replaying_it(self, fields):
        engine = DerivedFieldEngine(device="cpu", backend="compiled")
        prepared = engine.prepare(vortex.Q_CRITERION, fields)
        engine.execute_prepared(prepared)
        calls = calls_to({"record": EventLog.record,
                          "replace": dataclasses.replace},
                         lambda: engine.execute_prepared(prepared))
        assert calls == {"record": 0, "replace": 0}

    def test_report_and_log_are_the_fold(self, fields):
        engine = DerivedFieldEngine(device="cpu", backend="compiled")
        prepared = engine.prepare(vortex.Q_CRITERION, fields)
        engine.execute_prepared(prepared)
        report = engine.execute_prepared(prepared)
        plan = engine.plan_cache.get(prepared.key)
        fold = plan.fold
        assert isinstance(plan, CompiledPlan)
        assert report.counts == fold.counts
        assert report.mem_high_water == fold.peak
        assert report.timing == dataclasses.replace(
            fold.timing, wall=report.timing.wall)
        env = engine.environment
        logged = [dataclasses.replace(e, wall_seconds=0.0)
                  for e in env.queue.log.events]
        assert logged == list(fold.events)
        assert env.timing() == report.timing

    def test_batch_of_compiled_members_builds_no_queue(self, fields,
                                                       monkeypatch):
        engine = DerivedFieldEngine(device="cpu", backend="compiled")
        prepared = [engine.prepare(vortex.Q_CRITERION,
                                   make_fields(GRID, seed=seed))
                    for seed in range(4)]
        engine.execute_prepared(prepared[0])
        built = []
        init = queue_mod.CommandQueue.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(queue_mod.CommandQueue, "__init__", counting)
        result = engine.execute_batch(prepared)
        assert built == []
        assert len(result.reports) == 4
        # The warm log holds the one coalesced timeline.
        fold = engine.plan_cache.get(prepared[0].key).fold
        logged = engine.environment.queue.log.events
        assert [e.name for e in logged] == \
            [f"{e.name}[x4]" for e in fold.events]
        assert engine.environment.timing().total == result.modeled_seconds


class TestFold:
    def test_concurrent_requests_share_one_fold(self, fields):
        plan, _ = base_plan(fields)
        barrier = threading.Barrier(8)
        folds = []

        def ask():
            barrier.wait(timeout=10)
            folds.append(plan.modeled(NVIDIA_M2050_GPU))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(folds) == 8
        assert all(fold is folds[0] for fold in folds)
        assert folds[0] == base_plan(fields)[0].modeled(NVIDIA_M2050_GPU)

    @pytest.mark.parametrize("strategy", ["roundtrip", "staged", "fusion"])
    def test_equals_a_live_run_on_a_fresh_environment(self, fields,
                                                      strategy):
        plan, bindings = base_plan(fields, strategy)
        # A launch only computes: it records nothing, and its live
        # allocator peaks where the fold does.
        live = CLEnvironment(NVIDIA_M2050_GPU)
        plan.launch(bindings, live)
        fold = plan.modeled(NVIDIA_M2050_GPU)
        assert fold.error is None
        assert live.event_counts().as_row() == (0, 0, 0)
        assert fold.peak == live.mem_high_water
        # The fold is the dry walk's log, folded (the walk's events are
        # pinned against live runs in pinned_traces.json).
        env = CLEnvironment(NVIDIA_M2050_GPU)
        plan.model(env.context.allocator, env.queue.log)
        assert fold.counts == env.event_counts()
        assert fold.timing == env.timing()
        assert fold.peak == env.mem_high_water
        assert list(fold.events) == env.queue.log.events

    def test_too_small_a_device_folds_the_failure(self, fields):
        plan, _ = base_plan(fields)
        full = plan.modeled(NVIDIA_M2050_GPU)
        tiny = dataclasses.replace(NVIDIA_M2050_GPU,
                                   global_mem_bytes=full.peak - 1)
        fold = plan.modeled(tiny)
        assert isinstance(fold.error, CLOutOfMemoryError)
        assert len(fold.events) < len(full.events)
        assert fold.peak < full.peak

    def test_disk_entry_rebuilds_the_same_fold(self, fields):
        engine = DerivedFieldEngine(device="cpu", backend="compiled")
        prepared = engine.prepare(vortex.Q_CRITERION, fields)
        engine.execute_prepared(prepared)
        plan = engine.plan_cache.get(prepared.key)
        rebuilt = CompiledPlan.from_entry(
            plan.entry(), prepared.compiled.network.registry)
        assert rebuilt.fold == plan.fold


def test_fig6_peak_semantics(fields):
    """The warm interpreter report gives the pooled allocator's peak
    (size-class capacities); the compiled and uncached paths give the
    schedule's unpooled peak."""
    def warm(backend):
        engine = DerivedFieldEngine(device="cpu", backend=backend)
        engine.execute(vortex.Q_CRITERION, fields)
        return engine.execute(vortex.Q_CRITERION, fields).mem_high_water

    uncached = DerivedFieldEngine(device="cpu", plan_cache=False).execute(
        vortex.Q_CRITERION, fields).mem_high_water
    assert warm("vectorized") == 16704
    assert warm("compiled") == uncached == 10956


def test_compiled_peak_counts_a_fallback_plans_pooled_buffers(
        fields, monkeypatch):
    """A compiled report's peak is the warm allocator's: buffers the
    pool parks for an interpreter-fallback plan count, as they do for a
    live launch, so the report agrees with the environment."""
    compile_plan = engine_mod.compile_plan
    calls = []

    def first_falls_back(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise CodegenError("forced fallback")
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "compile_plan", first_falls_back)
    engine = DerivedFieldEngine(device="cpu", backend="compiled")
    fallback = engine.execute(vortex.Q_CRITERION, fields)
    assert fallback.codegen.disposition == "interpreter-fallback"
    prepared = engine.prepare(vortex.VELOCITY_MAGNITUDE, fields)
    for disposition in ("cold-codegen", "memory-hit"):
        report = engine.execute_prepared(prepared)
        assert report.codegen.disposition == disposition
        assert report.mem_high_water == 16704
        assert report.mem_high_water == engine.environment.mem_high_water
    assert engine.plan_cache.get(prepared.key).fold.peak == 10752
    batch = engine.execute_batch([prepared] * 3)
    assert [r.mem_high_water for r in batch.reports] == [16704] * 3
