"""A dry run is the op schedule's modeled walk: on shapes alone it must
reach exactly the peak, and fail with exactly the out-of-memory error,
that a live launch over same-shaped arrays does — for every strategy,
chunked ones included, and for the hand-written reference kernels — and
its events must be the ones pinned from live runs.  A launch only
computes, so the live side here is the launch and its allocator, never
the fold; a dry out-of-memory failure must leave the allocator where it
started."""

import dataclasses
import json

import pytest

from repro.analysis import vortex
from repro.clsim import CLEnvironment, NVIDIA_M2050_GPU
from repro.errors import CLOutOfMemoryError
from repro.host import DerivedFieldEngine
from repro.strategies import (ArraySpec, MultiDeviceStrategy,
                              ReferenceKernel, StreamingFusionStrategy,
                              get_strategy)
from repro.workloads import SubGrid, make_fields

from .test_pinned_traces import FIXTURE, LIVE_GRID, _events_digest


@pytest.fixture(scope="module")
def fields():
    return make_fields(SubGrid(8, 6, 5), seed=3)


def shapes_of(arrays):
    return {k: ArraySpec(v.shape, v.dtype) for k, v in arrays.items()}


CHUNKED = {
    **{f"streaming{n}x{depth}":
       (lambda n=n, depth=depth: StreamingFusionStrategy(n, depth))
       for n in (2, 4, 8) for depth in (1, 2)},
    "multi[gpu,gpu]": lambda: MultiDeviceStrategy(("gpu", "gpu")),
    "multi[cpu,gpu]": lambda: MultiDeviceStrategy(("cpu", "gpu")),
}


def builder_for(case):
    """``case`` is ``"<executor>-<expression>"``; returns
    ``build(arrays_or_shapes) -> (plan, bindings)``.  The reference
    kernels bind their own inputs, the strategies run the compiled
    network."""
    executor, expression = case.split("-", 1)
    if executor == "reference":
        kernel = ReferenceKernel(expression)

        def build_reference(arrays):
            bindings, n, dtype = kernel.prepare(arrays)
            return kernel.build_plan(bindings, n, dtype), bindings

        return build_reference
    strategy = (CHUNKED[executor]() if executor in CHUNKED
                else get_strategy(executor))
    network = DerivedFieldEngine().compile(
        vortex.EXPRESSIONS[expression]).network
    inputs = vortex.EXPRESSION_INPUTS[expression]

    def build(arrays):
        bindings, n, dtype = strategy.prepare(
            network, {k: arrays[k] for k in inputs})
        return strategy.build_plan(network, bindings, n, dtype), bindings

    return build


def walked(plan, device):
    """The dry walk on a fresh environment; returns (env, error)."""
    env = CLEnvironment(device)
    try:
        plan.model(env.context.allocator, env.queue.log)
    except CLOutOfMemoryError as exc:
        return env, str(exc)
    return env, None


def launched(plan, bindings, device):
    """A live launch on a fresh environment; returns (env, error)."""
    env = CLEnvironment(device)
    try:
        plan.launch(bindings, env)
    except CLOutOfMemoryError as exc:
        return env, str(exc)
    return env, None


CASES = [f"{executor}-{expression}"
         for executor in ("roundtrip", "staged", "fusion", "reference",
                          *CHUNKED)
         for expression in sorted(vortex.EXPRESSIONS)]


@pytest.mark.parametrize("case", CASES)
def test_dry_equals_live(fields, case):
    build = builder_for(case)
    live, live_error = launched(*build(fields), "gpu")
    dry, dry_error = walked(build(shapes_of(fields))[0], "gpu")
    assert live_error is dry_error is None
    assert live.event_counts().as_row() == (0, 0, 0)
    assert dry.mem_high_water == live.mem_high_water > 0
    assert dry.mem_in_use == live.mem_in_use == 0


@pytest.mark.parametrize("case", CASES)
def test_dry_oom_matches_live_and_releases(fields, case):
    """On a device too small for the run, the dry walk fails at the same
    op with the same error as a live launch, at the same peak, and
    releases every reservation it made."""
    build = builder_for(case)
    full, _ = walked(build(shapes_of(fields))[0], "gpu")
    tiny = dataclasses.replace(NVIDIA_M2050_GPU,
                               global_mem_bytes=full.mem_high_water - 1)
    live, live_error = launched(*build(fields), tiny)
    dry, dry_error = walked(build(shapes_of(fields))[0], tiny)
    assert dry_error is not None
    assert dry_error == live_error
    assert dry.mem_high_water == live.mem_high_water
    assert dry.mem_in_use == live.mem_in_use == 0
    assert 0 < len(dry.queue.log.events) < len(full.queue.log.events)


PINNED = [(strategy, expression, device)
          for strategy in ("roundtrip", "staged", "fusion")
          for expression in sorted(vortex.EXPRESSIONS)
          for device in ("cpu", "gpu")]


@pytest.mark.parametrize("strategy,expression,device", PINNED)
def test_dry_walk_matches_pinned_live_trace(strategy, expression, device):
    """The walk over shapes reproduces the events and peak pinned from a
    live run over arrays of those shapes."""
    build = builder_for(f"{strategy}-{expression}")
    dry, error = walked(build(shapes_of(make_fields(LIVE_GRID, seed=7)))[0],
                        device)
    assert error is None
    pinned = json.loads(FIXTURE.read_text())[
        f"live/{expression}/{strategy}/{device}"]
    assert _events_digest(dry) == {key: pinned[key] for key in
                                   ("events", "n_events", "mem_high_water")}
