"""A dry run is the op schedule's modeled walk: on shapes alone it must
record exactly the events, and reach exactly the peak, that a live run
over same-shaped arrays does — for every plannable strategy and for the
hand-written reference kernels — and a dry out-of-memory failure must
leave the allocator where it started."""

import dataclasses

import pytest

from repro.analysis import vortex
from repro.clsim import CLEnvironment, NVIDIA_M2050_GPU
from repro.errors import CLOutOfMemoryError
from repro.host import DerivedFieldEngine
from repro.strategies import ArraySpec, ReferenceKernel, get_strategy
from repro.workloads import SubGrid, make_fields


@pytest.fixture(scope="module")
def fields():
    return make_fields(SubGrid(8, 6, 5), seed=3)


def shapes_of(arrays):
    return {k: ArraySpec(v.shape, v.dtype) for k, v in arrays.items()}


def trace(env):
    return [(e.kind, e.name, e.nbytes, e.sim_seconds, e.ts_seconds)
            for e in env.queue.log.events]


def run(runner, arrays, device, dry):
    """Run ``runner`` on a fresh environment; returns (env, error)."""
    env = CLEnvironment(device, dry_run=dry)
    try:
        runner(shapes_of(arrays) if dry else arrays, env)
    except CLOutOfMemoryError as exc:
        return env, str(exc)
    return env, None


def runner_for(case):
    """``case`` is ``"<strategy>-<expression>"``; the reference kernels
    bind their own inputs, the strategies run the compiled network."""
    executor, expression = case.split("-", 1)
    if executor == "reference":
        return ReferenceKernel(expression).execute
    network = DerivedFieldEngine().compile(
        vortex.EXPRESSIONS[expression]).network
    inputs = vortex.EXPRESSION_INPUTS[expression]
    return (lambda arrays, env: get_strategy(executor).execute(
        network, {k: arrays[k] for k in inputs}, env))


CASES = [f"{executor}-{expression}"
         for executor in ("roundtrip", "staged", "fusion", "reference")
         for expression in sorted(vortex.EXPRESSIONS)]


@pytest.mark.parametrize("case", CASES)
def test_dry_equals_live(fields, case):
    runner = runner_for(case)
    live, live_error = run(runner, fields, "gpu", dry=False)
    dry, dry_error = run(runner, fields, "gpu", dry=True)
    assert live_error is dry_error is None
    assert trace(dry) == trace(live)
    assert dry.mem_high_water == live.mem_high_water
    assert dry.mem_in_use == live.mem_in_use == 0


@pytest.mark.parametrize("case", CASES)
def test_dry_oom_matches_live_and_releases(fields, case):
    """On a device too small for the run, the dry walk fails at the same
    op with the same error and events as a live run, and releases every
    reservation it made."""
    runner = runner_for(case)
    full, _ = run(runner, fields, "gpu", dry=True)
    tiny = dataclasses.replace(NVIDIA_M2050_GPU,
                               global_mem_bytes=full.mem_high_water - 1)
    live, live_error = run(runner, fields, tiny, dry=False)
    dry, dry_error = run(runner, fields, tiny, dry=True)
    assert dry_error is not None
    assert dry_error == live_error
    assert trace(dry) == trace(live)
    assert dry.mem_high_water == live.mem_high_water
    assert dry.mem_in_use == 0

