"""Bench: cold vs. warm ``execute()`` through the plan cache.

The warm-execution layer caches executable plans (planned stages,
generated + validated OpenCL C, compiled kernels, buffer sizes) and pools
device-buffer reservations, so a repeated ``execute()`` of a compiled
expression skips everything but bind/launch/readback.  This benchmark
measures that for all three paper expressions across all three paper
strategies and writes the first JSON artifact of the bench trajectory.

The grid is deliberately small (codegen and planning are per-*plan* costs,
transfers are per-*element* costs): the warm/cold ratio here shows the
fixed overhead the cache removes, which is what dominates the paper's
in-situ workload of many timesteps over modest per-rank blocks.

Acceptance (ISSUE 1): a warm Q-criterion execute must be >= 5x faster
than cold.  Acceptance (ISSUE 6): the compiled executor must beat the
warm interpreter by >= 1.5x on q_criterion/fusion, bitwise-identical.
"""

import json
import statistics
import time

import numpy as np
from conftest import write_artifact

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.clsim.compiler import validate_source_cached
from repro.host.engine import DerivedFieldEngine
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(8, 8, 12)
STRATEGIES = ("roundtrip", "staged", "fusion")
COLD_ROUNDS = 5
WARM_ROUNDS = 20


def _median_runtime(engine, compiled, inputs, rounds, cold=False):
    samples = []
    for _ in range(rounds):
        if cold:
            # Source validation memoizes globally; a true cold run (first
            # execute of a fresh process) validates from scratch.
            validate_source_cached.cache_clear()
        start = time.perf_counter()
        engine.execute(compiled, inputs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _bench_case(name, strategy, fields):
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS[name]}

    # Cold path: caching disabled — every run re-plans, regenerates,
    # revalidates, and re-reserves on a fresh, unpooled environment (the
    # seed behavior).
    cold = DerivedFieldEngine(device="cpu", strategy=strategy,
                              plan_cache=False)
    compiled = cold.compile(EXPRESSIONS[name])
    cold_report = cold.execute(compiled, inputs)
    cold_s = _median_runtime(cold, compiled, inputs, COLD_ROUNDS,
                             cold=True)

    # Warm path: default engine, plan cache populated by a first run.
    warm = DerivedFieldEngine(device="cpu", strategy=strategy)
    warm.execute(compiled, inputs)
    warm_s = _median_runtime(warm, compiled, inputs, WARM_ROUNDS)
    warm_report = warm.execute(compiled, inputs)

    # Warm results must be bitwise-identical to cold, with the cache hot.
    np.testing.assert_array_equal(cold_report.output, warm_report.output)
    assert warm_report.cache is not None and warm_report.cache.hit
    assert warm_report.counts == cold_report.counts

    # Executor comparison on the same warm plan: pinned interpreter vs
    # the compiled sweep (ISSUE 6).  Outputs must be bitwise-identical.
    interp = DerivedFieldEngine(device="cpu", strategy=strategy,
                                backend="vectorized")
    interp.execute(compiled, inputs)
    warm_interpreted_s = _median_runtime(interp, compiled, inputs,
                                         WARM_ROUNDS)
    compiled_engine = DerivedFieldEngine(device="cpu", strategy=strategy,
                                         backend="compiled")
    compiled_report = compiled_engine.execute(compiled, inputs)
    warm_compiled_s = _median_runtime(compiled_engine, compiled, inputs,
                                      WARM_ROUNDS)
    assert compiled_report.codegen is not None
    assert compiled_report.codegen.compiled
    assert compiled_report.output.tobytes() == \
        cold_report.output.tobytes(), \
        "compiled output diverged from the interpreter"
    assert compiled_report.counts == cold_report.counts

    alloc = warm_report.alloc
    return {
        "expression": name,
        "strategy": strategy,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "warm_interpreted_s": warm_interpreted_s,
        "warm_compiled_s": warm_compiled_s,
        "compiled_speedup": warm_interpreted_s / warm_compiled_s,
        "cache_hits": warm_report.cache.hits,
        "cache_misses": warm_report.cache.misses,
        "reused_allocations": alloc.reused_allocations,
        "pooled_bytes": alloc.pooled_bytes,
    }


def test_bench_cache_artifact(results_dir):
    fields = make_fields(GRID, seed=7)
    cases = [_bench_case(name, strategy, fields)
             for name in EXPRESSIONS for strategy in STRATEGIES]

    artifact = {
        "grid": GRID.label(),
        "n_cells": GRID.n_cells,
        "cold_rounds": COLD_ROUNDS,
        "warm_rounds": WARM_ROUNDS,
        "cases": cases,
    }
    content = json.dumps(artifact, indent=2)
    write_artifact(results_dir, "bench_cache.json", content)

    by_case = {(c["expression"], c["strategy"]): c for c in cases}
    best_q = max(c["speedup"] for c in cases
                 if c["expression"] == "q_criterion")
    # The acceptance bar: warm Q-criterion >= 5x faster than cold.
    assert by_case[("q_criterion", "fusion")]["speedup"] >= 5.0, \
        f"warm q_criterion/fusion speedup below 5x: {best_q:.1f}x"
    # Every configuration must at least not regress when warm.
    for case in cases:
        assert case["speedup"] > 1.0, \
            f"{case['expression']}/{case['strategy']} warm slower than cold"
    # ISSUE 6 acceptance: the compiled executor beats the warm
    # interpreter by >= 1.5x on the q_criterion fusion path.
    compiled_speedup = \
        by_case[("q_criterion", "fusion")]["compiled_speedup"]
    assert compiled_speedup >= 1.5, \
        f"compiled q_criterion/fusion speedup below 1.5x: " \
        f"{compiled_speedup:.2f}x"
