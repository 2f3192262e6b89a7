"""Extension benches: the paper's future-work strategies (Section VI).

*Streaming* trades kernel launches for a bounded device footprint —
sweeping the chunk count shows the memory/runtime frontier, including the
headline capability: Q-criterion on Table I grids the M2050 cannot fit
under plain fusion.  *Multi-device* splits one node's problem across both
M2050s, near-halving the modeled makespan and the per-device memory.
"""

import numpy as np
import pytest
from conftest import write_artifact

from repro.analysis.vortex import EXPRESSION_INPUTS, Q_CRITERION
from repro.clsim import GIB
from repro.host.engine import DerivedFieldEngine
from repro.strategies import (FusionStrategy, MultiDeviceStrategy,
                              StreamingFusionStrategy)
from repro.workloads import SubGrid, make_fields


@pytest.fixture(scope="module")
def medium_fields():
    return make_fields(SubGrid(48, 48, 96), seed=5)


def run(strategy, fields, device="gpu"):
    engine = DerivedFieldEngine(device=device, strategy=strategy)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}
    return engine.execute(Q_CRITERION, inputs)


def test_streaming_frontier_artifact(results_dir, benchmark,
                                     medium_fields):
    """The chunk-count frontier, serial (one chunk resident) and double
    buffered (two chunks in flight): serial peaks fall below the fused
    peak and keep falling with chunk count; double buffering holds two
    working sets for a shorter modeled makespan."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = run("fusion", medium_fields)
    lines = ["== Streaming fusion: chunk-count frontier "
             "(Q-criterion, 221,184 cells, M2050 model) ==",
             f"{'chunks':>7} {'K-Exe':>6} {'peak bytes':>12} "
             f"{'modeled s':>10} {'depth-2 peak':>13} {'depth-2 span':>13}"]
    lines.append(f"{'fused':>7} {base.counts.kernel_execs:>6} "
                 f"{base.mem_high_water:>12,} {base.timing.total:>10.5f} "
                 f"{base.mem_high_water:>13,} "
                 f"{base.timing.makespan:>13.5f}")
    prev_mem = base.mem_high_water
    prev_mem_2 = None
    for n_chunks in (2, 4, 8):
        serial = run(StreamingFusionStrategy(n_chunks, pipeline_depth=1),
                     medium_fields)
        double = run(StreamingFusionStrategy(n_chunks, pipeline_depth=2),
                     medium_fields)
        for report in (serial, double):
            np.testing.assert_allclose(report.output, base.output,
                                       rtol=1e-12, atol=1e-12)
        lines.append(f"{n_chunks:>7} {serial.counts.kernel_execs:>6} "
                     f"{serial.mem_high_water:>12,} "
                     f"{serial.timing.total:>10.5f} "
                     f"{double.mem_high_water:>13,} "
                     f"{double.timing.makespan:>13.5f}")
        assert serial.mem_high_water < prev_mem
        prev_mem = serial.mem_high_water
        if prev_mem_2 is not None:
            assert double.mem_high_water < prev_mem_2
        prev_mem_2 = double.mem_high_water
        assert double.timing.makespan < serial.timing.total
    write_artifact(results_dir, "ext_streaming.txt", "\n".join(lines))


def test_multidevice_artifact(results_dir, benchmark, medium_fields):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    single = run("fusion", medium_fields)
    strategy = MultiDeviceStrategy(devices=("gpu", "gpu"))
    dual = run(strategy, medium_fields)
    np.testing.assert_allclose(dual.output, single.output, rtol=1e-12,
                               atol=1e-12)
    speedup = single.timing.total / dual.timing.total
    lines = ["== Multi-device fusion: one node, two M2050s ==",
             f"{'config':<12} {'modeled s':>10} {'peak/device B':>14}",
             f"{'1 GPU':<12} {single.timing.total:>10.5f} "
             f"{single.mem_high_water:>14,}",
             f"{'2 GPUs':<12} {dual.timing.total:>10.5f} "
             f"{dual.mem_high_water:>14,}",
             f"modeled speedup: {speedup:.2f}x; per-device memory "
             f"{single.mem_high_water / dual.mem_high_water:.2f}x smaller"]
    write_artifact(results_dir, "ext_multidevice.txt", "\n".join(lines))
    assert 1.5 < speedup < 2.3
    assert dual.mem_high_water < 0.75 * single.mem_high_water


def test_streaming_unlocks_oversized_gpu_case(benchmark):
    """Plain fusion cannot fit Q-criterion's largest Table I grids on the
    M2050 (Fig 5/6 gray cases); streaming executes the same shape chunked.
    Verified here at reduced scale against a proportionally tiny device."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import dataclasses
    from repro.clsim import CLEnvironment, NVIDIA_M2050_GPU
    from repro.errors import CLOutOfMemoryError

    grid = SubGrid(32, 12, 12)
    fields = make_fields(grid, seed=6)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}
    # room for ~3.9 problem-sized arrays; fused Q-crit holds u, v, w and
    # the output simultaneously (4 arrays + coordinate scraps)
    tiny = dataclasses.replace(NVIDIA_M2050_GPU,
                               global_mem_bytes=int(3.9 * grid.n_cells * 8))
    engine = DerivedFieldEngine(device=tiny, strategy="fusion")
    compiled = engine.compile(Q_CRITERION)
    with pytest.raises(CLOutOfMemoryError):
        FusionStrategy().execute(compiled.network, inputs,
                                 CLEnvironment(tiny))
    report = StreamingFusionStrategy(8).execute(
        compiled.network, inputs, CLEnvironment(tiny))
    assert report.output is not None
    assert report.mem_high_water <= tiny.global_mem_bytes


@pytest.mark.parametrize("strategy_name,factory", [
    ("fusion", lambda: "fusion"),
    ("streaming-4", lambda: StreamingFusionStrategy(4)),
    ("multi-device", lambda: MultiDeviceStrategy(("gpu", "gpu"))),
])
def test_bench_extension_wallclock(benchmark, strategy_name, factory,
                                   medium_fields):
    engine = DerivedFieldEngine(device="gpu", strategy=factory())
    compiled = engine.compile(Q_CRITERION)
    inputs = {k: medium_fields[k]
              for k in EXPRESSION_INPUTS["q_criterion"]}
    report = benchmark(engine.execute, compiled, inputs)
    benchmark.extra_info["modeled_seconds"] = report.timing.total
