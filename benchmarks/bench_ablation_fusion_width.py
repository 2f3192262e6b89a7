"""Ablation: fusion register pressure (DESIGN.md §5).

The paper notes fusion wins "as long as the generated kernel program can
fit on the device and avoid spilling results intended for local registers
into the global memory".  We synthesize expressions of growing live-value
width and compare the modeled fused-kernel time on the real M2050 (63
registers per work item) against a hypothetical no-spill device, isolating
the spill penalty.  We also confirm fusion nonetheless keeps beating
staged (whose per-kernel launch + traffic costs grow linearly in width).
"""

import dataclasses

import numpy as np
import pytest
from conftest import write_artifact

from repro.clsim import NVIDIA_M2050_GPU
from repro.host.engine import DerivedFieldEngine
from repro.strategies import FusionStrategy, StagedStrategy, plan
from repro.strategies.bindings import ArraySpec
from repro.workloads import SubGrid

# A device identical to the M2050 except registers never spill.
NO_SPILL_GPU = dataclasses.replace(NVIDIA_M2050_GPU,
                                   registers_per_work_item=10**9)

N_CELLS = SubGrid(64, 64, 64).n_cells
WIDTHS = (4, 16, 48, 96, 192, 384)


def wide_expression(width: int) -> str:
    """All `width` intermediates stay live until the final sum, forcing a
    register working set proportional to width."""
    lines = [f"t{i} = u * {float(i + 1)}" for i in range(width)]
    total = " + ".join(f"t{i}" for i in range(width))
    lines.append(f"result = {total}")
    return "\n".join(lines)


def modeled(width: int, strategy, device):
    engine = DerivedFieldEngine(device=device, strategy="fusion")
    compiled = engine.compile(wide_expression(width))
    shapes = {"u": ArraySpec((N_CELLS,), np.dtype(np.float64))}
    return plan(strategy, shapes, device, network=compiled.network).runtime


def test_fusion_width_artifact(results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    budget = NVIDIA_M2050_GPU.registers_per_work_item
    lines = [f"== Ablation: fusion register pressure "
             f"(M2050 budget: {budget} words/work-item) ==",
             f"{'width':>6} {'fusion s':>10} {'no-spill s':>11} "
             f"{'penalty':>8} {'staged s':>10}"]
    penalties = {}
    for width in WIDTHS:
        fused = modeled(width, FusionStrategy(), NVIDIA_M2050_GPU)
        ideal = modeled(width, FusionStrategy(), NO_SPILL_GPU)
        staged = modeled(width, StagedStrategy(), NVIDIA_M2050_GPU)
        penalties[width] = fused / ideal
        lines.append(f"{width:>6} {fused:>10.4f} {ideal:>11.4f} "
                     f"{penalties[width]:>8.3f} {staged:>10.4f}")
        # fusion remains ahead of staged even while spilling
        assert fused < staged
    write_artifact(results_dir, "ablation_fusion_width.txt",
                   "\n".join(lines))

    # no penalty while the working set fits in registers...
    assert penalties[4] == pytest.approx(1.0)
    assert penalties[16] == pytest.approx(1.0)
    # ...and a growing one once it exceeds the 63-register budget
    assert penalties[96] > 1.0
    assert penalties[384] > penalties[192] > penalties[96]


@pytest.mark.parametrize("width", [4, 48, 192])
def test_bench_generator_scaling(benchmark, width):
    """Wall-clock cost of dynamic kernel generation as the fused network
    grows (compile-time, not execute-time)."""
    engine = DerivedFieldEngine(device="cpu", strategy="fusion")
    text = wide_expression(width)

    def compile_fresh():
        engine._cache.clear()
        return engine.compile(text)

    compiled = benchmark(compile_fresh)
    assert compiled.network.n_filters() >= width
