"""Ablation: the limited CSE pass (DESIGN.md §5).

Q-criterion reuses the gradient components heavily, so CSE is what keeps
the roundtrip kernel count at 57 and staged at 67.  This bench measures
kernel counts and wall-clock with CSE off, with the paper's limited
(syntactic) CSE, and with the stronger commutative extension.
"""

import pytest
from conftest import write_artifact

from repro.analysis.vortex import EXPRESSION_INPUTS, Q_CRITERION
from repro.host.engine import DerivedFieldEngine

MODES = {
    "no_cse": dict(cse=False),
    "limited_cse": dict(cse=True),             # the paper's pass
    "commutative_cse": dict(cse=True, commutative_cse=True),
}


def counts_for(mode, strategy="staged"):
    engine = DerivedFieldEngine(device="cpu", strategy=strategy,
                                **MODES[mode])
    compiled = engine.compile(Q_CRITERION)
    from repro.strategies import get_strategy, plan
    from repro.workloads import SubGrid, make_shapes
    shapes = {k: v for k, v in make_shapes(SubGrid(32, 32, 32)).items()
              if k in EXPRESSION_INPUTS["q_criterion"]}
    return plan(get_strategy(strategy), shapes, "cpu",
                network=compiled.network)


def test_cse_ablation_artifact(results_dir, benchmark):
    rows = benchmark.pedantic(
        lambda: {mode: counts_for(mode) for mode in MODES},
        rounds=1, iterations=1)
    lines = ["== Ablation: common-subexpression elimination "
             "(Q-criterion, staged) ==",
             f"{'mode':<18} {'K-Exe':>6} {'modeled s':>10}"]
    for mode, result in rows.items():
        lines.append(f"{mode:<18} {result.counts.kernel_execs:>6} "
                     f"{result.runtime:>10.3f}")
    write_artifact(results_dir, "ablation_cse.txt", "\n".join(lines))

    no, limited, commutative = (rows[m].counts.kernel_execs
                                for m in MODES)
    assert no > limited == 67 > commutative
    assert rows["no_cse"].runtime > rows["limited_cse"].runtime


@pytest.mark.parametrize("mode", list(MODES))
def test_bench_cse_execution(benchmark, mode, bench_fields):
    engine = DerivedFieldEngine(device="cpu", strategy="staged",
                                **MODES[mode])
    compiled = engine.compile(Q_CRITERION)
    inputs = {k: bench_fields[k]
              for k in EXPRESSION_INPUTS["q_criterion"]}
    report = benchmark(engine.execute, compiled, inputs)
    benchmark.extra_info["kernel_execs"] = report.counts.kernel_execs
