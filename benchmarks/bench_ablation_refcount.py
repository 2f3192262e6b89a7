"""Ablation: reference-counted eager release of intermediates (DESIGN.md
§5 — the dataflow module's "reference counting ... to reduce memory
overhead").

A retain-all variant of the staged strategy (release nothing until the
end) shows how much device memory the refcount machinery saves on the
gradient-heavy Q-criterion network.
"""

import pytest
from conftest import write_artifact

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.clsim import GIB
from repro.host.engine import DerivedFieldEngine
from repro.strategies import StagedStrategy, plan
from repro.workloads import TABLE1_SUBGRIDS, make_shapes


class RetainAllStagedStrategy(StagedStrategy):
    """Staged without eager release: every buffer lives to the end."""

    name = "staged-retain-all"

    def execute(self, network, arrays, env):
        refcounts = network.refcounts()
        # Inflate every count so `consume` never reaches zero; the final
        # cleanup in StagedStrategy.execute skips still-referenced buffers,
        # leaving the allocator to report the retain-all peak.
        original = network.refcounts

        def inflated():
            return {k: v + 10**6 for k, v in original().items()}

        network.refcounts = inflated
        try:
            return super().execute(network, arrays, env)
        finally:
            network.refcounts = original


def peak_for(strategy_cls, expression):
    engine = DerivedFieldEngine(device="cpu", strategy="staged")
    compiled = engine.compile(EXPRESSIONS[expression])
    shapes = {k: v
              for k, v in make_shapes(TABLE1_SUBGRIDS[0]).items()
              if k in EXPRESSION_INPUTS[expression]}
    return plan(strategy_cls(), shapes, "cpu", network=compiled.network)


def test_refcount_ablation_artifact(results_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["== Ablation: refcounted release vs retain-all "
             "(staged, 9.4M cells) ==",
             f"{'expression':<22} {'refcount GiB':>13} "
             f"{'retain-all GiB':>15} {'saved':>7}"]
    for expression in EXPRESSIONS:
        with_rc = peak_for(StagedStrategy, expression)
        without = peak_for(RetainAllStagedStrategy, expression)
        saved = 1 - with_rc.mem_high_water / without.mem_high_water
        lines.append(
            f"{expression:<22} {with_rc.mem_high_water / GIB:>13.3f} "
            f"{without.mem_high_water / GIB:>15.3f} {saved:>6.0%}")
        assert without.mem_high_water >= with_rc.mem_high_water
    write_artifact(results_dir, "ablation_refcount.txt", "\n".join(lines))


def test_refcount_saves_memory_on_qcrit(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with_rc = peak_for(StagedStrategy, "q_criterion")
    without = peak_for(RetainAllStagedStrategy, "q_criterion")
    assert without.mem_high_water > 1.3 * with_rc.mem_high_water


@pytest.mark.parametrize("strategy_cls", [StagedStrategy,
                                          RetainAllStagedStrategy])
def test_bench_refcount_overhead(benchmark, strategy_cls, bench_fields):
    """Refcount bookkeeping itself must be cheap: compare live wall-clock
    of the two variants."""
    engine = DerivedFieldEngine(device="cpu", strategy=strategy_cls())
    compiled = engine.compile(EXPRESSIONS["q_criterion"])
    inputs = {k: bench_fields[k]
              for k in EXPRESSION_INPUTS["q_criterion"]}
    report = benchmark(engine.execute, compiled, inputs)
    assert report.output is not None
