"""Dry-run planner tests, including the Fig 2 memory-constraint example
and the M2050 out-of-memory failure behaviour."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.vortex import EXPRESSIONS
from repro.clsim import GIB
from repro.dataflow import Network, NetworkSpec
from repro.clsim import CLEnvironment
from repro.errors import HostInterfaceError, StrategyError
from repro.host.engine import DerivedFieldEngine
from repro.strategies import (ArraySpec, ExecutionStrategy, FusionStrategy,
                              MultiDeviceStrategy, ReferenceKernel,
                              RoundtripStrategy, StagedStrategy,
                              StreamingFusionStrategy, get_strategy, plan)
from repro.workloads import TABLE1_SUBGRIDS, make_shapes

F8 = np.dtype(np.float64)


def chain_network():
    """A Fig 2-style two-filter chain:  T = f1(A, B);  out = f2(T, C).

    The strategies' memory constraints diverge on exactly this shape
    (Fig 2's point): roundtrip needs only one kernel's working set at a
    time, staged holds live values only (lazy upload + refcounted
    release), while a fused kernel must hold *every* input plus the output
    simultaneously — so fusion is the most constrained strategy here, the
    Section V-D case where "staged can be used, while memory constraints
    would prevent fusion from executing".
    """
    spec = NetworkSpec()
    a, b, c = (spec.add_source(n) for n in ("A", "B", "C"))
    t = spec.add_filter("add", [a, b])
    out = spec.add_filter("mult", [t, c])
    spec.set_output(out)
    return Network(spec)


def chain_shapes(n):
    return {name: ArraySpec((n,), F8) for name in ("A", "B", "C")}


def engine_network(expression, strategy, device="gpu"):
    engine = DerivedFieldEngine(device=device, strategy=strategy)
    return engine.compile(expression).network


class TestFig2MemoryConstraints:
    N = 1000
    UNIT = 1000 * 8  # one problem-sized array

    def peaks(self):
        net = chain_network()
        shapes = chain_shapes(self.N)
        return {
            s.name: plan(s, shapes, "gpu", network=net).mem_high_water
            for s in (RoundtripStrategy(), StagedStrategy(),
                      FusionStrategy())}

    def test_roundtrip_needs_one_kernel_working_set(self):
        # each kernel: 2 inputs + 1 output
        assert self.peaks()["roundtrip"] == 3 * self.UNIT

    def test_staged_holds_only_live_values(self):
        # peak while f1 runs: A, B, T resident (C not yet uploaded)
        assert self.peaks()["staged"] == 3 * self.UNIT

    def test_fusion_holds_all_inputs_plus_output(self):
        assert self.peaks()["fusion"] == 4 * self.UNIT

    def test_fusion_is_most_constrained_on_this_shape(self):
        peaks = self.peaks()
        assert peaks["fusion"] > peaks["staged"]
        assert peaks["fusion"] > peaks["roundtrip"]

    def test_staged_succeeds_where_fusion_fails(self):
        """The Section V-D scenario, made concrete: a size where the fused
        kernel exceeds the M2050's 3 GiB but staged still fits."""
        n = 120_000_000  # 3 arrays = 2.7 GiB < 3 GiB < 4 arrays = 3.6 GiB
        net = chain_network()
        shapes = chain_shapes(n)
        staged = plan(StagedStrategy(), shapes, "gpu", network=net)
        fused = plan(FusionStrategy(), shapes, "gpu", network=net)
        assert not staged.failed
        assert fused.failed


class TestGradientNetworkConstraints:
    """On the paper's real (gradient-based) expressions the ordering flips:
    fusion is the least constrained (Fig 6)."""

    def test_fusion_minimal_for_vortmag(self):
        shapes = make_shapes(TABLE1_SUBGRIDS[0])
        peaks = {}
        for name in ("roundtrip", "staged", "fusion"):
            net = engine_network(EXPRESSIONS["vorticity_magnitude"], name)
            strategy = {"roundtrip": RoundtripStrategy,
                        "staged": StagedStrategy,
                        "fusion": FusionStrategy}[name]()
            peaks[name] = plan(strategy, shapes, "gpu",
                               network=net).mem_high_water
        assert peaks["fusion"] < peaks["roundtrip"] < peaks["staged"]


class TestPaperScaleFailures:
    def test_staged_vortmag_fails_on_gpu_at_38M_cells(self):
        shapes = make_shapes(TABLE1_SUBGRIDS[3])  # 37.7M cells
        net = engine_network(EXPRESSIONS["vorticity_magnitude"], "staged")
        result = plan(StagedStrategy(), shapes, "gpu", network=net)
        assert result.failed
        assert "global memory" in result.error

    def test_same_case_succeeds_on_cpu(self):
        shapes = make_shapes(TABLE1_SUBGRIDS[3])
        net = engine_network(EXPRESSIONS["vorticity_magnitude"], "staged",
                             device="cpu")
        result = plan(StagedStrategy(), shapes, "cpu", network=net)
        assert not result.failed
        assert result.runtime > 0

    def test_failed_plan_reports_partial_memory(self):
        shapes = make_shapes(TABLE1_SUBGRIDS[-1])
        result = plan(ReferenceKernel("q_criterion"), shapes, "gpu")
        assert result.failed
        assert 0 < result.mem_high_water <= 3 * GIB

    def test_reference_fails_exactly_when_fusion_does(self):
        net = engine_network(EXPRESSIONS["q_criterion"], "fusion")
        for grid in TABLE1_SUBGRIDS:
            shapes = make_shapes(grid)
            fusion = plan(FusionStrategy(), shapes, "gpu", network=net)
            ref = plan(ReferenceKernel("q_criterion"), shapes, "gpu")
            assert fusion.failed == ref.failed

    def test_plan_requires_network_for_strategies(self):
        with pytest.raises(ValueError, match="network"):
            plan(FusionStrategy(), chain_shapes(10), "gpu")

    def test_cpu_completes_all_144_paper_cases(self):
        from repro.experiments import run_sweep
        results = run_sweep(devices=("cpu",))
        assert all(not r.failed for r in results)


class TestPlanIsTheWalk:
    """``plan()`` builds the op schedule and walks it; it never runs a
    strategy's ``execute``."""

    def test_plan_calls_no_execute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("plan() must not execute")

        monkeypatch.setattr(ExecutionStrategy, "execute", refuse)
        monkeypatch.setattr(ReferenceKernel, "execute", refuse)
        shapes = make_shapes(TABLE1_SUBGRIDS[0])
        net = engine_network(EXPRESSIONS["q_criterion"], "staged")
        assert not plan(StagedStrategy(), shapes, "gpu",
                        network=net).failed
        assert not plan(ReferenceKernel("q_criterion"), shapes,
                        "gpu").failed

    @pytest.mark.parametrize("strategy", [StreamingFusionStrategy(2),
                                          MultiDeviceStrategy()])
    def test_chunked_strategies_plan_what_they_execute(self, strategy):
        network = chain_network()
        arrays = {name: np.linspace(0.0, 1.0, 10) for name in "ABC"}
        planned = plan(strategy, chain_shapes(10), "gpu", network=network)
        report = strategy.execute(network, arrays, CLEnvironment("gpu"))
        assert not planned.failed
        assert planned.counts == report.counts
        assert planned.timing == dataclasses.replace(report.timing,
                                                     wall=0.0)
        assert planned.mem_high_water == report.mem_high_water


class TestShapeOnlyBindingsDoNotExecute:
    """Shapes are planned; every path that executes rejects them up front
    and names ``plan()``."""

    SPECS = {"u": ArraySpec((8,), F8), "v": ArraySpec((8,), F8)}

    @pytest.mark.parametrize("strategy", ["roundtrip", "staged", "fusion"])
    def test_engine_rejects(self, strategy):
        engine = DerivedFieldEngine(strategy=strategy)
        with pytest.raises(HostInterfaceError, match=r"plan\(\)"):
            engine.execute("a = u * v", self.SPECS)

    @pytest.mark.parametrize("strategy", ["roundtrip", "staged", "fusion"])
    def test_strategy_execute_rejects(self, strategy):
        net = engine_network("a = u * v", strategy)
        env = CLEnvironment("cpu")
        with pytest.raises(StrategyError, match=r"plan\(\)"):
            get_strategy(strategy).execute(net, self.SPECS, env)
        assert env.event_counts().as_row() == (0, 0, 0)

    def test_reference_execute_rejects(self):
        with pytest.raises(StrategyError, match=r"plan\(\)"):
            ReferenceKernel("q_criterion").execute(
                make_shapes(TABLE1_SUBGRIDS[0]), CLEnvironment("cpu"))

    @pytest.mark.parametrize("strategy", ["roundtrip", "staged", "fusion"])
    def test_plan_still_accepts_shapes(self, strategy):
        result = plan(get_strategy(strategy), self.SPECS, "cpu",
                      network=engine_network("a = u * v", strategy))
        assert not result.failed and result.counts.dev_reads >= 1
