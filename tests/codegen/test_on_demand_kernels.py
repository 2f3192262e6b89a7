"""Fusion kernels are built on demand: the compiled backend runs only the
generated sweep, so a plan's OpenCL C, its validation and its clsim
executors are built the first time something reads them — a launch on
the interpreter backends, the disk cache, a report's JSON — and then
once per plan.  What is pulled is exactly what an eager build produced."""

import json
import sys
import threading

import numpy as np
import pytest

import repro.host.engine as engine_mod
from repro.analysis import vortex
from repro.clsim import compiler
from repro.clsim.kernel import KernelSources
from repro.errors import CLBuildError, CodegenError
from repro.host.engine import DerivedFieldEngine
from repro.primitives.base import CallStyle, Primitive, ResultKind
from repro.primitives.registry import default_registry
from repro.strategies.fusion import FusionStrategy
from repro.workloads import make_fields

from ..strategies.test_pinned_traces import (EXPRESSIONS, FIXTURE,
                                             LIVE_GRID, _sources_digest)

TWO_STAGE = EXPRESSIONS["grad_of_computed"]


@pytest.fixture
def render_counts(monkeypatch):
    """Count OpenCL C renders and structural validations."""
    counts = {"render": 0, "validate": 0}
    render = compiler.KernelSourceBuilder.render
    validate = compiler.validate_source

    def counting_render(self):
        counts["render"] += 1
        return render(self)

    def counting_validate(source):
        counts["validate"] += 1
        return validate(source)

    monkeypatch.setattr(compiler.KernelSourceBuilder, "render",
                        counting_render)
    monkeypatch.setattr(compiler, "validate_source", counting_validate)
    compiler.validate_source_cached.cache_clear()
    yield counts
    compiler.validate_source_cached.cache_clear()


@pytest.mark.parametrize("expression", [vortex.Q_CRITERION, TWO_STAGE])
def test_compiled_cold_execute_renders_no_opencl(expression, small_fields,
                                                 render_counts):
    engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                backend="compiled")
    report = engine.execute(expression, small_fields)
    assert report.codegen.disposition == "cold-codegen"
    assert render_counts == {"render": 0, "validate": 0}
    # Names are known without building; reading a source builds them all.
    assert len(report.generated_sources) >= 1
    assert render_counts["render"] == 0
    report.to_json()
    assert render_counts["render"] == len(report.generated_sources)
    assert render_counts["validate"] == len(report.generated_sources)


@pytest.mark.parametrize("device", ["cpu", "gpu"])
@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_pulled_sources_equal_the_eager_ones(name, device):
    """The pinned digests were recorded from eagerly generated sources."""
    pinned = json.loads(FIXTURE.read_text())[f"live/{name}/fusion/{device}"]
    fields = make_fields(LIVE_GRID, seed=7)
    engine = DerivedFieldEngine(device=device, strategy="fusion",
                                backend="compiled")
    report = engine.execute(EXPRESSIONS[name], fields)
    assert _sources_digest(report.generated_sources) == pinned["sources"]


def _broken_registry():
    registry = default_registry()
    registry.register(Primitive(
        name="leaky", arity=1, result_kind=ResultKind.SCALAR,
        call_style=CallStyle.ELEMENTWISE, flops_per_element=1,
        cl_name="repro_leaky",
        cl_source="{T} repro_leaky({T} a) {{ return -a; ",  # no closing }
        cl_call="repro_leaky({a0})",
        numpy_fn=np.negative))
    return registry


BROKEN = "a = leaky(u) * v"


class TestBrokenSourceStillRaises:
    def test_on_pull(self, small_fields):
        engine = DerivedFieldEngine(registry=_broken_registry(),
                                    backend="compiled")
        report = engine.execute(BROKEN, small_fields)
        assert report.codegen.disposition == "cold-codegen"
        with pytest.raises(CLBuildError, match="unbalanced"):
            dict(report.generated_sources)
        with pytest.raises(CLBuildError):      # failures are not kept
            report.to_json()

    def test_on_vectorized_launch(self, small_fields):
        engine = DerivedFieldEngine(registry=_broken_registry(),
                                    backend="vectorized")
        with pytest.raises(CLBuildError, match="unbalanced"):
            engine.execute(BROKEN, small_fields)
        assert len(engine.plan_cache) == 0

    def test_on_fallback_path(self, small_fields, monkeypatch):
        def explode(*args, **kwargs):
            raise CodegenError("forced failure")
        monkeypatch.setattr(engine_mod, "compile_plan", explode)
        engine = DerivedFieldEngine(registry=_broken_registry(),
                                    backend="compiled")
        with pytest.raises(CLBuildError, match="unbalanced"):
            engine.execute(BROKEN, small_fields)
        assert len(engine.plan_cache) == 0


def test_threads_pulling_one_plan_build_once(small_fields, render_counts):
    """More threads than cores race for one plan's sources, with a short
    switch interval: the build runs once and every thread sees it."""
    strategy = FusionStrategy()
    network = DerivedFieldEngine().compile(TWO_STAGE).network
    bindings, n, dtype = strategy.prepare(network, small_fields)
    plan = strategy.build_plan(network, bindings, n, dtype)
    sources = plan.generated_sources
    assert isinstance(sources, KernelSources)
    n_threads = 8
    start = threading.Barrier(n_threads)
    seen = []

    def pull():
        start.wait(timeout=10)
        seen.append(sources.kernels())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pull) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == n_threads
    assert all(built is seen[0] for built in seen)
    assert render_counts["render"] == len(sources) == 2
    assert dict(plan.generated_sources) == {
        name: source for name, (source, _) in seen[0].items()}
