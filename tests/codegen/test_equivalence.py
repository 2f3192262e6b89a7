"""The compiled executor must be observationally identical to the
interpreter it replaces: bitwise-equal outputs, identical Table II event
counts, identical modeled timings, identical Fig 6 memory high-water —
for every paper expression under every paper strategy."""

import numpy as np
import pytest

from repro.analysis import vortex
from repro.codegen import CompiledPlan, generate_sweep
from repro.host.engine import DerivedFieldEngine

STRATEGIES = ("roundtrip", "staged", "fusion")

EXTRA_EXPRESSIONS = {
    # Passthrough of a source field.
    "passthrough": "a = u",
    # Constant folding stays at runtime: the literal is inlined.
    "const_add": "a = u + 2.0",
    # A vector (double4) output.
    "vector_out": "g = grad3d(u, dims, x, y, z)",
    # Gradient of a *computed* field (not stackable with source grads).
    "grad_of_computed": ("m = sqrt(u*u + v*v + w*w)\n"
                         "a = vmag(grad3d(m, dims, x, y, z))"),
}


def _reference(strategy, expression, fields):
    """A cold, unpooled, interpreter-backed run: the seed behavior."""
    engine = DerivedFieldEngine(device="cpu", strategy=strategy,
                                backend="vectorized", plan_cache=False)
    return engine.execute(expression, fields)


def _assert_reports_match(compiled_report, reference_report):
    assert compiled_report.output.tobytes() == \
        reference_report.output.tobytes()
    assert compiled_report.output.dtype == reference_report.output.dtype
    assert compiled_report.output.shape == reference_report.output.shape
    assert compiled_report.counts == reference_report.counts
    assert compiled_report.timing.total == \
        pytest.approx(reference_report.timing.total, abs=0, rel=0)
    assert compiled_report.mem_high_water == \
        reference_report.mem_high_water


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(vortex.EXPRESSIONS))
class TestPaperExpressions:
    def test_bitwise_equal_to_interpreter(self, strategy, name,
                                          small_fields):
        expression = vortex.EXPRESSIONS[name]
        reference = _reference(strategy, expression, small_fields)
        engine = DerivedFieldEngine(device="cpu", strategy=strategy,
                                    backend="compiled")
        cold = engine.execute(expression, small_fields)
        warm = engine.execute(expression, small_fields)
        _assert_reports_match(cold, reference)
        _assert_reports_match(warm, reference)
        assert cold.codegen is not None
        assert cold.codegen.disposition == "cold-codegen"
        assert cold.codegen.compiled
        assert warm.codegen.disposition == "memory-hit"
        assert warm.codegen.backend == "compiled"


@pytest.mark.parametrize("name", sorted(EXTRA_EXPRESSIONS))
def test_extra_shapes_bitwise_equal(name, small_fields):
    expression = EXTRA_EXPRESSIONS[name]
    reference = _reference("fusion", expression, small_fields)
    engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                backend="compiled")
    cold = engine.execute(expression, small_fields)
    warm = engine.execute(expression, small_fields)
    _assert_reports_match(cold, reference)
    _assert_reports_match(warm, reference)
    assert cold.codegen.compiled and warm.codegen.compiled


def test_default_backend_is_compiled_for_fusion(small_fields):
    engine = DerivedFieldEngine(device="cpu", strategy="fusion")
    assert engine.backend == "compiled"
    report = engine.execute(vortex.Q_CRITERION, small_fields)
    assert report.codegen is not None and report.codegen.compiled


def test_default_backend_downgrades_without_plan_cache():
    engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                plan_cache=False)
    assert engine.backend == "vectorized"
    explicit = DerivedFieldEngine(device="cpu", strategy="fusion",
                                  plan_cache=False, backend="compiled")
    assert explicit.backend == "vectorized"


def test_float32_fields_stay_float32(small_fields):
    fields = {k: (v.astype(np.float32) if v.dtype == np.float64 else v)
              for k, v in small_fields.items()}
    reference = _reference("fusion", vortex.Q_CRITERION, fields)
    engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                backend="compiled")
    report = engine.execute(vortex.Q_CRITERION, fields)
    assert report.output.dtype == np.float32
    assert report.output.tobytes() == reference.output.tobytes()


def test_sweep_source_is_inspectable(small_fields):
    engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                backend="compiled")
    prepared = engine.prepare(vortex.Q_CRITERION, small_fields)
    engine.execute_prepared(prepared)
    plan = engine.plan_cache.get(prepared.key)
    assert isinstance(plan, CompiledPlan)
    assert "def _sweep(" in plan.sweep_source
    # Source-gradient fields of one mesh are computed as one stacked
    # axis-derivative sweep (u, v, w share dims/x/y/z).
    assert "_grad3d_stack" in plan.sweep_source
    # The generated OpenCL sources are untouched by codegen.
    assert plan.sweep_source not in plan.generated_sources.values()


def test_generate_sweep_names_every_source(small_fields):
    engine = DerivedFieldEngine(device="cpu", strategy="fusion")
    compiled = engine.compile(vortex.Q_CRITERION)
    sweep = generate_sweep(compiled.network)
    assert len(sweep.params) == len(compiled.network.live_sources())
    # q_criterion lowers entirely to inline operators plus the stacked
    # gradient helper — no generic primitive bindings remain.
    assert sweep.primitive_names == ()
    vmag = generate_sweep(
        engine.compile(vortex.VELOCITY_MAGNITUDE).network)
    assert "sqrt" in vmag.primitive_names
