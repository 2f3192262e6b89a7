"""Unit tests for DerivedFieldEngine and the in-situ derive() interface."""

import numpy as np
import pytest

import repro
from repro.analysis import vortex
from repro.errors import HostInterfaceError
from repro.host import DerivedFieldEngine, derive, derive_report


class TestDerive:
    def test_returns_named_result(self, small_fields):
        out = derive("v2 = u * u", {"u": small_fields["u"]})
        assert set(out) == {"v2"}
        np.testing.assert_allclose(out["v2"], small_fields["u"] ** 2)

    def test_top_level_reexport(self, small_fields):
        out = repro.derive("v2 = u + u", {"u": small_fields["u"]})
        np.testing.assert_allclose(out["v2"], 2 * small_fields["u"])

    def test_strategy_and_device_selection(self, small_fields):
        for strategy in ("roundtrip", "staged", "fusion"):
            for device in ("cpu", "gpu"):
                out = derive(vortex.VELOCITY_MAGNITUDE, small_fields,
                             strategy=strategy, device=device)
                assert out["v_mag"].shape == small_fields["u"].shape

    def test_report_contains_instrumentation(self, small_fields):
        report = derive_report(vortex.VELOCITY_MAGNITUDE, small_fields,
                               strategy="fusion")
        assert report.counts.as_row() == (3, 1, 1)
        assert report.timing.total > 0
        assert report.mem_high_water > 0
        assert report.generated_sources

    def test_extra_fields_ignored(self, small_fields):
        out = derive("a = u * 2.0", small_fields)  # v, w, mesh unused
        np.testing.assert_allclose(out["a"], 2 * small_fields["u"])


class TestEngine:
    def test_compile_caches(self):
        engine = DerivedFieldEngine()
        c1 = engine.compile("a = u * u")
        c2 = engine.compile("a = u * u")
        assert c1 is c2

    def test_cache_respects_options(self):
        engine = DerivedFieldEngine()
        c1 = engine.compile("a = u * u")
        engine.commutative_cse = True
        c2 = engine.compile("a = u * u")
        assert c1 is not c2

    def test_required_inputs(self):
        engine = DerivedFieldEngine()
        compiled = engine.compile(vortex.VORTICITY_MAGNITUDE)
        assert set(compiled.required_inputs) == \
            {"u", "v", "w", "dims", "x", "y", "z"}

    def test_missing_fields_rejected(self, small_fields):
        engine = DerivedFieldEngine()
        with pytest.raises(HostInterfaceError, match="needs host fields"):
            engine.execute(vortex.VORTICITY_MAGNITUDE,
                           {"u": small_fields["u"]})

    def test_definition_script_round_trips(self):
        engine = DerivedFieldEngine()
        compiled = engine.compile("a = sqrt(u * u)")
        script = compiled.definition_script()
        assert "add_filter('sqrt'" in script or \
            'add_filter("sqrt"' in script

    def test_cse_disabled(self, small_fields):
        fast = DerivedFieldEngine(strategy="roundtrip")
        slow = DerivedFieldEngine(strategy="roundtrip", cse=False)
        text = "a = (u * v) + (u * v)"
        fast_report = fast.execute(text, small_fields)
        slow_report = slow.execute(text, small_fields)
        assert slow_report.counts.kernel_execs > \
            fast_report.counts.kernel_execs
        np.testing.assert_allclose(fast_report.output, slow_report.output)

    def test_reexecution_per_timestep(self, small_fields, rng):
        """The in-situ pattern: compile once, execute per time step."""
        engine = DerivedFieldEngine()
        compiled = engine.compile("a = u * u")
        for _ in range(3):
            u = rng.standard_normal(64)
            out = engine.derive(compiled, {"u": u})
            np.testing.assert_allclose(out, u * u)

    def test_custom_strategy_instance(self, small_fields):
        from repro.strategies import FusionStrategy
        engine = DerivedFieldEngine(strategy=FusionStrategy())
        out = engine.derive("a = u + v",
                            {"u": small_fields["u"],
                             "v": small_fields["v"]})
        np.testing.assert_allclose(
            out, small_fields["u"] + small_fields["v"])
