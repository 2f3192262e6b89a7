"""Fallback semantics: when codegen cannot lower a plan the engine runs
the interpreter plan instead — correct output, a counted fallback, and a
report that says exactly what happened."""

import dataclasses

import pytest

import repro.host.engine as engine_mod
from repro.analysis import vortex
from repro.clsim.device import INTEL_X5660_CPU, MIB
from repro.errors import CLOutOfMemoryError, CodegenError
from repro.host.engine import DerivedFieldEngine
from repro.strategies import CodegenInfo, ExecutionReport
from repro.workloads import SubGrid, make_fields


@pytest.fixture
def broken_codegen(monkeypatch):
    def explode(*args, **kwargs):
        raise CodegenError("forced failure for the fallback test")
    monkeypatch.setattr(engine_mod, "compile_plan", explode)


class TestInterpreterFallback:
    def test_falls_back_and_stays_correct(self, registry, small_fields,
                                          broken_codegen):
        reference = DerivedFieldEngine(
            device="cpu", strategy="fusion", backend="vectorized",
            plan_cache=False, pooling=False).execute(
                vortex.Q_CRITERION, small_fields)
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend="compiled")
        report = engine.execute(vortex.Q_CRITERION, small_fields)
        assert report.output.tobytes() == reference.output.tobytes()
        assert report.codegen is not None
        assert report.codegen.disposition == "interpreter-fallback"
        assert not report.codegen.compiled
        assert report.codegen.backend == "vectorized"
        assert registry.value("repro_codegen_fallbacks_total") == 1
        assert registry.value("repro_codegen_compiles_total") == 0

    def test_fallback_plan_is_cached(self, registry, small_fields,
                                     broken_codegen):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend="compiled")
        engine.execute(vortex.Q_CRITERION, small_fields)
        warm = engine.execute(vortex.Q_CRITERION, small_fields)
        # The interpreter plan went into the cache: a memory hit, with
        # codegen never retried on the warm path.
        assert warm.codegen.disposition == "memory-hit"
        assert not warm.codegen.compiled
        assert registry.value("repro_codegen_fallbacks_total") == 1

    def test_device_oom_is_not_a_fallback(self, registry):
        tiny = dataclasses.replace(INTEL_X5660_CPU, global_mem_bytes=MIB)
        big = make_fields(SubGrid(32, 32, 32), seed=5)
        engine = DerivedFieldEngine(device=tiny, strategy="fusion",
                                    backend="compiled")
        with pytest.raises(CLOutOfMemoryError):
            engine.execute(vortex.Q_CRITERION, big)
        # The request failed on memory, exactly as the interpreter would;
        # nothing was counted as a codegen fallback or cached.
        assert registry.value("repro_codegen_fallbacks_total") == 0
        assert registry.value("repro_codegen_compiles_total") == 0
        assert len(engine.plan_cache) == 0


class TestReportRoundTrip:
    def test_codegen_info_round_trips_json(self, small_fields):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend="compiled")
        report = engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        assert report.codegen == CodegenInfo(
            backend="compiled", disposition="cold-codegen", compiled=True)
        rebuilt = ExecutionReport.from_json(report.to_json())
        assert rebuilt.codegen == report.codegen

    def test_reports_without_codegen_stay_none(self, small_fields):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend="vectorized")
        report = engine.execute(vortex.VELOCITY_MAGNITUDE, small_fields)
        assert report.codegen is None
        assert ExecutionReport.from_json(report.to_json()).codegen is None


class TestCLIVerbose:
    def test_derive_verbose_prints_disposition(self, tmp_path, capsys):
        from repro.cli import main
        args = ["derive", "velocity_magnitude", "--grid", "6x7x8",
                "--backend", "compiled",
                "--plan-cache-dir", str(tmp_path), "-v"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executor:   compiled (cold-codegen)" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executor:   compiled (disk-hit)" in out

    def test_derive_verbose_interpreter_backend(self, capsys):
        from repro.cli import main
        assert main(["derive", "velocity_magnitude", "--grid", "6x7x8",
                     "--backend", "vectorized", "-v"]) == 0
        out = capsys.readouterr().out
        assert "executor:   vectorized" in out


class TestServiceIntegration:
    def test_service_workers_share_the_disk_cache(self, tmp_path,
                                                  small_fields):
        from repro.service import DerivedFieldService
        inputs = {k: small_fields[k]
                  for k in vortex.EXPRESSION_INPUTS["q_criterion"]}
        with DerivedFieldService(devices=("cpu",),
                                 plan_cache_dir=tmp_path) as service:
            report = service.execute(vortex.EXPRESSIONS["q_criterion"],
                                     inputs)
        assert report.codegen is not None and report.codegen.compiled
        import os
        assert any(p.endswith(".json") for p in os.listdir(tmp_path))

        # A restarted service warms straight from disk.
        with DerivedFieldService(devices=("cpu",),
                                 plan_cache_dir=tmp_path) as service:
            warm = service.execute(vortex.EXPRESSIONS["q_criterion"],
                                   inputs)
        assert warm.codegen.disposition == "disk-hit"
        assert warm.output.tobytes() == report.output.tobytes()
