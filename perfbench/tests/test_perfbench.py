"""Tests for the benchmark itself (not the program).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _corrupt_compiled_outputs(monkeypatch):
    """Make every compiled sweep return a slightly wrong field."""
    from repro.codegen.compiled import CompiledPlan
    launch = CompiledPlan.launch

    def wrong(self, bindings, env):
        return launch(self, bindings, env) + 1e-3
    monkeypatch.setattr(CompiledPlan, "launch", wrong)


def _programs(seed: int, count: int) -> list[str]:
    return list(itertools.islice(inputs.explore_programs(seed), count))


def _small_insitu(monkeypatch, n: int, block: int) -> None:
    monkeypatch.setattr(workloads.Insitu, "N", n)
    monkeypatch.setattr(workloads.Insitu, "BLOCK", block)


# -- seeded inputs -----------------------------------------------------------

def test_same_seed_gives_same_expressions_and_inputs(monkeypatch):
    assert _programs(7, 40) == _programs(7, 40)
    assert _programs(7, 40) != _programs(8, 40)
    first, again = workloads.Serve(7), workloads.Serve(7)
    for a, b in zip(first.pool, again.pool):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
    _small_insitu(monkeypatch, 16, 8)
    a = workloads.Insitu(7).inputs
    b = workloads.Insitu(7).inputs
    c = workloads.Insitu(8).inputs
    assert all(np.array_equal(x["u"], y["u"]) for x, y in zip(a, b))
    assert not np.array_equal(a[0]["u"], c[0]["u"])
    # No step reuses the previous step's input.
    assert not np.array_equal(a[0]["u"], a[1]["u"])


def test_explore_programs_have_distinct_plans():
    from repro.host import DerivedFieldEngine
    from repro.strategies.plancache import network_signature
    engine = DerivedFieldEngine()
    programs = _programs(3, 60)
    signatures = {network_signature(engine.compile(p).network)[0]
                  for p in programs}
    assert len(signatures) == len(programs)
    for program in programs:
        statements = program.count("\n") + 1
        assert 4 <= statements <= 15
        assert 1 <= program.count("grad3d") <= 3


# -- the traced run ----------------------------------------------------------

def _targets():
    import importlib
    from repro.par.mpi import World
    owners = []
    for patch in tracing.PATCHES:
        owner = importlib.import_module(patch.module)
        if patch.owner is not None:
            owner = getattr(owner, patch.owner)
        owners.append((owner, patch.attr))
    owners.append((World, "run"))
    return owners


def test_traced_run_leaves_no_patched_attribute_behind():
    targets = _targets()
    before = [(attr in vars(owner), vars(owner).get(attr))
              for owner, attr in targets]
    session = tracing.TraceSession()
    fields = inputs.field_set(inputs.BENCH_GRID, 0, 0)
    from repro.host import DerivedFieldEngine
    with pytest.raises(RuntimeError, match="inside"):
        with session.installed():
            assert all(vars(owner).get(attr) is not original
                       for (owner, attr), (_, original)
                       in zip(targets, before))
            DerivedFieldEngine().execute(_programs(0, 1)[0], fields)
            raise RuntimeError("failure inside a traced slice")
    after = [(attr in vars(owner), vars(owner).get(attr))
             for owner, attr in targets]
    assert all(a[0] == b[0] and a[1] is b[1] for a, b in zip(before, after))
    names = {span.name for span in session.tracer.spans}
    assert {"expr.parse", "dataflow.validate", "codegen.compile_plan",
            "codegen.launch", "clsim.event_record"} <= names


# -- correctness gates -------------------------------------------------------

def test_corrupted_explore_output_fails(monkeypatch):
    wl = workloads.Explore(1)
    wl.start()
    assert wl.failed == 0
    _corrupt_compiled_outputs(monkeypatch)
    wl.run_slice(0.2)
    wl.after_slice()
    assert wl.attempted > wl.WARMUP and wl.failed == wl.attempted - wl.WARMUP


def test_corrupted_served_output_fails(monkeypatch):
    wl = workloads.Serve(1)
    try:
        wl.start()
        assert wl.failed == 0
        _corrupt_compiled_outputs(monkeypatch)
        wl.run_slice(0.2)
    finally:
        wl.close()
    assert wl.failed == len(wl.latencies["untraced"]) > 0


def test_corrupted_insitu_output_fails(monkeypatch):
    _small_insitu(monkeypatch, 32, 16)
    wl = workloads.Insitu(1)
    wl.start()
    assert wl.failed == 0
    _corrupt_compiled_outputs(monkeypatch)
    wl.run_slice(0.2)
    assert wl.failed == len(wl.latencies["untraced"]) > 0


def test_reference_check_sees_a_wrong_seam_cell():
    from repro.analysis.vortex import q_criterion_reference
    fields = inputs.field_set((32, 32, 32), 2, 0)
    args = [fields[k] for k in ("u", "v", "w", "dims", "x", "y", "z")]
    good = q_criterion_reference(*args)
    assert workloads.reference_matches(fields, good, q_criterion_reference)
    bad = good.copy().reshape(32, 32, 32)
    bad[16, 15, 16] *= 1.0 + 1e-6          # a cell on a block seam
    assert not workloads.reference_matches(fields, bad.ravel(),
                                           q_criterion_reference)


# -- the result line ---------------------------------------------------------

def test_metric_names_match_benchmark_json(monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == tracing.PER_LAYER
    monkeypatch.setattr(run, "PROBES", 1)
    monkeypatch.setattr(run, "TRACE_PROBES", 1)
    monkeypatch.setattr(tracing, "TRIAD_ARRAY_BYTES", 2**20)
    monkeypatch.setattr(tracing, "TRIAD_REPEATS", 1)
    result = run.measure("explore", 1, 0.4, trace=False)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert result["correct"] and result["failed"] == 0
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.measure("serve", 1, 0.4, trace=True)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert result["correct"]
    assert (tmp_path / "trace-serve-1.json").is_file()


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
