"""The persistent plan cache: a restarted engine (fresh process state)
must warm from disk with zero recompiles, stale entries must
self-invalidate, and corrupt files must never crash an execution."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import vortex
from repro.codegen import DiskLookup, PlanDiskCache
from repro.codegen.compiled import codegen_token
from repro.host.engine import DerivedFieldEngine
from repro.metrics import MetricsRegistry, set_registry
from repro.primitives import DEFAULT_REGISTRY
from repro.strategies import plancache


def _codegen_values(registry):
    return {name: registry.value(f"repro_codegen_{name}_total")
            for name in ("compiles", "disk_hits", "disk_misses",
                         "invalidations", "fallbacks")}


def _run(tmp_path, small_fields, **engine_kwargs):
    """One engine in a fresh metrics registry; returns (report, counters)."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend="compiled",
                                    plan_cache_dir=tmp_path,
                                    **engine_kwargs)
        report = engine.execute(vortex.Q_CRITERION, small_fields)
    finally:
        set_registry(previous)
    return report, _codegen_values(registry)


def _cache_files(tmp_path):
    return sorted(p for p in os.listdir(tmp_path)
                  if p.endswith(".json"))


class TestWarmRestart:
    def test_second_engine_loads_from_disk(self, tmp_path, small_fields):
        first, counters1 = _run(tmp_path, small_fields)
        assert counters1["compiles"] == 1
        assert counters1["disk_misses"] == 1
        assert counters1["disk_hits"] == 0
        assert first.codegen.disposition == "cold-codegen"
        assert len(_cache_files(tmp_path)) == 1

        second, counters2 = _run(tmp_path, small_fields)
        assert counters2["compiles"] == 0, \
            "restarted engine recompiled despite a populated disk cache"
        assert counters2["disk_hits"] == 1
        assert counters2["disk_misses"] == 0
        assert second.codegen.disposition == "disk-hit"
        assert second.codegen.compiled
        assert second.output.tobytes() == first.output.tobytes()
        assert second.counts == first.counts
        assert second.mem_high_water == first.mem_high_water

    def test_memory_cache_clear_falls_back_to_disk(self, tmp_path,
                                                   small_fields):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                        backend="compiled",
                                        plan_cache_dir=tmp_path)
            engine.execute(vortex.Q_CRITERION, small_fields)
            engine.plan_cache.clear()
            report = engine.execute(vortex.Q_CRITERION, small_fields)
        finally:
            set_registry(previous)
        assert report.codegen.disposition == "disk-hit"
        assert _codegen_values(registry)["compiles"] == 1  # only the cold

    def test_fresh_process_restart(self, tmp_path, small_fields):
        """A genuinely separate Python process warms from the same
        directory: zero compiles, one disk hit, identical checksum."""
        script = r"""
import hashlib, json, sys
import numpy as np
from repro.analysis import vortex
from repro.host.engine import DerivedFieldEngine
from repro.metrics import get_registry
from repro.workloads import SubGrid, make_fields

fields = make_fields(SubGrid(6, 7, 8), seed=7)
engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                            backend="compiled",
                            plan_cache_dir=sys.argv[1])
report = engine.execute(vortex.Q_CRITERION, fields)
registry = get_registry()
print(json.dumps({
    "disposition": report.codegen.disposition,
    "compiles": registry.value("repro_codegen_compiles_total"),
    "disk_hits": registry.value("repro_codegen_disk_hits_total"),
    "sha": hashlib.sha256(report.output.tobytes()).hexdigest(),
}))
"""
        env = dict(os.environ)
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(os.path.join(root, "src"))

        def run_once():
            out = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True, text=True, env=env, check=True)
            return json.loads(out.stdout.strip().splitlines()[-1])

        first = run_once()
        second = run_once()
        assert first["disposition"] == "cold-codegen"
        assert first["compiles"] == 1
        assert second["disposition"] == "disk-hit"
        assert second["compiles"] == 0
        assert second["disk_hits"] == 1
        assert second["sha"] == first["sha"]


class TestInvalidation:
    def test_corrupted_file_recovers(self, tmp_path, small_fields):
        _run(tmp_path, small_fields)
        path = os.path.join(tmp_path, _cache_files(tmp_path)[0])
        with open(path, "w") as handle:
            handle.write("{ this is not json")
        report, counters = _run(tmp_path, small_fields)
        assert counters["invalidations"] == 1
        assert counters["compiles"] == 1      # re-codegen, not a crash
        assert report.codegen.disposition == "cold-codegen"
        assert report.output is not None

    def test_truncated_file_recovers(self, tmp_path, small_fields):
        first, _ = _run(tmp_path, small_fields)
        path = os.path.join(tmp_path, _cache_files(tmp_path)[0])
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        report, counters = _run(tmp_path, small_fields)
        assert counters["invalidations"] == 1
        assert counters["compiles"] == 1
        assert report.output.tobytes() == first.output.tobytes()

    def test_entry_with_broken_payload_recovers(self, tmp_path,
                                                small_fields):
        """A structurally valid file whose entry cannot be rebuilt is
        discarded and regenerated (from_entry failure path)."""
        _run(tmp_path, small_fields)
        path = os.path.join(tmp_path, _cache_files(tmp_path)[0])
        with open(path) as handle:
            payload = json.load(handle)
        payload["entry"]["sweep_source"] = "def _sweep(:\n    syntax error"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        report, counters = _run(tmp_path, small_fields)
        assert counters["invalidations"] == 1
        assert counters["compiles"] == 1
        assert report.codegen.disposition == "cold-codegen"

    def test_codegen_version_bump_invalidates(self, tmp_path,
                                              small_fields, monkeypatch):
        _run(tmp_path, small_fields)
        monkeypatch.setattr(plancache, "CODEGEN_VERSION",
                            plancache.CODEGEN_VERSION + 1)
        report, counters = _run(tmp_path, small_fields)
        assert counters["invalidations"] == 1
        assert counters["compiles"] == 1
        assert report.codegen.disposition == "cold-codegen"

    def test_invalidation_reaches_plancache_info(self, tmp_path,
                                                 small_fields):
        _run(tmp_path, small_fields)
        path = os.path.join(tmp_path, _cache_files(tmp_path)[0])
        with open(path, "w") as handle:
            handle.write("garbage")
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                        backend="compiled",
                                        plan_cache_dir=tmp_path)
            report = engine.execute(vortex.Q_CRITERION, small_fields)
        finally:
            set_registry(previous)
        assert report.cache.invalidations == 1
        assert registry.value(
            "repro_plancache_invalidations_total") == 1


class TestEarlierEntry:
    """``data/q_criterion_cg2.json`` is the disk entry an earlier build
    (``CODEGEN_VERSION`` 2, Python 3.11) wrote for ``small_fields``'s
    q_criterion.  It must keep loading: the sweep source, the runtime
    names it binds and the registry fingerprint are all unchanged."""

    def test_loads_as_disk_hit_with_same_bytes(self, tmp_path,
                                               small_fields):
        fixture = os.path.join(os.path.dirname(__file__), "data",
                               "q_criterion_cg2.json")
        with open(fixture) as handle:
            saved = json.load(handle)
        payload = saved["payload"]
        fingerprint = DEFAULT_REGISTRY.fingerprint()
        written_by = payload["token"].split(":")[1]
        if saved["python"] == "%d.%d" % sys.version_info[:2]:
            # Same bytecode: the fingerprint keyed into the entry's
            # file name must be the one this build computes.
            assert fingerprint == written_by
        else:
            # Registry bytecode differs between Python versions; re-key
            # the entry for this interpreter and check the rest.
            for field in ("token", "key"):
                payload[field] = payload[field].replace(written_by,
                                                        fingerprint)
        assert payload["token"] == codegen_token(DEFAULT_REGISTRY)
        name = hashlib.sha256(payload["key"].encode()).hexdigest()
        os.makedirs(tmp_path / "plans")
        with open(tmp_path / "plans" / f"{name}.json", "w") as handle:
            json.dump(payload, handle)

        loaded, counters = _run(tmp_path / "plans", small_fields)
        assert loaded.codegen.disposition == "disk-hit"
        assert counters["compiles"] == 0
        fresh, _ = _run(tmp_path / "fresh", small_fields)
        assert fresh.codegen.disposition == "cold-codegen"
        assert loaded.output.tobytes() == fresh.output.tobytes()
        with open(tmp_path / "fresh" / _cache_files(
                tmp_path / "fresh")[0]) as handle:
            assert json.load(handle)["entry"]["sweep_source"] \
                == payload["entry"]["sweep_source"]


class TestDiskCacheUnit:
    def test_store_and_load_roundtrip(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        key = ("not", "a", "real", "key")
        entry = {"payload": [1, 2, 3]}
        assert cache.store(key, "tok", entry)
        assert len(cache) == 1
        lookup = cache.load(key, "tok")
        assert isinstance(lookup, DiskLookup)
        assert lookup.status == "hit"
        assert lookup.entry == entry

    def test_token_mismatch_is_invalid_and_unlinks(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        cache.store("k", "tok-a", {"x": 1})
        assert cache.load("k", "tok-b").status == "invalid"
        assert len(cache) == 0
        assert cache.load("k", "tok-b").status == "miss"

    def test_missing_entry_is_miss(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        assert cache.load("nothing", "tok").status == "miss"

    def test_unwritable_root_fails_soft(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        cache = PlanDiskCache(blocked / "plans")
        assert cache.store("k", "tok", {"x": 1}) is False
        assert cache.load("k", "tok").status == "miss"

    def test_non_serializable_entry_fails_soft(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        assert cache.store("k", "tok", {"x": np.float64(1.5)}) in (
            True, False)  # never raises
