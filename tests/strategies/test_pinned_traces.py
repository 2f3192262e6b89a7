"""Pinned device traces of the three paper strategies.

Every execution's full event sequence — ``(kind, name, nbytes,
sim_seconds, ts_seconds)`` per event — and its allocator high-water mark
are recorded into ``pinned_traces.json`` and compared digest-for-digest.
Op order matters beyond the Table II counts: it fixes the modeled
timeline, the Fig 6 peak, and, for dry runs that run out of device memory
mid-plan, how many events happened and what the peak was before the
failing allocation.

Cases: the paper expressions plus the extra network shapes of
``tests/codegen/test_equivalence.py``, under roundtrip/staged/fusion, on
the CPU and GPU devices —

* ``live``: a small grid on a fresh unpooled environment (output bytes
  and generated OpenCL C pinned too);
* ``warm``: the second run through a pooled, plan-caching engine;
* ``dry``: every Table I sub-grid at full scale (GPU rows that run out of
  memory included);
* ``interpreted``: a tiny grid on the ``clc`` source interpreter, the
  differential oracle (output bytes and generated sources).

Regenerate the fixture (only when a change is *meant* to alter traces)
with ``PYTHONPATH=src python -m tests.strategies.test_pinned_traces``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import vortex
from repro.clsim.environment import CLEnvironment
from repro.errors import CLOutOfMemoryError
from repro.host.engine import DerivedFieldEngine
from repro.strategies import get_strategy
from repro.workloads import SubGrid, make_fields
from repro.workloads.datasets import TABLE1_SUBGRIDS, make_shapes

from ..codegen.test_equivalence import EXTRA_EXPRESSIONS

FIXTURE = Path(__file__).with_name("pinned_traces.json")

EXPRESSIONS = {**vortex.EXPRESSIONS, **EXTRA_EXPRESSIONS}
STRATEGIES = ("roundtrip", "staged", "fusion")
DEVICES = ("cpu", "gpu")
LIVE_GRID = SubGrid(6, 7, 8)
TINY_GRID = SubGrid(3, 3, 4)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _events_digest(env: CLEnvironment) -> dict:
    events = [(e.kind.name, e.name, e.nbytes, repr(e.sim_seconds),
               repr(e.ts_seconds)) for e in env.queue.log.events]
    return {"events": _sha(repr(events).encode()),
            "n_events": len(events),
            "mem_high_water": env.mem_high_water}


def _sources_digest(sources: dict[str, str]) -> str:
    return _sha(repr(sorted(sources.items())).encode())


def _network(expression: str):
    return DerivedFieldEngine(device="cpu").compile(expression).network


def _live(name: str, strategy: str, device: str) -> dict:
    fields = make_fields(LIVE_GRID, seed=7)
    env = CLEnvironment(device)
    report = get_strategy(strategy).execute(_network(EXPRESSIONS[name]),
                                            fields, env)
    return {**_events_digest(env),
            "output": _sha(report.output.tobytes()),
            "shape": list(report.output.shape),
            "sources": _sources_digest(report.generated_sources)}


def _warm(name: str, strategy: str, device: str) -> dict:
    fields = make_fields(LIVE_GRID, seed=7)
    engine = DerivedFieldEngine(device=device, strategy=strategy,
                                backend="vectorized")
    engine.execute(EXPRESSIONS[name], fields)
    report = engine.execute(EXPRESSIONS[name], fields)
    assert report.cache.hit
    return {**_events_digest(engine.environment),
            "output": _sha(report.output.tobytes())}


def _dry(name: str, strategy: str, device: str, grid: SubGrid) -> dict:
    network = _network(EXPRESSIONS[name])
    wanted = set(network.live_sources())
    shapes = {k: v for k, v in make_shapes(grid).items() if k in wanted}
    env = CLEnvironment(device)
    executor = get_strategy(strategy)
    try:
        executor.build_plan(
            network, *executor.prepare(network, shapes)).model(
                env.context.allocator, env.queue.log)
        failed = False
    except CLOutOfMemoryError:
        failed = True
    return {**_events_digest(env), "failed": failed}


def _interpreted(name: str, strategy: str) -> dict:
    fields = make_fields(TINY_GRID, seed=3)
    env = CLEnvironment("cpu", backend="interpreted")
    report = get_strategy(strategy).execute(_network(EXPRESSIONS[name]),
                                            fields, env)
    return {**_events_digest(env),
            "output": _sha(report.output.tobytes()),
            "sources": _sources_digest(report.generated_sources)}


def _cases():
    for name in sorted(EXPRESSIONS):
        for strategy in STRATEGIES:
            yield f"interpreted/{name}/{strategy}", \
                lambda n=name, s=strategy: _interpreted(n, s)
            for device in DEVICES:
                base = f"{name}/{strategy}/{device}"
                yield f"live/{base}", \
                    lambda n=name, s=strategy, d=device: _live(n, s, d)
                yield f"warm/{base}", \
                    lambda n=name, s=strategy, d=device: _warm(n, s, d)
                for grid in TABLE1_SUBGRIDS:
                    yield f"dry/{base}/{grid.label()}", \
                        lambda n=name, s=strategy, d=device, g=grid: \
                        _dry(n, s, d, g)


CASES = dict(_cases())


@functools.lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_pin(case):
    assert CASES[case]() == _pinned()[case]


def test_pin_covers_every_case():
    assert sorted(_pinned()) == sorted(CASES)


def test_pin_includes_out_of_memory_rows():
    """The GPU sub-grids that fail mid-plan are part of the pin — their
    partial event counts and pre-failure peaks depend on op order."""
    pinned = _pinned()
    failed = [case for case, value in pinned.items()
              if value.get("failed")]
    assert failed and all("/gpu/" in case for case in failed)
    assert all(pinned[case]["n_events"] > 0 for case in failed)


if __name__ == "__main__":
    lines = (f"{json.dumps(case)}: {json.dumps(run(), sort_keys=True)}"
             for case, run in sorted(CASES.items()))
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(CASES)} pinned cases to {FIXTURE}")
