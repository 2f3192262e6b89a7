#!/usr/bin/env python
"""Continuous benchmark telemetry and the regression gate.

Each invocation runs the warm-path benchmark suite and appends one
normalized data point — ``BENCH_<n>.json`` — to the perf trajectory in
``benchmarks/results/`` (or ``--results-dir``):

* **cache** — warm ``execute()`` through the plan cache for
  q_criterion on all three paper strategies (median wall seconds,
  modeled seconds, peak device bytes, Table II event counts);
* **service** — a small closed-loop run against the concurrent
  service (wall seconds, served count, modeled device seconds);
* **fig5** — a paper-scale dry-run subset (Table I row 6 grids)
  through the device model: modeled runtime, peak bytes, event counts
  — fully deterministic, so any drift is a real behavior change;
* **overhead** — the metrics-registry cost on the warm fusion path,
  computed by op accounting: exact per-run op counts x per-op cost
  over the null instrument, divided by warm wall time (the acceptance
  bar is <= 1% of wall time; gate with ``--check-overhead``);
* **recorder overhead** — the always-on flight recorder's cost on the
  same warm path, by the same op-accounting construction (spans
  folded, device-event batches bridged, counter samples, plan notes
  vs the null tracer; ISSUE 10's bar is <= 2%; gate with
  ``--check-recorder-overhead``);
* **codegen** — the compiled-executor acceptance gates: warm compiled
  fusion must beat the pinned interpreter case by >= 1.5x wall with
  bitwise-identical output, and a fresh engine against a populated
  plan-cache directory must warm with zero codegen compiles;
* **batching** — the micro-batching acceptance gate (ISSUE 9): at a
  deterministic batchable load (presubmitted same-expression backlog),
  batched dispatch (``max_batch=8``) must sustain >= 1.3x the modeled
  throughput of unbatched dispatch (``max_batch=1``) on fusion
  q_criterion.  Both runs drain a stopped-then-started service, so the
  modeled ratio is deterministic and safe to hard-gate.

The new artifact is diffed against the previous ``BENCH_<n-1>.json``:
a *hard-gated* metric (modeled seconds, peak device bytes — both
deterministic) that regressed by more than ``--threshold`` (default
15%) fails the run with exit status 1; wall-clock regressions warn
(``--strict-wall`` promotes them to failures on quiet machines).
``--synthetic-slowdown 0.2`` inflates the measured wall and modeled
times by 20% after measurement, to demonstrate the gate trips.

Run as ``PYTHONPATH=src python benchmarks/regress.py`` (CI's
bench-regression job does exactly that and uploads the artifact).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS  # noqa: E402
from repro.experiments import run_case  # noqa: E402
from repro.host.engine import DerivedFieldEngine  # noqa: E402
from repro.metrics import MetricsRegistry, set_registry  # noqa: E402
from repro.workloads import SubGrid, TABLE1_SUBGRIDS, make_fields  # noqa: E402

ARTIFACT_RE = re.compile(r"^BENCH_(\d+)\.json$")
SCHEMA_VERSION = 1

WARM_GRID = SubGrid(16, 16, 32)      # the derive default
STRATEGIES = ("roundtrip", "staged", "fusion")
FIG5_ROW = 6                          # Table I row used for the subset

# Metrics the gate compares between consecutive artifacts.  Hard-gated
# metrics are deterministic outputs of the device model — any drift is
# a real behavior change, so >threshold fails the run.  Wall times are
# soft by default (warn only): on a shared machine their run-to-run
# noise exceeds any useful threshold (pass --strict-wall to gate them
# anyway on a quiet, dedicated box).
HARD_GATED_METRICS = ("modeled_s", "peak_device_bytes")
SOFT_GATED_METRICS = ("wall_s",)


def _case_record(report, wall_s):
    return {
        "wall_s": wall_s,
        "modeled_s": report.timing.total,
        "peak_device_bytes": report.mem_high_water,
        "events": {
            "dev_writes": report.counts.dev_writes,
            "dev_reads": report.counts.dev_reads,
            "kernel_execs": report.counts.kernel_execs,
        },
    }


def bench_cache(rounds: int) -> dict:
    """Warm plan-cache executes: q_criterion on all three strategies.

    The default engines now run the compiled executor where it applies
    (fusion); ``cache.q_criterion.fusion_interpreted`` pins the
    interpreter so the compiled speedup is measured head to head on the
    same inputs, with bitwise-identical outputs asserted.
    """
    fields = make_fields(WARM_GRID, seed=0)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}
    cases = {}
    outputs = {}
    configs = [(f"cache.q_criterion.{s}", s, None) for s in STRATEGIES]
    configs.append(("cache.q_criterion.fusion_interpreted", "fusion",
                    "vectorized"))
    for case_name, strategy, backend in configs:
        engine = DerivedFieldEngine(device="cpu", strategy=strategy,
                                    backend=backend)
        compiled = engine.compile(EXPRESSIONS["q_criterion"])
        engine.execute(compiled, inputs)          # populate the cache
        samples = []
        report = None
        for _ in range(rounds):
            start = time.perf_counter()
            report = engine.execute(compiled, inputs)
            samples.append(time.perf_counter() - start)
        assert report.cache is not None and report.cache.hit
        record = _case_record(report, statistics.median(samples))
        if report.codegen is not None:
            record["executor"] = report.codegen.backend
        cases[case_name] = record
        outputs[case_name] = report.output.tobytes()
    assert outputs["cache.q_criterion.fusion"] == \
        outputs["cache.q_criterion.fusion_interpreted"], \
        "compiled fusion output diverged from the interpreter"
    return cases


def bench_compiled_speedup(rounds: int) -> dict:
    """Head-to-head wall gate: warm compiled fusion vs the pinned
    interpreter on the same inputs.

    The trajectory cases keep their median ``wall_s`` at the requested
    round count; this gate needs a noise-robust estimate even when
    ``--rounds`` is tiny (the test harness passes 2), so it interleaves
    the two engines round by round (slow system phases hit both
    equally) and takes the minimum over at least 20 rounds — wall noise
    is one-sided additive, so min converges on the true cost.
    """
    rounds = max(rounds, 20)
    fields = make_fields(WARM_GRID, seed=0)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}
    engines = {}
    for label, backend in (("interpreted", "vectorized"),
                           ("compiled", "compiled")):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                    backend=backend)
        compiled = engine.compile(EXPRESSIONS["q_criterion"])
        engine.execute(compiled, inputs)                     # warm
        engines[label] = (engine, compiled)
    best = {label: None for label in engines}
    for _ in range(rounds):
        for label, (engine, compiled) in engines.items():
            start = time.perf_counter()
            engine.execute(compiled, inputs)
            elapsed = time.perf_counter() - start
            if best[label] is None or elapsed < best[label]:
                best[label] = elapsed
    return {
        "rounds": rounds,
        "interpreted_best_s": best["interpreted"],
        "compiled_best_s": best["compiled"],
        "speedup": best["interpreted"] / best["compiled"],
    }


def bench_codegen_restart() -> dict:
    """Persistent-plan-cache restart: a fresh engine against a populated
    ``--plan-cache-dir`` must report zero codegen compiles."""
    import tempfile

    fields = make_fields(WARM_GRID, seed=0)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}
    phases = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        for phase in ("cold", "restart"):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                engine = DerivedFieldEngine(device="cpu",
                                            strategy="fusion",
                                            backend="compiled",
                                            plan_cache_dir=cache_dir)
                start = time.perf_counter()
                report = engine.execute(EXPRESSIONS["q_criterion"],
                                        inputs)
                wall = time.perf_counter() - start
            finally:
                set_registry(previous)
            phases[phase] = {
                "first_execute_wall_s": wall,
                "disposition": report.codegen.disposition,
                "compiles": registry.value(
                    "repro_codegen_compiles_total"),
                "disk_hits": registry.value(
                    "repro_codegen_disk_hits_total"),
            }
    return phases


def bench_service(requests: int, clients: int) -> dict:
    """A small closed-loop run against the concurrent service.

    Pinned to ``max_batch=1``: the trajectory metric is per-request
    serving cost, which opportunistic closed-loop coalescing would
    turn nondeterministic (batching has its own gate, below).
    """
    from repro.service import build_service, default_cases, run_load

    fields = make_fields(WARM_GRID, seed=0)
    cases = default_cases(fields, ["q_criterion"])
    start = time.perf_counter()
    with build_service(("cpu",), max_batch=1) as service:
        load = run_load(service, cases, clients=clients, requests=requests)
        snapshot = service.snapshot()
    wall = time.perf_counter() - start
    modeled = sum(d["modeled_seconds"]
                  for d in snapshot["devices"].values())
    return {
        "service.q_criterion": {
            "wall_s": wall,
            "modeled_s": modeled,
            "served": load["outcomes"].get("served", 0),
            "requests": requests,
        },
    }


def bench_batching() -> dict:
    """The micro-batching acceptance ratio (deterministic; see
    ``bench_service.run_batching_bench``)."""
    import bench_service as service_bench

    return service_bench.run_batching_bench(
        service_bench.SMOKE_BATCH_REQUESTS)


def bench_fig5_subset() -> dict:
    """Paper-scale dry-run subset: deterministic modeled numbers."""
    grid = TABLE1_SUBGRIDS[FIG5_ROW - 1]
    cases = {}
    for strategy in STRATEGIES:
        result = run_case("q_criterion", grid, "gpu", strategy)
        cases[f"fig5.q_criterion.gpu.{strategy}"] = {
            "modeled_s": result.runtime if not result.failed else None,
            "peak_device_bytes": result.mem_high_water,
            "events": {
                "dev_writes": result.dev_writes,
                "dev_reads": result.dev_reads,
                "kernel_execs": result.kernel_execs,
            },
            "failed": result.failed,
        }
    return cases


class _CountingInstrument:
    """Null-shaped instrument that tallies update calls by kind."""

    def __init__(self, ops):
        self._ops = ops

    def labels(self, **labels):
        return self

    def inc(self, amount=1.0):
        self._ops["inc"] += 1

    def dec(self, amount=1.0):
        self._ops["inc"] += 1            # dec costs the same as inc

    def set(self, value):
        self._ops["set"] += 1

    def set_max(self, value):
        self._ops["set_max"] += 1

    def observe(self, value):
        self._ops["observe"] += 1


class _CountingRegistry:
    """Counts every instrument update so the warm path's metric traffic
    can be measured exactly (one number per op kind per run)."""

    def __init__(self):
        self.ops = {"inc": 0, "set": 0, "set_max": 0, "observe": 0}
        self._instrument = _CountingInstrument(self.ops)

    def counter(self, name, help="", labelnames=()):
        return self._instrument

    def gauge(self, name, help="", labelnames=()):
        return self._instrument

    def histogram(self, name, help="", labelnames=(), buckets=()):
        return self._instrument


def _op_cost(callable_, loops: int = 200_000, repeats: int = 5) -> float:
    """Per-call seconds for a metric op, min over tight-loop repeats."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            callable_()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / loops


def bench_registry_overhead(rounds: int) -> dict:
    """Registry cost on the warm fusion path, by op accounting.

    A head-to-head wall-time A/B of real vs null registry cannot
    resolve a sub-1% effect on a ~2.6 ms run against multi-percent
    scheduler jitter, so the overhead is computed from exact parts:
    count the metric ops one warm execute performs (a counting
    registry), microbenchmark each op kind's per-call cost against the
    null instrument, and divide the summed delta by the warm wall time.

    Load on the host inflates whichever measurement it lands on, so the
    two are taken alike: short per-op loops (each about as long as one
    warm run) interleaved with batches of warm runs, and the minimum of
    each kept — the sample that ran undisturbed.
    """
    fields = make_fields(WARM_GRID, seed=0)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}

    def build(registry):
        previous = set_registry(registry)
        try:
            engine = DerivedFieldEngine(device="cpu", strategy="fusion")
            compiled = engine.compile(EXPRESSIONS["q_criterion"])
            engine.execute(compiled, inputs)
            return engine, compiled
        finally:
            set_registry(previous)

    # Exact op counts for one warm run (deterministic).
    counting = _CountingRegistry()
    engine, compiled = build(counting)
    counting.ops.update({k: 0 for k in counting.ops})
    engine.execute(compiled, inputs)
    ops = dict(counting.ops)

    # Per-op cost of the real instruments over the null baseline, and
    # the warm wall time with the real registry in place, interleaved.
    registry = MetricsRegistry()
    counter = registry.counter("bench_ops_total", "overhead probe")
    gauge = registry.gauge("bench_ops_bytes", "overhead probe")
    histogram = registry.histogram("bench_ops_seconds", "overhead probe")
    from repro.metrics.registry import _NULL_INSTRUMENT
    probes = {
        "null": _NULL_INSTRUMENT.inc,
        "inc": counter.inc,
        "set": lambda: gauge.set(1.0),
        "set_max": lambda: gauge.set_max(1.0),
        "observe": lambda: histogram.observe(1e-4),
    }
    engine, compiled = build(MetricsRegistry())
    best = dict.fromkeys(probes, float("inf"))
    wall = float("inf")
    for _ in range(max(rounds, 30)):
        for kind, probe in probes.items():
            best[kind] = min(best[kind],
                             _op_cost(probe, loops=5_000, repeats=1))
        wall = min(wall, *_timed_runs(engine, compiled, inputs, 3))
    cost = {kind: best[kind] - best["null"] for kind in ops}
    overhead_s = sum(ops[kind] * max(0.0, cost[kind]) for kind in ops)
    return {
        "warm_wall_s": wall,
        "overhead_s": overhead_s,
        "ops_per_run": ops,
        "op_cost_s": cost,
        "fraction": overhead_s / wall,
    }


def bench_recorder_overhead(rounds: int) -> dict:
    """Flight-recorder cost on the warm fusion path, by op accounting.

    Same model as :func:`bench_registry_overhead` — a wall-time A/B of
    recorder vs ``NULL_TRACER`` cannot resolve a <=2% effect against
    scheduler jitter, so the cost is built from exact parts: one warm
    execute's sealed :class:`~repro.obs.FlightRecorder` record gives the
    per-run op counts (spans folded, device-event batches bridged,
    counter samples offered, plan notes), each op kind is
    microbenchmarked against the null tracer, and the summed delta is
    divided by the measured warm wall time with the recorder installed.
    The ISSUE 10 acceptance bar is <= 2% (gate with
    ``--check-recorder-overhead``).
    """
    from repro.obs import FlightRecorder
    from repro.trace import NULL_TRACER

    fields = make_fields(WARM_GRID, seed=0)
    inputs = {k: fields[k] for k in EXPRESSION_INPUTS["q_criterion"]}

    # Exact op counts for one warm run: the engine's root span seals a
    # record; its contents are the per-run recorder traffic.
    recorder = FlightRecorder()
    engine = DerivedFieldEngine(device="cpu", strategy="fusion",
                                tracer=recorder)
    compiled = engine.compile(EXPRESSIONS["q_criterion"])
    engine.execute(compiled, inputs)              # populate the cache
    engine.execute(compiled, inputs)              # the counted warm run
    record = recorder.records()[-1]
    ops = {
        "spans": len(record.spans) + record.dropped_spans,
        "batches": len(record.batches) + record.dropped_batches,
        "plan_notes": 0 if record.plan is None else 1,
    }
    # Counter samples never land on a non-retain recorder, so count the
    # offered calls with a retained twin on the same warm path.
    retained = FlightRecorder(retain=True)
    twin = DerivedFieldEngine(device="cpu", strategy="fusion",
                              tracer=retained)
    twin_compiled = twin.compile(EXPRESSIONS["q_criterion"])
    twin.execute(twin_compiled, inputs)
    before = len(retained.counters)
    twin.execute(twin_compiled, inputs)
    ops["counters"] = len(retained.counters) - before

    # Per-op recorder cost over the null tracer, measured inside a held
    # root span so child spans accumulate instead of sealing.
    events = max((b.events for b in record.batches),
                 key=len, default=())
    loops = 20_000

    def tracer_costs(tracer):
        with tracer.span("bench-root") as root:
            trace_id = getattr(root, "trace_id", None)
            span = _op_cost(
                lambda: tracer.span("bench-child").__enter__()
                .__exit__(None, None, None), loops=loops)
            batch = _op_cost(
                lambda: tracer.add_device_events(
                    "bench-dev", events, anchor=0.0, trace_id=trace_id),
                loops=2_000)
            counter = _op_cost(
                lambda: tracer.counter("bench_counter", 1.0),
                loops=loops)
            note = _op_cost(
                lambda: tracer.note_plan("bench-key",
                                         disposition="memory-hit"),
                loops=loops)
        root_cost = _op_cost(
            lambda: tracer.span("bench-root").__enter__()
            .__exit__(None, None, None), loops=2_000)
        return {"span": span, "root": root_cost, "batch": batch,
                "counter": counter, "note": note}

    real = tracer_costs(FlightRecorder())
    null = tracer_costs(NULL_TRACER)
    cost = {k: max(0.0, real[k] - null[k]) for k in real}
    overhead_s = (
        max(ops["spans"] - 1, 0) * cost["span"]
        + cost["root"]                        # the sealing root span
        + ops["batches"] * cost["batch"]
        + ops["counters"] * cost["counter"]
        + ops["plan_notes"] * cost["note"])

    # Warm wall time with the recorder installed.
    wall = statistics.median(_timed_runs(engine, compiled, inputs,
                                         max(rounds, 20)))
    return {
        "warm_wall_s": wall,
        "overhead_s": overhead_s,
        "ops_per_run": ops,
        "op_cost_s": cost,
        "events_per_batch": len(events),
        "fraction": overhead_s / wall,
    }


def _timed_runs(engine, compiled, inputs, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        engine.execute(compiled, inputs)
        samples.append(time.perf_counter() - start)
    return samples


# -- trajectory bookkeeping --------------------------------------------------

def trajectory(results_dir: pathlib.Path) -> list[tuple[int, pathlib.Path]]:
    points = []
    if results_dir.is_dir():
        for path in results_dir.iterdir():
            match = ARTIFACT_RE.match(path.name)
            if match:
                points.append((int(match.group(1)), path))
    return sorted(points)


def diff_gate(previous: dict, current: dict, threshold: float,
              ) -> tuple[list[str], list[str]]:
    """Gated-metric comparison.

    Returns ``(hard, soft)`` regression descriptions: *hard* entries
    fail the run, *soft* entries (wall times) warn unless
    ``--strict-wall`` promotes them.
    """
    hard, soft = [], []
    for name, new_case in current["cases"].items():
        old_case = previous.get("cases", {}).get(name)
        if old_case is None:
            continue
        for metric in HARD_GATED_METRICS + SOFT_GATED_METRICS:
            old = old_case.get(metric)
            new = new_case.get(metric)
            if not old or new is None:       # no baseline (0/None): skip
                continue
            ratio = new / old
            if ratio > 1.0 + threshold:
                bucket = hard if metric in HARD_GATED_METRICS else soft
                bucket.append(
                    f"{name}.{metric}: {old:.6g} -> {new:.6g} "
                    f"({(ratio - 1.0) * 100:+.1f}%, threshold "
                    f"+{threshold * 100:.0f}%)")
    return hard, soft


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the warm-path benchmarks, append a BENCH_<n> "
                    "artifact, and gate on regression vs the previous "
                    "point")
    parser.add_argument("--results-dir", type=pathlib.Path,
                        default=HERE / "results",
                        help="trajectory directory (default "
                             "benchmarks/results)")
    parser.add_argument("--rounds", type=int, default=30,
                        help="warm rounds per cache case (default 30)")
    parser.add_argument("--requests", type=int, default=80,
                        help="service-bench requests (default 80)")
    parser.add_argument("--clients", type=int, default=4,
                        help="service-bench client threads (default 4)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that fails the gate "
                             "(default 0.15)")
    parser.add_argument("--synthetic-slowdown", type=float, default=0.0,
                        metavar="FRACTION",
                        help="inflate measured warm wall times by this "
                             "fraction (demonstrates the gate trips)")
    parser.add_argument("--check-overhead", type=float, default=None,
                        metavar="PCT",
                        help="also fail if registry overhead exceeds "
                             "PCT percent of warm wall time")
    parser.add_argument("--check-recorder-overhead", type=float,
                        default=None, metavar="PCT",
                        help="also fail if flight-recorder overhead "
                             "exceeds PCT percent of warm wall time "
                             "(ISSUE 10 bar: 2.0)")
    parser.add_argument("--strict-wall", action="store_true",
                        help="fail (not just warn) on wall-time "
                             "regressions; for quiet dedicated machines")
    args = parser.parse_args(argv)

    print(f"warm cache bench ({args.rounds} rounds x "
          f"{len(STRATEGIES)} strategies) ...")
    cases = bench_cache(args.rounds)
    print(f"service bench ({args.requests} requests, "
          f"{args.clients} clients) ...")
    cases.update(bench_service(args.requests, args.clients))
    print("fig5 paper-scale subset (dry-run) ...")
    cases.update(bench_fig5_subset())
    print("registry overhead (real vs null registry) ...")
    overhead = bench_registry_overhead(max(args.rounds, 20))
    print("flight-recorder overhead (recorder vs null tracer) ...")
    recorder_overhead = bench_recorder_overhead(max(args.rounds, 20))
    print("compiled executor head-to-head ...")
    headtohead = bench_compiled_speedup(args.rounds)
    print("codegen disk-cache restart ...")
    restart = bench_codegen_restart()
    print("micro-batched vs unbatched service dispatch ...")
    batching = bench_batching()

    if args.synthetic_slowdown:
        # Inflate measured AND modeled times: modeled_s is deterministic,
        # so the gate trip is guaranteed regardless of wall-clock noise.
        for case in cases.values():
            for metric in ("wall_s", "modeled_s"):
                if case.get(metric):
                    case[metric] *= 1.0 + args.synthetic_slowdown
        print(f"synthetic slowdown applied: "
              f"+{args.synthetic_slowdown * 100:.0f}% on wall_s/modeled_s")

    points = trajectory(args.results_dir)
    seq = points[-1][0] + 1 if points else 1
    artifact = {
        "schema": SCHEMA_VERSION,
        "seq": seq,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {
            "grid": WARM_GRID.label(),
            "rounds": args.rounds,
            "requests": args.requests,
            "clients": args.clients,
            "synthetic_slowdown": args.synthetic_slowdown,
        },
        "registry_overhead": overhead,
        "recorder_overhead": recorder_overhead,
        "codegen_speedup": headtohead,
        "codegen_restart": restart,
        "batching": batching,
        "cases": cases,
    }
    args.results_dir.mkdir(parents=True, exist_ok=True)
    path = args.results_dir / f"BENCH_{seq}.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {path} "
          f"({len(cases)} cases, registry overhead "
          f"{overhead['fraction'] * 100:.2f}%)")

    failed = False
    if points:
        previous = json.loads(points[-1][1].read_text())
        hard, soft = diff_gate(previous, artifact, args.threshold)
        if args.strict_wall:
            hard, soft = hard + soft, []
        for line in soft:
            print(f"WARNING (wall-clock, not gated): {line}",
                  file=sys.stderr)
        if hard:
            print(f"REGRESSION vs BENCH_{points[-1][0]}.json:",
                  file=sys.stderr)
            for line in hard:
                print(f"  {line}", file=sys.stderr)
            failed = True
        else:
            print(f"no regression vs BENCH_{points[-1][0]}.json "
                  f"(threshold +{args.threshold * 100:.0f}%)")
    else:
        print("first trajectory point; nothing to diff against")

    if args.check_overhead is not None \
            and overhead["fraction"] * 100 > args.check_overhead:
        print(f"REGISTRY OVERHEAD {overhead['fraction'] * 100:.2f}% "
              f"exceeds {args.check_overhead:.2f}% of warm wall time",
              file=sys.stderr)
        failed = True

    print(f"flight-recorder overhead: "
          f"{recorder_overhead['fraction'] * 100:.2f}% of warm wall "
          f"({recorder_overhead['overhead_s'] * 1e6:.1f} us over "
          f"{recorder_overhead['warm_wall_s'] * 1e3:.2f} ms)")
    if args.check_recorder_overhead is not None \
            and recorder_overhead["fraction"] * 100 \
            > args.check_recorder_overhead:
        print(f"RECORDER OVERHEAD "
              f"{recorder_overhead['fraction'] * 100:.2f}% exceeds "
              f"{args.check_recorder_overhead:.2f}% of warm wall time",
              file=sys.stderr)
        failed = True

    # Compiled-executor acceptance gates (ISSUE 6): the compiled warm
    # fusion path must beat the interpreter by >= 1.5x wall, and a
    # restarted engine must warm from disk with zero recompiles.
    speedup = headtohead["speedup"]
    print(f"compiled warm fusion speedup over interpreter: "
          f"{speedup:.2f}x (interleaved best-of-"
          f"{headtohead['rounds']})")
    if speedup < 1.5:
        print(f"COMPILED SPEEDUP {speedup:.2f}x below the 1.5x "
              "acceptance bar", file=sys.stderr)
        failed = True
    if restart["restart"]["compiles"] != 0 \
            or restart["restart"]["disk_hits"] < 1:
        print("CODEGEN RESTART recompiled instead of warming from the "
              f"disk cache: {restart['restart']}", file=sys.stderr)
        failed = True
    else:
        print("codegen restart: zero recompiles "
              f"({restart['restart']['disposition']}, first execute "
              f"{restart['restart']['first_execute_wall_s'] * 1e3:.1f} ms "
              f"vs cold "
              f"{restart['cold']['first_execute_wall_s'] * 1e3:.1f} ms)")

    # Micro-batching acceptance gate (ISSUE 9): coalesced dispatch must
    # sustain >= 1.3x the unbatched modeled throughput at batchable
    # load.  Deterministic (presubmitted backlog), so hard-gated.
    batch_ratio = batching["batched_speedup_modeled"]
    batch_stats = batching["batched"]["batching"]
    print(f"batched dispatch modeled throughput: {batch_ratio:.2f}x "
          f"unbatched (mean batch {batch_stats['mean_batch_size']:.1f} "
          f"over {batch_stats['coalesced_launches']} coalesced launches)")
    if batch_ratio < batching["floor"]:
        print(f"BATCHED THROUGHPUT {batch_ratio:.2f}x below the "
              f"{batching['floor']}x acceptance bar", file=sys.stderr)
        failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
