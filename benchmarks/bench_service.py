"""Bench: service throughput/latency scaling across device workers.

Drives the concurrent service with the closed-loop load generator and
measures how throughput scales from one device worker to two on the
fusion strategy.  Wall-clock throughput of the *simulated* devices is
GIL-bound (every "device" executes vectorized NumPy in one process), so
the scaling claim is made on the **modeled** timeline — served requests
per modeled makespan, where the makespan is the busiest device's
accumulated simulated seconds (the same parallel-makespan aggregation
the multi-device strategy reports).  That is the quantity a real
multi-device deployment scales.

Acceptance (ISSUE 2): a 2-device fusion run must sustain >= 1.5x the
modeled throughput of a 1-device run, with zero dropped requests and a
warm plan cache.

Acceptance (ISSUE 9): at batchable load (a presubmitted same-expression
backlog, the deterministic stand-in for open-loop bursts), micro-batched
dispatch (``max_batch=8``) must sustain >= 1.3x the modeled throughput
of unbatched dispatch (``max_batch=1``) on fusion ``q_criterion`` — the
coalesced launch pays the kernel launch overhead and transfer link
latency once per batch instead of once per request.  The backlog is
built with the service stopped (``start=False``) and drained after
``start()``, so the worker sees a full queue and batch composition
is deterministic, which is what lets ``regress.py`` hard-gate the ratio.

Runs two ways:

* under pytest (the bench suite): writes ``bench_service.json``;
* standalone: ``python benchmarks/bench_service.py [--smoke]`` for the
  CI smoke step (reduced request count, same assertions).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.service import (DerivedFieldService, build_service,
                           default_cases, run_load)
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(8, 8, 12)
CLIENTS = 8
REQUESTS = 360
SMOKE_REQUESTS = 120
SCALING_FLOOR = 1.5
BATCH_REQUESTS = 96
SMOKE_BATCH_REQUESTS = 48
BATCH_FLOOR = 1.3

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _run_fleet(devices, cases, requests, clients) -> dict:
    """One closed-loop run, pinned to ``max_batch=1``: the scaling claim
    compares devices, so both fleets serve one request per launch.  A
    busy worker leaves same-key requests queued behind it, so with
    coalescing on, the fleets would batch by different amounts and the
    ratio would mix batching into device scaling (batching has its own
    gate, below)."""
    with DerivedFieldService(devices=devices, strategy="fusion",
                             queue_depth=max(2 * clients, 16),
                             max_batch=1) as service:
        report = run_load(service, cases, clients=clients,
                          requests=requests)
    report["devices_config"] = list(devices)
    return report


def _run_batch_config(cases, requests: int, max_batch: int) -> dict:
    """One deterministic batchable-load run: presubmit the whole backlog
    with the service stopped, then start it and drain."""
    service = build_service(("cpu",), strategy="fusion",
                            max_batch=max_batch, queue_depth=requests,
                            start=False)
    try:
        handles = [service.submit(cases[i % len(cases)].expression,
                                  cases[i % len(cases)].fields)
                   for i in range(requests)]
        service.start()
        for handle in handles:
            handle.result(timeout=120.0)
    finally:
        service.close()
    # Post-close snapshot: workers joined, outcome counters final.
    snapshot = service.snapshot()
    makespan = max(dev["modeled_seconds"]
                   for dev in snapshot["devices"].values())
    served = snapshot["requests"]["outcomes"]["served"]
    assert served == requests, \
        f"max_batch={max_batch}: only {served}/{requests} served"
    return {
        "max_batch": max_batch,
        "served": served,
        "modeled_makespan_seconds": makespan,
        "throughput_rps_modeled": served / makespan,
        "batching": snapshot["batching"],
    }


def run_batching_bench(requests: int = BATCH_REQUESTS) -> dict:
    """Batched vs unbatched modeled throughput at batchable load."""
    fields = make_fields(GRID, seed=13)
    cases = default_cases(fields, ("q_criterion",))
    unbatched = _run_batch_config(cases, requests, max_batch=1)
    batched = _run_batch_config(cases, requests, max_batch=8)
    assert unbatched["batching"]["coalesced_launches"] == 0, \
        "max_batch=1 must never coalesce"
    assert batched["batching"]["coalesced_launches"] > 0, \
        "batchable load never coalesced — worker batching is dead"
    ratio = (batched["throughput_rps_modeled"]
             / unbatched["throughput_rps_modeled"])
    return {
        "grid": GRID.label(),
        "requests": requests,
        "expression": "q_criterion",
        "strategy": "fusion",
        "batched_speedup_modeled": ratio,
        "floor": BATCH_FLOOR,
        "unbatched": unbatched,
        "batched": batched,
    }


def run_bench(requests: int = REQUESTS, clients: int = CLIENTS,
              batch_requests: int = BATCH_REQUESTS) -> dict:
    fields = make_fields(GRID, seed=13)
    cases = default_cases(fields)

    fleets = {
        "cpu_x1": ("cpu",),
        "cpu_x2": ("cpu", "cpu"),
        "cpu_gpu": ("cpu", "gpu"),
    }
    runs = {name: _run_fleet(devices, cases, requests, clients)
            for name, devices in fleets.items()}

    t1 = runs["cpu_x1"]["throughput_rps_modeled"]
    t2 = runs["cpu_x2"]["throughput_rps_modeled"]
    batching = run_batching_bench(batch_requests)
    artifact = {
        "grid": GRID.label(),
        "n_cells": GRID.n_cells,
        "requests": requests,
        "clients": clients,
        "strategy": "fusion",
        "modeled_scaling_2dev": t2 / t1,
        "batching": batching,
        "runs": runs,
    }

    for name, run in runs.items():
        assert run["dropped"] == 0, \
            f"{name}: {run['dropped']} requests dropped on the floor"
        assert run["outcomes"]["served"] == requests, \
            f"{name}: only {run['outcomes']['served']}/{requests} served"
        assert run["plan_cache"]["hit_rate"] > 0.0, \
            f"{name}: plan cache never hit"
    # The acceptance bars: 2 fusion device workers sustain >= 1.5x the
    # modeled throughput of 1, and batched dispatch >= 1.3x unbatched.
    assert t2 / t1 >= SCALING_FLOOR, \
        f"2-device modeled throughput only {t2 / t1:.2f}x 1-device"
    ratio = batching["batched_speedup_modeled"]
    assert ratio >= BATCH_FLOOR, \
        (f"batched modeled throughput only {ratio:.2f}x unbatched "
         f"(floor {BATCH_FLOOR}x)")
    return artifact


def test_bench_service_artifact(results_dir):
    artifact = run_bench()
    content = json.dumps(artifact, indent=2)
    (results_dir / "bench_service.json").write_text(content + "\n")
    print(f"\n[written to benchmarks/results/bench_service.json]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="service throughput/latency scaling bench")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced request count (CI smoke)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--clients", type=int, default=CLIENTS)
    args = parser.parse_args(argv)
    requests = args.requests if args.requests is not None else (
        SMOKE_REQUESTS if args.smoke else REQUESTS)
    batch_requests = (SMOKE_BATCH_REQUESTS if args.smoke
                      else BATCH_REQUESTS)

    artifact = run_bench(requests=requests, clients=args.clients,
                         batch_requests=batch_requests)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "bench_service.json"
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    scaling = artifact["modeled_scaling_2dev"]
    for name, run in artifact["runs"].items():
        print(f"{name}: served {run['outcomes']['served']}"
              f"/{run['requests']}, "
              f"{run['throughput_rps_modeled']:.0f} req/s modeled, "
              f"{run['throughput_rps_wall']:.0f} req/s wall, "
              f"cache hit rate "
              f"{100 * run['plan_cache']['hit_rate']:.1f}%")
    print(f"2-device vs 1-device modeled throughput: {scaling:.2f}x "
          f"(floor {SCALING_FLOOR}x)")
    batching = artifact["batching"]
    stats = batching["batched"]["batching"]
    print(f"batched (max_batch=8) vs unbatched modeled throughput: "
          f"{batching['batched_speedup_modeled']:.2f}x "
          f"(floor {BATCH_FLOOR}x; {stats['coalesced_requests']} requests "
          f"in {stats['coalesced_launches']} coalesced launches, "
          f"mean batch {stats['mean_batch_size']:.1f})")
    print(f"[written to {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
