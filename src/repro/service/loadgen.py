"""Closed-loop synthetic load generation and the latency/throughput report.

Drives a :class:`~repro.service.DerivedFieldService` the way a saturating
host application would: ``clients`` threads each submit a request, block
for its outcome, and immediately submit the next (a *closed loop* — load
self-limits to service capacity, so the measured latency is service
latency, not queueing-from-overdrive).  The request stream round-robins
over a deterministic case list (the three paper vortex expressions by
default), so runs are reproducible and every expression's latency
histogram fills evenly.

Two throughput figures come out:

* **wall throughput** — served requests / host wall-clock seconds.  The
  simulated devices execute as vectorized NumPy inside one Python
  process, so wall throughput mostly measures the host, not the modeled
  fleet;
* **modeled throughput** — served requests / modeled makespan, where the
  makespan is the busiest device's accumulated simulated seconds
  (devices run concurrently in the model, exactly like the multi-device
  strategy's aggregation).  This is the figure that must scale with
  device count — the service analogue of Fig 5's per-device timing.

Two load shapes are supported: the default **closed loop** above, and an
**open loop** (``mode="open"``) where a single submitter offers requests
at a fixed rate (or as fast as it can) *without* waiting for outcomes —
the arrival process is independent of service speed, so bursts pile up
in the admission queue and each worker's batch take has same-plan
neighbors to coalesce.  Open-loop is how batchable load actually arrives
(many in-situ producers per timestep), and it is the mode the
batched-throughput benchmark drives.

Every request resolves to exactly one of served / rejected / timed-out /
failed / cancelled; :func:`run_load` counts them and reports
``dropped = requests - resolved``, which a healthy service keeps at 0.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, Optional, Sequence

import numpy as np

from ..analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from ..errors import ReproError, RequestCancelled, RequestTimedOut, \
    ServiceOverloaded
from .service import DerivedFieldService

__all__ = ["LoadCase", "build_service", "default_cases", "run_load",
           "format_load_report"]


def build_service(devices: Sequence = ("cpu",),
                  strategy: str = "fusion", *,
                  backend: Optional[str] = None,
                  plan_cache_dir=None,
                  max_batch: int = 8,
                  batch_window: float = 0.0,
                  queue_depth: Optional[int] = None,
                  default_timeout: Optional[float] = None,
                  start: bool = True,
                  tracer=None,
                  metrics_registry=None,
                  obs=None,
                  debug_bundle_dir=None) -> DerivedFieldService:
    """Construct a :class:`DerivedFieldService` with the *same* engine-
    option spelling the engine and ``derive`` CLI use.

    One signature for every entry point — ``DerivedFieldService``
    directly, ``python -m repro serve``, and benchmark drivers — so
    ``backend=`` / ``plan_cache_dir=`` / ``max_batch=`` mean the same
    thing everywhere instead of three ad-hoc spellings.  ``queue_depth``
    defaults to the service's own default when ``None``.
    """
    kwargs: dict = {}
    if queue_depth is not None:
        kwargs["queue_depth"] = queue_depth
    return DerivedFieldService(
        devices=devices, strategy=strategy, backend=backend,
        plan_cache_dir=plan_cache_dir, max_batch=max_batch,
        batch_window=batch_window, default_timeout=default_timeout,
        start=start, tracer=tracer, metrics_registry=metrics_registry,
        obs=obs, debug_bundle_dir=debug_bundle_dir, **kwargs)


class LoadCase:
    """One request template: a named expression plus its bound arrays."""

    def __init__(self, name: str, expression: str,
                 fields: Mapping[str, np.ndarray]):
        self.name = name
        self.expression = expression
        self.fields = fields


def default_cases(fields: Mapping[str, np.ndarray],
                  names: Optional[Sequence[str]] = None) -> list[LoadCase]:
    """The paper's vortex expressions over one synthetic workload."""
    names = tuple(names) if names else tuple(EXPRESSIONS)
    cases = []
    for name in names:
        if name not in EXPRESSIONS:
            raise ValueError(f"unknown expression {name!r}; "
                             f"choose from {sorted(EXPRESSIONS)}")
        inputs = {k: fields[k] for k in EXPRESSION_INPUTS[name]}
        cases.append(LoadCase(name, EXPRESSIONS[name], inputs))
    return cases


def run_load(service: DerivedFieldService, cases: Sequence[LoadCase], *,
             clients: int, requests: int,
             timeout: Optional[float] = None,
             mode: str = "closed",
             rate_rps: Optional[float] = None,
             inject_deadline_miss: int = 0) -> dict:
    """Drive ``requests`` total requests through the service; returns the
    JSON-able load report.

    ``mode="closed"`` (default): ``clients`` threads each submit, block
    for the outcome, and immediately submit the next — load self-limits
    to service capacity.  ``mode="open"``: one submitter offers the whole
    stream without waiting (paced at ``rate_rps`` when given, else as
    fast as it can), then collects every outcome — arrivals are
    independent of service speed, which is what queues up the same-plan
    neighbors micro-batching coalesces.  ``clients`` is ignored open-loop.

    ``inject_deadline_miss`` forces the first N submitted requests to
    report an expired deadline at the worker's post-execution checkpoint
    (:meth:`~repro.service.request.ServiceRequest.force_deadline_miss`)
    — a deterministic fault injection that exercises deadline-miss debug
    bundles and the SLO error-burn path without racing real clocks.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"load mode must be 'closed' or 'open': {mode!r}")
    if clients < 1:
        raise ValueError(f"need at least one client: {clients}")
    if not cases:
        raise ValueError("need at least one load case")

    counter_lock = threading.Lock()
    next_index = 0
    injected = 0

    def take_index() -> Optional[int]:
        nonlocal next_index
        with counter_lock:
            if next_index >= requests:
                return None
            index = next_index
            next_index += 1
            return index

    def maybe_inject(handle) -> None:
        nonlocal injected
        if injected >= inject_deadline_miss:
            return
        with counter_lock:
            if injected >= inject_deadline_miss:
                return
            injected += 1
        handle.force_deadline_miss()

    outcomes = ["unresolved"] * requests

    def settle(index: int, handle) -> None:
        try:
            handle.result()
            outcomes[index] = "served"
        except RequestTimedOut:
            outcomes[index] = "timed_out"
        except RequestCancelled:
            outcomes[index] = "cancelled"
        except ReproError:
            outcomes[index] = "failed"

    def client_loop() -> None:
        while True:
            index = take_index()
            if index is None:
                return
            case = cases[index % len(cases)]
            try:
                handle = service.submit(case.expression, case.fields,
                                        timeout=timeout)
            except ServiceOverloaded:
                outcomes[index] = "rejected"
                continue
            maybe_inject(handle)
            settle(index, handle)

    def open_loop() -> float:
        """Submit everything, then collect; returns the wall time."""
        handles: "list[tuple[int, object]]" = []
        interval = 1.0 / rate_rps if rate_rps else 0.0
        begin = time.perf_counter()
        next_at = time.monotonic()
        for index in range(requests):
            if interval:
                now = time.monotonic()
                if next_at > now:
                    time.sleep(next_at - now)
                next_at += interval
            case = cases[index % len(cases)]
            try:
                handle = service.submit(case.expression, case.fields,
                                        timeout=timeout)
            except ServiceOverloaded:
                outcomes[index] = "rejected"
                continue
            maybe_inject(handle)
            handles.append((index, handle))
        for index, handle in handles:
            settle(index, handle)
        return time.perf_counter() - begin

    if mode == "open":
        wall = open_loop()
    else:
        threads = [threading.Thread(target=client_loop,
                                    name=f"repro-client-{i}", daemon=True)
                   for i in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

    snapshot = service.snapshot()
    tally = {status: outcomes.count(status)
             for status in ("served", "rejected", "timed_out",
                            "cancelled", "failed")}
    served = tally["served"]
    modeled_makespan = max(
        (dev["modeled_seconds"] for dev in snapshot["devices"].values()),
        default=0.0)
    return {
        "mode": mode,
        "clients": 1 if mode == "open" else clients,
        "requests": requests,
        "outcomes": tally,
        "dropped": outcomes.count("unresolved"),
        "wall_seconds": wall,
        "throughput_rps_wall": served / wall if wall > 0 else 0.0,
        "modeled_makespan_seconds": modeled_makespan,
        "throughput_rps_modeled": (served / modeled_makespan
                                   if modeled_makespan > 0 else 0.0),
        "latency": snapshot["latency"],
        "plan_cache": snapshot["plan_cache"],
        "batching": snapshot["batching"],
        "devices": snapshot["devices"],
        "queue_peak_depth": snapshot["queue"]["peak_depth"],
        "traces": snapshot["traces"],
        "observability": snapshot.get("observability"),
        "injected_deadline_misses": injected,
    }


def format_load_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_load` report."""
    lines = []
    out = report["outcomes"]
    mode = report.get("mode", "closed")
    source = ("one open-loop submitter" if mode == "open" else
              f"{report['clients']} closed-loop clients")
    lines.append(
        f"{report['requests']} requests from {source} "
        f"in {report['wall_seconds']:.3f} s wall")
    lines.append(
        f"  outcomes: served={out['served']} rejected={out['rejected']} "
        f"timed-out={out['timed_out']} failed={out['failed']} "
        f"cancelled={out['cancelled']} dropped={report['dropped']}")
    lines.append(
        f"  throughput: {report['throughput_rps_wall']:.1f} req/s wall, "
        f"{report['throughput_rps_modeled']:.1f} req/s modeled "
        f"(makespan {report['modeled_makespan_seconds']:.4f} s)")
    cache = report["plan_cache"]
    lines.append(
        f"  plan cache: {cache['hits']}/{cache['lookups']} hits "
        f"({100.0 * cache['hit_rate']:.1f}%)   "
        f"queue peak depth: {report['queue_peak_depth']}")
    batching = report.get("batching")
    if batching and batching["coalesced_launches"]:
        lines.append(
            f"  batching: {batching['coalesced_requests']} requests in "
            f"{batching['coalesced_launches']} coalesced launches "
            f"(mean batch {batching['mean_batch_size']:.1f}, "
            f"{batching['launches']} launches total)")
    for name, stats in sorted(report["latency"].items()):
        lines.append(
            f"  latency[{name}]: p50={1e3 * stats['p50_s']:.2f} ms  "
            f"p95={1e3 * stats['p95_s']:.2f} ms  "
            f"p99={1e3 * stats['p99_s']:.2f} ms  "
            f"(n={stats['count']})")
    for name, dev in sorted(report["devices"].items()):
        lines.append(
            f"  device[{name}]: served={dev['served']} "
            f"failed={dev['failed']} "
            f"busy={dev['busy_seconds']:.3f} s "
            f"modeled={dev['modeled_seconds']:.4f} s "
            f"utilization={100.0 * dev['utilization']:.1f}%")
    return "\n".join(lines)
