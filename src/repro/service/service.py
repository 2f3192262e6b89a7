"""`DerivedFieldService`: the multi-tenant, multi-device serving layer.

The paper's framework computes one derived field per call from a single
host process.  This module turns that engine into a *service*: many
concurrent clients submit expressions over their own arrays, a fleet of
device workers executes them against shared warm state, and the whole
thing degrades predictably under overload instead of falling over.

Request path::

    submit() ──prepare/validate──► AdmissionQueue (bounded; rejects past
        depth) ──dispatcher (coalesces same-key requests)──►
        LeastLoadedScheduler (plan-cache-locality affinity) ──►
        DeviceWorker inbox ──► engine.execute_batch() (a solo request is
        a batch of one) ──► ServiceRequest resolves; ServiceMetrics
        updated

Guarantees:

* **every admitted request resolves** — served, timed-out, failed, or
  cancelled; shutdown drains or explicitly cancels, never drops;
* **backpressure, not buffering** — past ``queue_depth`` waiting
  requests, `submit` raises :class:`ServiceOverloaded` immediately;
* **deadlines** — a request carries an optional deadline checked at
  every checkpoint (mid-queue, pre-launch, post-launch) with cooperative
  client cancellation on the same mechanism;
* **shared warm state, safely** — one thread-safe
  :class:`~repro.strategies.plancache.PlanCache` backs all workers
  (plans built by one device worker are warm hits for every other worker
  on the same device model), while environments/allocators/pools stay
  worker-private;
* **failure isolation** — a device OOM fails that request, releases its
  buffers, and the service keeps serving.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..clsim.device import DeviceSpec, DeviceType
from ..codegen import PlanDiskCache
from ..errors import ServiceClosed
from ..metrics import MetricsRegistry
from ..obs import Observability
from ..obs.log import get_logger
from ..strategies.bindings import BindingInput
from ..strategies.plancache import PlanCache
from ..trace import NULL_TRACER, Tracer
from .metrics import ServiceMetrics
from .queue import AdmissionQueue
from .request import ServiceRequest
from .scheduler import LeastLoadedScheduler
from .worker import DeviceWorker

__all__ = ["DerivedFieldService"]

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_PLAN_CACHE_SIZE = 128


class DerivedFieldService:
    """Concurrent derived-field serving over a fleet of device workers.

    ``devices`` lists one entry per worker ('cpu' / 'gpu' /
    :class:`DeviceSpec`); repeated entries mean multiple workers of that
    device model.  ``strategy`` names the inner execution strategy every
    worker runs (fusion by default).  ``queue_depth`` bounds the
    admission queue; ``default_timeout`` (seconds) applies to requests
    submitted without an explicit one; ``affinity_slack`` tunes how far
    plan-locality may override least-loaded placement.  ``backend`` and
    ``plan_cache_dir`` pass through to every worker's engine: the default
    compiled executor plus one shared on-disk plan cache, so a restarted
    service warms without recompiling (DESIGN.md §10).

    ``max_batch`` enables micro-batching (DESIGN.md §11): the dispatcher
    coalesces up to that many queued requests sharing one device-
    retargeted plan key into a single launch over stacked bindings,
    amortizing per-launch overhead; ``1`` disables coalescing.
    ``batch_window`` optionally lingers that many seconds for a fuller
    batch, bounded by the head request's deadline so no request waits
    past its budget (``0``, the default, coalesces only what is already
    queued — zero added latency).

    Use as a context manager (``with DerivedFieldService(...) as svc:``)
    or call :meth:`close` explicitly — close drains by default.
    """

    def __init__(self,
                 devices: Sequence[Union[str, DeviceType, DeviceSpec]]
                 = ("cpu",),
                 strategy: str = "fusion", *,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
                 default_timeout: Optional[float] = None,
                 affinity_slack: int = 1,
                 backend: Optional[str] = None,
                 plan_cache_dir=None,
                 max_batch: int = 8,
                 batch_window: float = 0.0,
                 start: bool = True,
                 tracer: Optional[Tracer] = None,
                 metrics_registry: Optional[MetricsRegistry] = None,
                 obs: "Union[Observability, None, bool]" = None,
                 debug_bundle_dir=None):
        if not devices:
            raise ValueError("service needs at least one device")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if batch_window < 0.0:
            raise ValueError(f"batch_window must be >= 0: {batch_window}")
        self.max_batch = max_batch
        self.batch_window = batch_window
        # Observability (DESIGN.md §12): on by default.  ``obs=False``
        # turns the layer off entirely; ``obs=None`` builds the default
        # flight-recorder manager; an explicit Observability is used
        # as-is.  ``debug_bundle_dir`` arms tail-sampled debug bundles.
        if obs is False:
            self.obs: Optional[Observability] = None
        elif obs is None:
            self.obs = Observability(bundle_dir=debug_bundle_dir)
        else:
            self.obs = obs
            if debug_bundle_dir is not None and self.obs.bundles is None:
                from ..obs.bundles import BundleWriter
                self.obs.bundles = BundleWriter(debug_bundle_dir)
        # The flight recorder doubles as the default tracer, so every
        # request records passively even with tracing "off"; an explicit
        # tracer wins (and the recorder then only sees what the serving
        # layer reports through attach_result).
        if tracer is not None:
            self.tracer: Tracer = tracer
        elif self.obs is not None:
            self.tracer = self.obs.recorder
        else:
            self.tracer = NULL_TRACER
        self.plan_cache = PlanCache(plan_cache_size)
        # One shared disk cache: any worker's cold codegen persists the
        # plan, and a restarted service warms from it on first touch.
        if plan_cache_dir is not None and \
                not isinstance(plan_cache_dir, PlanDiskCache):
            plan_cache_dir = PlanDiskCache(plan_cache_dir)
        self.plan_disk: Optional[PlanDiskCache] = plan_cache_dir
        # Default: a private registry, so snapshot() describes exactly
        # this instance.  Pass repro.metrics.get_registry() to expose the
        # service on the process-wide /metrics endpoint instead.
        self.metrics = ServiceMetrics(registry=metrics_registry)
        if self.obs is not None:
            self.obs.bind_registry(self.metrics.registry)
        self.default_timeout = default_timeout
        self._queue = AdmissionQueue(queue_depth, gauge=self._gauge)
        self._scheduler = LeastLoadedScheduler(self.plan_cache,
                                               affinity_slack)
        self.workers = [
            DeviceWorker(i, device, strategy, self.plan_cache,
                         self.metrics, self._request_done, backend=backend,
                         tracer=self.tracer, plan_cache_dir=self.plan_disk)
            for i, device in enumerate(devices)
        ]
        # Requests are prepared (compiled, validated, keyed) through the
        # first worker's engine; its compiled-expression cache is shared
        # by every submitter and its device key is re-targeted per worker
        # at dispatch.
        self._front = self.workers[0].engine
        self._ids = itertools.count(1)
        self._inflight = 0
        self._idle = threading.Condition()
        self._closed = False
        self._started = False
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="repro-dispatcher",
                                            daemon=True)
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for worker in self.workers:
            worker.start()
        self._dispatcher.start()

    def __enter__(self) -> "DerivedFieldService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Shut down: refuse new work, then drain (default) or cancel
        what's in flight.  Idempotent."""
        self._closed = True
        if drain and self._started:
            self.wait_idle(timeout)
        leftovers = self._queue.close()
        for request in leftovers:     # only when not draining (or racing)
            if request.resolve_cancelled():
                self._request_done(request)
        if self._started:
            if self._dispatcher.is_alive():
                self._dispatcher.join()
            for worker in self.workers:
                worker.stop(drain=drain)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining if remaining is not None
                                else 0.5)
            return True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- client API ----------------------------------------------------------

    def submit(self, expression: str,
               fields: Mapping[str, BindingInput], *,
               timeout: Optional[float] = None) -> ServiceRequest:
        """Admit one request; returns its handle (a future).

        Raises :class:`ServiceClosed` after shutdown began,
        :class:`ServiceOverloaded` when the admission queue is full, and
        the usual expression/binding errors synchronously (a malformed
        request is the submitter's bug, not service load).
        """
        if self._closed:
            raise ServiceClosed("service is shut down; submit refused")
        request_id = next(self._ids)
        # The request's root span: no parent (fresh trace id), finished by
        # the request itself at resolution — possibly on another thread.
        span = self.tracer.span("request", category="service",
                                parent=None, request=request_id).start()
        try:
            with self.tracer.span("submit.prepare", category="service",
                                  parent=span):
                prepared = self._front.prepare(expression, fields)
        except Exception:
            span.annotate(status="invalid")
            span.finish()
            raise
        span.annotate(expression=prepared.compiled.result_name)
        timeout = self.default_timeout if timeout is None else timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        request = ServiceRequest(request_id,
                                 prepared.compiled.result_name,
                                 prepared, deadline, span=span)
        request.queue_span = self.tracer.span(
            "queue.wait", category="service", parent=span).start()
        with self._idle:
            self._inflight += 1
        try:
            # record_admitted runs under the queue lock, after the append:
            # the dispatcher drains under that same lock, so the
            # submitted-counter increment happens-before any terminal
            # accounting for this request — the snapshot invariant
            # ``offered == resolved + in_flight`` can never transiently
            # go negative (see ServiceMetrics.snapshot).
            self._queue.offer(request,
                              on_admit=self.metrics.record_admitted)
        except Exception:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()
            self.metrics.record_rejected()
            raise
        return request

    def execute(self, expression: str,
                fields: Mapping[str, BindingInput], *,
                timeout: Optional[float] = None):
        """Submit and block for the full :class:`ExecutionReport`."""
        return self.submit(expression, fields, timeout=timeout).result()

    def derive(self, expression: str,
               fields: Mapping[str, np.ndarray], *,
               timeout: Optional[float] = None) -> np.ndarray:
        """Submit and block for just the derived array."""
        report = self.execute(expression, fields, timeout=timeout)
        assert report.output is not None
        return report.output

    def snapshot(self) -> dict:
        """Point-in-time JSON-able metrics (see :class:`ServiceMetrics`)."""
        snap = self.metrics.snapshot()
        if self.obs is not None:
            snap["observability"] = self.obs.snapshot()
        return snap

    # -- health / debug surfaces ---------------------------------------------

    def health(self) -> "tuple[int, dict]":
        """The ``/healthz`` payload: (HTTP status, body).  503 while any
        expression burns its error budget past the limit, or after
        shutdown began."""
        if self.obs is None:
            payload: dict = {"healthy": not self._closed,
                             "observability": "disabled"}
        else:
            payload = self.obs.health()
        if self._closed:
            payload["healthy"] = False
            payload["closed"] = True
        return (200 if payload.get("healthy") else 503), payload

    def readiness(self) -> "tuple[int, dict]":
        """The ``/readyz`` payload: 200 once workers are started and the
        service accepts submissions, 503 before start or after close."""
        ready = self._started and not self._closed
        return (200 if ready else 503), {
            "ready": ready,
            "started": self._started,
            "closed": self._closed,
            "workers": len(self.workers),
            "queue_depth": len(self._queue),
        }

    def debug_index(self) -> dict:
        """The ``/debugz`` payload (empty shell when obs is off)."""
        if self.obs is None:
            return {"observability": "disabled"}
        return self.obs.debug_index()

    # -- internals ----------------------------------------------------------

    def _gauge(self, depth: int) -> None:
        """Admission-queue depth fan-out: metrics gauge + trace counter."""
        self.metrics.set_queue_depth(depth)
        self.tracer.counter("queue_depth", depth)

    def _dispatch_loop(self) -> None:
        while True:
            request = self._queue.take(timeout=0.05)
            if request is None:
                if self._closed and len(self._queue) == 0:
                    return
                continue
            if request.queue_span is not None:
                request.queue_span.finish()
            if request.cancel_requested:
                if request.resolve_cancelled():
                    self._request_done(request)
                continue
            if request.deadline_expired():
                if request.resolve_timed_out("in the admission queue"):
                    get_logger().warning("dispatch.deadline_miss",
                                         request=request.id,
                                         trace_id=request.trace_id,
                                         expression=request.expression,
                                         where="admission queue")
                    self._request_done(request)
                continue
            batch = self._coalesce(request)
            decision = self._scheduler.pick(self.workers,
                                            request.prepared.key)
            decision.worker.assign_batch(batch)

    def _coalesce(self, head: ServiceRequest) -> "list[ServiceRequest]":
        """Grow a batch behind ``head``: pull queued requests sharing its
        plan key (same structure, sizes, dtype, backend — retargetable to
        one device launch), up to ``max_batch``.  An optional linger
        (``batch_window``) is cut off at the head's deadline, so waiting
        for a fuller batch never pushes a request past its budget."""
        key = head.prepared.key
        if self.max_batch <= 1 or key is None:
            return [head]
        wait_until = None
        if self.batch_window > 0.0:
            wait_until = time.monotonic() + self.batch_window
            if head.deadline is not None:
                wait_until = min(wait_until, head.deadline)
        extras = self._queue.take_matching(
            lambda r: r.prepared.key == key,
            self.max_batch - 1, wait_until=wait_until)
        for extra in extras:
            if extra.queue_span is not None:
                extra.queue_span.finish()
        return [head, *extras]

    def _request_done(self, request: ServiceRequest) -> None:
        """Terminal bookkeeping for every admitted request (worker and
        dispatcher resolutions both land here exactly once)."""
        self.metrics.record_result(request)
        if self.obs is not None:
            # Exception-safe by contract (Observability.on_request_done
            # never raises), but this path runs on worker/dispatcher
            # threads — belt and braces.
            try:
                self.obs.on_request_done(request)
            except Exception:  # pragma: no cover - defensive
                pass
        with self._idle:
            self._inflight -= 1
            self._idle.notify_all()
