"""Device workers: one thread per (simulated) device, each owning a
persistent warm engine.

A :class:`DeviceWorker` is the service's unit of execution parallelism.
Each worker holds its own :class:`~repro.host.engine.DerivedFieldEngine`
— hence its own persistent :class:`~repro.clsim.environment.CLEnvironment`
(context, queue, allocator, buffer pool) — while *sharing* the service's
thread-safe :class:`~repro.strategies.plancache.PlanCache`.  The split
mirrors real multi-device OpenCL: contexts and queues are per-device,
compiled programs are reusable wherever the device matches.

The dispatcher hands a worker same-plan batches through
:meth:`DeviceWorker.assign_batch`; a solo request is a batch of one.  The
worker runs each batch through one take → checkpoint → launch loop:

* **checkpoint** — a cooperatively-cancelled or deadline-expired member
  resolves (``CANCELLED`` / ``TIMED_OUT``) without touching the device
  or holding the rest of the batch;
* **launch** — the remaining members' :class:`PreparedExecution` objects
  are re-keyed for this worker's device (``PlanKey.for_device``) and run
  by one ``engine.execute_batch`` call: one plan-cache lookup, then each
  member's launch and readback.  A batch of one runs on the warm
  environment directly, exactly like ``engine.execute_prepared``;
* **failure isolation** — any exception (device OOM above all) resolves
  every member of that launch as ``FAILED`` and the worker keeps
  serving; strategy ``try/finally`` blocks have already released the
  buffers.  Every member settles exactly once, whatever the launch does.

Busy wall-seconds and modeled device-seconds are split evenly across a
launch's members, feeding the service's utilization and
modeled-throughput metrics.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Callable, Optional, Union

from ..clsim.device import DeviceSpec, DeviceType
from ..host.engine import DerivedFieldEngine
from ..obs.log import get_logger
from ..strategies.plancache import PlanCache, PlanKey
from .metrics import ServiceMetrics
from .request import ServiceRequest

__all__ = ["DeviceWorker"]


class DeviceWorker:
    """One device's serving thread (see module docstring)."""

    def __init__(self, index: int,
                 device: Union[str, DeviceType, DeviceSpec],
                 strategy: str, plan_cache: PlanCache,
                 metrics: ServiceMetrics,
                 on_done: Callable[[ServiceRequest], None],
                 backend: Optional[str] = None, tracer=None,
                 plan_cache_dir=None):
        self.index = index
        self.engine = DerivedFieldEngine(
            device=device, strategy=strategy, plan_cache=plan_cache,
            plan_cache_dir=plan_cache_dir,
            pooling=True, backend=backend, tracer=tracer)
        token = device if isinstance(device, str) else \
            self.engine.device_spec.device_type.value
        self.name = f"{index}:{token}"
        self.metrics = metrics
        self._on_done = on_done
        self._inbox: "deque[list[ServiceRequest]]" = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._outstanding = 0
        self._stopping = False
        self._thread = threading.Thread(target=self._run,
                                        name=f"repro-worker-{self.name}",
                                        daemon=True)
        metrics.register_device(self.name)

    # -- scheduler-facing view -----------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests assigned to this worker and not yet resolved."""
        with self._lock:
            return self._outstanding

    def device_key(self, key: PlanKey) -> PlanKey:
        return key.for_device(self.engine.device_spec)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def assign_batch(self, requests: "list[ServiceRequest]") -> None:
        """Dispatcher hands over a same-plan batch (a solo request is a
        batch of one).  The batch travels the inbox as one unit so its
        members launch together; inboxes are unbounded because global
        admission control already bounded the total."""
        for request in requests:
            request.mark_dispatched()
        with self._wake:
            self._inbox.append(requests)
            self._outstanding += len(requests)
            self._wake.notify()

    def stop(self, drain: bool = True) -> None:
        """Stop the thread; with ``drain`` the inbox is served first,
        otherwise leftover requests resolve ``CANCELLED``."""
        leftovers = []
        with self._wake:
            self._stopping = True
            if not drain:
                for batch in self._inbox:
                    leftovers.extend(batch)
                self._inbox.clear()
            self._wake.notify_all()
        for request in leftovers:
            with self._lock:
                self._outstanding -= 1
            if request.resolve_cancelled():
                self._finish(request)
        if self._thread.is_alive():
            self._thread.join()

    # -- the serving loop ------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._inbox and not self._stopping:
                    self._wake.wait(0.1)
                if not self._inbox:
                    if self._stopping:
                        return
                    continue
                batch = self._inbox.popleft()
            self._process(batch)

    def _process(self, batch: "list[ServiceRequest]") -> None:
        """Checkpoint each member, launch the rest through one
        :meth:`DerivedFieldEngine.execute_batch` call, and resolve each
        with its own solo-identical report (module docstring)."""
        try:
            runnable: list[ServiceRequest] = []
            for request in batch:
                if request.cancel_requested:
                    request.resolve_cancelled()
                elif request.deadline_expired():
                    request.resolve_timed_out("waiting for a device worker")
                else:
                    request.mark_running()
                    runnable.append(request)
            if not runnable:
                return
            prepared_list = [
                r.prepared if r.prepared.key is None
                else replace(r.prepared, key=self.device_key(r.prepared.key))
                for r in runnable]
            size = len(runnable)
            attrs = ({"request": runnable[0].id} if size == 1
                     else {"batch": size})
            self.metrics.record_batch(size)
            start = time.perf_counter()
            try:
                # The head request's root span lives on the submitting
                # thread's trace; parenting explicitly carries its trace
                # id across the queue into this worker thread.
                with self.engine.tracer.span("worker.execute",
                                             category="service",
                                             parent=runnable[0].span,
                                             worker=self.name, **attrs):
                    result = self.engine.execute_batch(prepared_list)
            except BaseException as exc:
                busy = (time.perf_counter() - start) / size
                for request in runnable:
                    self.metrics.record_execution(self.name, busy, 0.0,
                                                  cache_hit=None,
                                                  failed=True)
                    get_logger().error("worker.execute_failed",
                                       device=self.name,
                                       request=request.id,
                                       trace_id=request.trace_id,
                                       expression=request.expression,
                                       error=f"{type(exc).__name__}: {exc}")
                    request.resolve_failed(exc, device=self.name)
                return
            busy = (time.perf_counter() - start) / size
            modeled = result.modeled_seconds / size
            for position, (request, report) in enumerate(
                    zip(runnable, result.reports)):
                # Plan-cache attribution: the launch performed one real
                # lookup (charged to its first member); every later
                # member reused the in-hand plan — a hit by
                # construction.  One lookup per request keeps the
                # service's hit-rate denominator meaningful under
                # batching.
                hit = result.hit if position == 0 else True
                report.trace_id = request.trace_id
                self.metrics.record_execution(self.name, busy, modeled,
                                              cache_hit=hit)
                if request.deadline_expired():
                    # Finished after its deadline: the client contract
                    # is already broken, so the request counts as timed
                    # out (the busy time still counts against this
                    # device — the work did happen).  The report rides
                    # along for observability: result() still raises,
                    # but debug bundles keep the evidence of what the
                    # late execution did.
                    request.resolve_timed_out("during execution",
                                              report=report)
                else:
                    request.resolve_served(report, device=self.name)
        finally:
            for request in batch:
                self._settle(request)

    def _settle(self, request: ServiceRequest) -> None:
        with self._lock:
            self._outstanding -= 1
        self._finish(request)

    def _finish(self, request: ServiceRequest) -> None:
        try:
            self._on_done(request)
        except Exception:  # pragma: no cover - metrics must never kill
            pass
