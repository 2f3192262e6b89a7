"""Device workers: one thread per (simulated) device, each owning a
persistent warm engine and pulling its own batches.

A :class:`DeviceWorker` is the service's unit of execution parallelism.
Each worker holds its own :class:`~repro.host.engine.DerivedFieldEngine`
— hence its own persistent :class:`~repro.clsim.environment.CLEnvironment`
(context, queue, allocator, buffer pool) — while *sharing* the service's
thread-safe :class:`~repro.strategies.plancache.PlanCache`.  The split
mirrors real multi-device OpenCL: contexts and queues are per-device,
compiled programs are reusable wherever the device matches.

There is no broker between the admission queue and the devices: each
worker runs one take → bind → checkpoint → launch loop of its own.

* **take** — the worker pops the admission queue's head and pulls up to
  ``max_batch - 1`` queued requests sharing its plan key behind it
  (:meth:`~repro.service.queue.AdmissionQueue.take_matching`), lingering
  at most ``batch_window`` seconds and never past the head's deadline.
  A linger delays only this worker; an idle one keeps taking.  Only an
  idle worker takes work, so placement is least-loaded by construction;
* **bind** — :meth:`DeviceWorker.assign_batch` marks the batch as this
  worker's (a solo request is a batch of one);
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

The loop ends when the admission queue is closed and empty, so a
worker finishes the batch it holds and then exits.  Busy wall-seconds
and modeled device-seconds are split evenly across a launch's members,
feeding the service's utilization and modeled-throughput metrics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Callable, Optional, Union

from ..clsim.device import DeviceSpec, DeviceType
from ..host.engine import DerivedFieldEngine
from ..obs.log import get_logger
from ..strategies.plancache import PlanCache
from .metrics import ServiceMetrics
from .queue import AdmissionQueue
from .request import ServiceRequest

__all__ = ["DeviceWorker"]


class DeviceWorker:
    """One device's serving thread (see module docstring)."""

    def __init__(self, index: int,
                 device: Union[str, DeviceType, DeviceSpec],
                 strategy: str, plan_cache: PlanCache,
                 metrics: ServiceMetrics,
                 on_done: Callable[[ServiceRequest], None],
                 queue: AdmissionQueue, *, max_batch: int,
                 batch_window: float,
                 backend: Optional[str] = None, tracer=None,
                 plan_cache_dir=None):
        self.index = index
        self.engine = DerivedFieldEngine(
            device=device, strategy=strategy, plan_cache=plan_cache,
            plan_cache_dir=plan_cache_dir, backend=backend, tracer=tracer)
        token = device if isinstance(device, str) else \
            self.engine.device_spec.device_type.value
        self.name = f"{index}:{token}"
        self.metrics = metrics
        self._on_done = on_done
        self._queue = queue
        self.max_batch = max_batch
        self.batch_window = batch_window
        self._thread = threading.Thread(target=self._run,
                                        name=f"repro-worker-{self.name}",
                                        daemon=True)
        metrics.register_device(self.name)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def join(self) -> None:
        """Wait for the thread to exit: it does once the admission queue
        is closed and empty and its last batch has settled."""
        if self._thread.is_alive():
            self._thread.join()

    def assign_batch(self, requests: "list[ServiceRequest]") -> None:
        """Bind a batch just taken from the admission queue to this
        worker (a solo request is a batch of one)."""
        for request in requests:
            request.mark_dispatched()

    # -- the serving loop ------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            # Bound through the attribute, once per batch: perfbench
            # wraps ``assign_batch`` to time the take as service.assign.
            self.assign_batch(batch)
            self._process(batch)

    def _take_batch(self) -> "Optional[list[ServiceRequest]]":
        """Take the queue head and grow a batch behind it: queued
        requests sharing its plan key (same structure, sizes, dtype,
        backend — retargetable to one device launch), up to
        ``max_batch``.  An optional linger (``batch_window``) is cut off
        at the head's deadline, so waiting for a fuller batch never
        pushes a request past its budget.  A head already cancelled or
        past its deadline is taken alone, so :meth:`_process` resolves
        it at once.  ``None`` once the queue is closed and empty."""
        head = self._queue.take()
        if head is None:
            return None
        batch = [head]
        key = head.prepared.key
        dead = head.cancel_requested or head.deadline_expired()
        if self.max_batch > 1 and key is not None and not dead:
            wait_until = None
            if self.batch_window > 0.0:
                wait_until = time.monotonic() + self.batch_window
                if head.deadline is not None:
                    wait_until = min(wait_until, head.deadline)
            batch += self._queue.take_matching(
                lambda r: r.prepared.key == key,
                self.max_batch - 1, wait_until=wait_until)
        for request in batch:
            if request.queue_span is not None:
                request.queue_span.finish()
        return batch

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
                    if request.resolve_timed_out("in the admission queue"):
                        get_logger().warning("dispatch.deadline_miss",
                                             request=request.id,
                                             trace_id=request.trace_id,
                                             expression=request.expression,
                                             where="admission queue")
                else:
                    request.mark_running()
                    runnable.append(request)
            if not runnable:
                return
            prepared_list = [
                r.prepared if r.prepared.key is None
                else replace(r.prepared, key=r.prepared.key.for_device(
                    self.engine.device_spec))
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
                try:
                    self._on_done(request)
                except Exception:  # pragma: no cover - must never kill
                    pass
