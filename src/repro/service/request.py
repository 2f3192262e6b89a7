"""The service request model: a submitted derived-field computation.

A :class:`ServiceRequest` is both the internal unit of work (queued,
scheduled, executed) and the handle returned to the submitting client.
Its life cycle is a one-way walk through :class:`RequestStatus`:

``QUEUED -> DISPATCHED -> RUNNING -> SERVED``

with terminal exits ``REJECTED`` (admission control), ``TIMED_OUT``
(deadline expired — mid-queue or before/after launch), ``CANCELLED``
(client called :meth:`ServiceRequest.cancel` before a worker picked it
up), and ``FAILED`` (the execution raised, e.g. device OOM).

Resolution is first-writer-wins under a per-request lock, so races
between a worker finishing and a shutdown cancelling the request can
never produce two outcomes; every request resolves exactly once.
Cancellation is *cooperative*: :meth:`cancel` sets a flag that the
workers check at their checkpoints — a request already
launched runs to completion (kernels are not interruptible, exactly as
on a real device queue).

The handle speaks the :class:`concurrent.futures.Future` protocol —
``done()`` / ``cancelled()`` / ``running()`` / ``result()`` /
``exception()`` / ``add_done_callback()`` — so it drops into executor-
shaped code (``concurrent.futures.wait``-style polling loops, asyncio
bridges via :class:`~repro.service.ServiceClient`) unchanged.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import TYPE_CHECKING, Optional

from ..errors import (RequestCancelled, RequestTimedOut, ServiceError,
                      ServiceOverloaded)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..host.engine import PreparedExecution
    from ..strategies.base import ExecutionReport

__all__ = ["RequestStatus", "ServiceRequest", "TERMINAL_STATUSES"]


class RequestStatus(enum.Enum):
    """Where a request is in its life cycle."""

    QUEUED = "queued"            # admitted, waiting in the admission queue
    DISPATCHED = "dispatched"    # taken by a device worker
    RUNNING = "running"          # executing on a device
    SERVED = "served"            # completed; report available
    REJECTED = "rejected"        # refused at admission (queue full)
    TIMED_OUT = "timed_out"      # deadline expired before completion
    CANCELLED = "cancelled"      # client cancelled before launch
    FAILED = "failed"            # execution raised (e.g. device OOM)


TERMINAL_STATUSES = frozenset({
    RequestStatus.SERVED, RequestStatus.REJECTED, RequestStatus.TIMED_OUT,
    RequestStatus.CANCELLED, RequestStatus.FAILED,
})


class ServiceRequest:
    """One admitted (or rejected) derived-field computation.

    Clients hold this as a future: :meth:`wait` / :meth:`result` block
    until resolution; :attr:`status`, :attr:`device`, and :attr:`latency`
    describe the outcome.  All mutation happens through :meth:`_resolve`
    and the status setters, which the service layer owns.
    """

    def __init__(self, request_id: int, expression: str,
                 prepared: "PreparedExecution",
                 deadline: Optional[float] = None, span=None):
        self.id = request_id
        self.expression = expression          # label for metrics/reports
        self.prepared = prepared
        self.deadline = deadline              # time.monotonic() instant
        self.submitted_at = time.monotonic()
        self.device: Optional[str] = None     # worker that served it
        self.report: "Optional[ExecutionReport]" = None
        self.error: Optional[BaseException] = None
        self.latency: Optional[float] = None  # submit -> resolve, seconds
        # Tracing: the request's root span (started by the service at
        # submission, finished here at resolution) and the queue-wait
        # child the taking worker closes.  Both None when the
        # service runs untraced.
        self.span = span
        self.trace_id: Optional[str] = (
            getattr(span, "trace_id", None) if span is not None else None)
        self.queue_span = None
        self._status = RequestStatus.QUEUED
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._force_miss = False
        self._callbacks: list = []

    # -- client API (concurrent.futures.Future protocol) ---------------------

    @property
    def status(self) -> RequestStatus:
        return self._status

    def done(self) -> bool:
        """Whether the request has resolved (any terminal status)."""
        return self._done.is_set()

    def cancelled(self) -> bool:
        """Whether the request resolved CANCELLED (Future semantics:
        the cancellation actually took effect, not merely requested —
        for the cooperative flag see :attr:`cancel_requested`)."""
        return (self._done.is_set()
                and self._status is RequestStatus.CANCELLED)

    def running(self) -> bool:
        """Whether the request is currently executing on a device."""
        return self._status is RequestStatus.RUNNING

    @property
    def cancel_requested(self) -> bool:
        """Whether cancellation was *requested* (the cooperative flag the
        workers check at their checkpoints)."""
        return self._cancel.is_set()

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        Returns ``False`` when the request already resolved or is
        running on a device (kernels are not interruptible — it will
        complete); ``True`` when the request was still pending, meaning
        the cancellation takes effect at the next scheduling checkpoint.
        Unlike :class:`concurrent.futures.Future`, a ``True`` return is
        a promise of *eventual* cancellation, not an instant one — wait
        on the handle to observe the terminal status.
        """
        self._cancel.set()
        return not (self._done.is_set()
                    or self._status is RequestStatus.RUNNING)

    def add_done_callback(self, fn) -> None:
        """Call ``fn(request)`` when the request resolves (immediately if
        it already has).  Callbacks run on the resolving thread — a
        worker, the closing thread, or the submitting thread — and must
        not block; exceptions they raise are swallowed, matching
        :meth:`concurrent.futures.Future.add_done_callback`.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        try:
            fn(self)
        except Exception:
            pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request resolves; False on wait timeout."""
        return self._done.wait(timeout)

    def exception(self, timeout: Optional[float] = None,
                  ) -> Optional[BaseException]:
        """Block for resolution and return the failure cause — ``None``
        when the request was served.  Raises :class:`TimeoutError` if the
        *wait* times out (independent of the service-side deadline)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request #{self.id} ({self.expression}) not resolved "
                f"within {timeout} s (status: {self._status.value})")
        return self.error

    def result(self, timeout: Optional[float] = None) -> "ExecutionReport":
        """Block for the outcome: the :class:`ExecutionReport` on success,
        or the failure re-raised (:class:`RequestTimedOut`,
        :class:`RequestCancelled`, :class:`ServiceOverloaded`, or the
        execution's own exception).

        ``timeout`` bounds only this *wait*; it is independent of the
        request's service-side deadline.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request #{self.id} ({self.expression}) not resolved "
                f"within {timeout} s (status: {self._status.value})")
        status = self._status
        if status is RequestStatus.SERVED:
            assert self.report is not None
            return self.report
        if self.error is not None:
            raise self.error
        raise ServiceError(  # pragma: no cover - defensive
            f"request #{self.id} resolved {status.value} without a cause")

    # -- service-side transitions -------------------------------------------

    def mark_dispatched(self) -> None:
        with self._lock:
            if self._status is RequestStatus.QUEUED:
                self._status = RequestStatus.DISPATCHED

    def mark_running(self) -> None:
        with self._lock:
            if self._status is RequestStatus.DISPATCHED:
                self._status = RequestStatus.RUNNING

    def force_deadline_miss(self) -> None:
        """Make this request report an expired deadline at the worker's
        *post-execution* checkpoint — and only there.  The request runs
        normally (its :class:`ExecutionReport` is computed and kept),
        then deterministically resolves TIMED_OUT.  This is the fault
        injection the obs-smoke CI job and the loadgen's
        ``inject_deadline_miss`` use to exercise debug bundles without
        racing a real clock."""
        self._force_miss = True

    def deadline_expired(self, now: Optional[float] = None) -> bool:
        if self._force_miss and self._status is RequestStatus.RUNNING:
            return True
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def _resolve(self, status: RequestStatus, *,
                 report: "Optional[ExecutionReport]" = None,
                 error: Optional[BaseException] = None,
                 device: Optional[str] = None) -> bool:
        """Terminal transition; returns False if already resolved (the
        first resolution wins, later ones are dropped)."""
        assert status in TERMINAL_STATUSES
        with self._lock:
            if self._done.is_set():
                return False
            self._status = status
            self.report = report
            self.error = error
            self.device = device
            self.latency = time.monotonic() - self.submitted_at
            self._done.set()
        if self.queue_span is not None:
            self.queue_span.finish()      # idempotent; covers early exits
        if self.span is not None:
            self.span.annotate(status=status.value,
                               device=device or "")
            self.span.finish()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn(self)
            except Exception:
                pass
        return True

    def resolve_served(self, report: "ExecutionReport",
                       device: str) -> bool:
        return self._resolve(RequestStatus.SERVED, report=report,
                             device=device)

    def resolve_rejected(self, depth: int) -> bool:
        return self._resolve(RequestStatus.REJECTED, error=ServiceOverloaded(
            f"request #{self.id} ({self.expression}) rejected: admission "
            f"queue at capacity ({depth})", depth=depth))

    def resolve_refused(self, error: BaseException) -> bool:
        """Admission refusal that is not load-shedding (service shut
        down): terminal status REJECTED with the refusal as the cause, so
        outcome accounting matches what the submitter was told."""
        return self._resolve(RequestStatus.REJECTED, error=error)

    def resolve_timed_out(self, where: str,
                          report: "Optional[ExecutionReport]" = None,
                          ) -> bool:
        """``report`` carries the execution's report when the deadline
        expired *after* the launch completed — :meth:`result` still
        raises (the contract was missed), but observability keeps the
        evidence of what the late execution actually did."""
        return self._resolve(RequestStatus.TIMED_OUT, report=report,
                             error=RequestTimedOut(
                                 f"request #{self.id} ({self.expression}) "
                                 f"exceeded its deadline {where}"))

    def resolve_cancelled(self) -> bool:
        return self._resolve(RequestStatus.CANCELLED, error=RequestCancelled(
            f"request #{self.id} ({self.expression}) cancelled"))

    def resolve_failed(self, error: BaseException,
                       device: Optional[str] = None) -> bool:
        return self._resolve(RequestStatus.FAILED, error=error,
                             device=device)

    def __repr__(self) -> str:
        return (f"ServiceRequest(#{self.id}, {self.expression!r}, "
                f"{self._status.value})")
