"""Bounded admission queue with backpressure.

The service's single intake: :meth:`AdmissionQueue.offer` either admits a
request or raises :class:`~repro.errors.ServiceOverloaded` when the queue
is at its configured depth — callers get an immediate, explicit rejection
instead of unbounded buffering (the classic load-shedding discipline: a
deep queue only converts overload into latency).  Every device worker
drains the queue itself: :meth:`take` pops the head (blocking until a
request arrives or the queue closes), and :meth:`take_matching` pulls
same-plan followers from anywhere behind it.

Depth changes are reported to an optional gauge callback (the service
wires this to :class:`~repro.service.metrics.ServiceMetrics`), keeping
the queue itself free of metrics policy.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

from ..errors import ServiceClosed, ServiceOverloaded
from .request import ServiceRequest

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """FIFO of admitted requests, bounded at ``depth``."""

    def __init__(self, depth: int,
                 gauge: Optional[Callable[[int], None]] = None):
        if depth < 1:
            raise ValueError(f"admission queue depth must be >= 1: {depth}")
        self.depth = depth
        self._items: "deque[ServiceRequest]" = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._gauge = gauge or (lambda depth: None)

    def offer(self, request: ServiceRequest,
              on_admit: Optional[Callable[[], None]] = None) -> int:
        """Admit a request; returns the queue depth after admission.

        Raises :class:`ServiceOverloaded` at capacity (backpressure) and
        :class:`ServiceClosed` after :meth:`close` — in both cases the
        request is resolved accordingly before the exception propagates,
        so rejected work is never left pending.

        ``on_admit`` (when given) runs *inside the queue lock*, after the
        request is appended but before any consumer can take it — the
        workers drain under the same lock, so admission-side
        bookkeeping (the service's ``submitted`` counter) is guaranteed
        to happen-before the request's terminal bookkeeping.  Without the
        hook a terminal count could land first and a metrics snapshot
        could observe a transiently negative in-flight figure.
        """
        with self._not_empty:
            if self._closed:
                request.resolve_refused(ServiceClosed(
                    f"request #{request.id} refused: service is shut down"))
                raise ServiceClosed(
                    f"request #{request.id} refused: service is shut down")
            if len(self._items) >= self.depth:
                request.resolve_rejected(self.depth)
                raise ServiceOverloaded(
                    f"admission queue full ({self.depth} deep); "
                    f"request #{request.id} ({request.expression}) "
                    "rejected", depth=self.depth)
            self._items.append(request)
            if on_admit is not None:
                on_admit()
            size = len(self._items)
            # Wake every waiter: a notify() could land on a worker that
            # lingers in take_matching for another plan key and leave an
            # idle worker asleep in take().
            self._not_empty.notify_all()
        self._gauge(size)
        return size

    def take(self, timeout: Optional[float] = None,
             ) -> Optional[ServiceRequest]:
        """Pop the oldest request, waiting up to ``timeout`` seconds
        (with ``None``, until one arrives or the queue closes); ``None``
        when nothing arrived or the queue closed empty."""
        with self._not_empty:
            self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout)
            if not self._items:
                return None
            request = self._items.popleft()
            size = len(self._items)
        self._gauge(size)
        return request

    def take_matching(self, match: Callable[[ServiceRequest], bool],
                      limit: int,
                      wait_until: Optional[float] = None,
                      ) -> "list[ServiceRequest]":
        """Extract up to ``limit`` requests satisfying ``match``, from
        anywhere in the queue (a worker's batch-coalescing scan:
        same-plan requests need not be adjacent).

        With ``wait_until`` (a ``time.monotonic`` instant) the call
        lingers for more matches until the limit fills, the deadline
        passes, or the queue closes — the worker bounds the linger by the
        head request's deadline, so waiting for a fuller batch can never
        push a request past its budget.  FIFO order among matches
        is preserved.
        """
        if limit <= 0:
            return []
        taken: "list[ServiceRequest]" = []
        with self._not_empty:
            while True:
                for request in list(self._items):
                    if len(taken) >= limit:
                        break
                    if match(request):
                        self._items.remove(request)
                        taken.append(request)
                if len(taken) >= limit or self._closed \
                        or wait_until is None:
                    break
                remaining = wait_until - time.monotonic()
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
            size = len(self._items)
        if taken:
            self._gauge(size)
        return taken

    def close(self) -> "list[ServiceRequest]":
        """Refuse further admissions; returns any still-queued requests so
        the caller can resolve them (nothing is dropped on the floor)."""
        with self._not_empty:
            self._closed = True
            leftovers = list(self._items)
            self._items.clear()
            self._not_empty.notify_all()
        self._gauge(0)
        return leftovers

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
