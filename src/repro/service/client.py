"""`ServiceClient`: the asyncio front-end over `ServiceRequest` futures.

The blocking client API (``submit().result()``) costs one waiting thread
per in-flight request — fine for a handful of closed-loop clients,
hopeless for the paper's in-situ motivation of thousands of derived-field
requests per timestep from one connection.  This bridge turns every
:class:`~repro.service.ServiceRequest` (a
:class:`concurrent.futures.Future`-compatible handle) into an asyncio
future resolved via ``loop.call_soon_threadsafe`` from whichever service
thread resolves the request, so a single event loop holds any number of
requests in flight with zero extra threads::

    client = ServiceClient(service)
    report = await client.submit("q = ...", fields)          # one
    futures = client.submit_many([("q = ...", fields)] * 1000)
    reports = await asyncio.gather(*futures)                 # thousands

Cancellation propagates both ways: cancelling the asyncio future requests
cooperative cancellation of the service request, and a service-side
terminal status (served / timed-out / failed / cancelled) resolves the
asyncio future with the same report or exception the blocking
``result()`` would have produced.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from ..errors import ServiceError
from ..strategies.bindings import BindingInput
from .request import RequestStatus, ServiceRequest
from .service import DerivedFieldService

__all__ = ["ServiceClient"]


class ServiceClient:
    """Asyncio client over an in-process :class:`DerivedFieldService`.

    Submission itself (prepare + admission) runs synchronously on the
    calling loop thread — it is the cheap, bounded part of the request
    path and raising admission errors synchronously from ``submit`` keeps
    malformed-request bugs at the call site.  Only the *wait* is bridged.
    """

    def __init__(self, service: DerivedFieldService):
        self.service = service

    # -- awaitable API -------------------------------------------------------

    async def submit(self, expression: str,
                     fields: Mapping[str, BindingInput], *,
                     timeout: Optional[float] = None):
        """Admit one request and await its full ``ExecutionReport``.

        Admission failures (:class:`~repro.errors.ServiceOverloaded`,
        :class:`~repro.errors.ServiceClosed`, malformed expressions)
        raise immediately; service-side outcomes (timeout, device
        failure, cancellation) raise from the ``await``.
        """
        handle = self.service.submit(expression, fields, timeout=timeout)
        return await self._bridge(asyncio.get_running_loop(), handle)

    async def derive(self, expression: str,
                     fields: Mapping[str, np.ndarray], *,
                     timeout: Optional[float] = None) -> np.ndarray:
        """Admit one request and await just the derived array."""
        report = await self.submit(expression, fields, timeout=timeout)
        assert report.output is not None
        return report.output

    def submit_many(self, requests: Iterable[
            Tuple[str, Mapping[str, BindingInput]]], *,
            timeout: Optional[float] = None) -> "list[asyncio.Future]":
        """Admit a stream of ``(expression, fields)`` requests; returns
        one awaitable future per request, in submission order.

        Unlike :meth:`submit`, admission errors are delivered on the
        corresponding future instead of raised mid-loop — one rejected
        request (queue full under burst) never strands the submissions
        after it.  Await them together with ``asyncio.gather(...,
        return_exceptions=True)`` to collect a mixed outcome set.
        """
        loop = asyncio.get_running_loop()
        futures: "list[asyncio.Future]" = []
        for expression, fields in requests:
            try:
                handle = self.service.submit(expression, fields,
                                             timeout=timeout)
            except Exception as exc:
                future: asyncio.Future = loop.create_future()
                future.set_exception(exc)
            else:
                future = self._bridge(loop, handle)
            futures.append(future)
        return futures

    # -- the bridge ----------------------------------------------------------

    @staticmethod
    def _bridge(loop: asyncio.AbstractEventLoop,
                handle: ServiceRequest) -> "asyncio.Future":
        """One asyncio future mirroring one service request handle."""
        future: asyncio.Future = loop.create_future()

        def transfer() -> None:          # runs on the loop thread
            if future.done():            # cancelled asyncio-side already
                return
            if handle.status is RequestStatus.SERVED:
                future.set_result(handle.report)
            else:
                future.set_exception(handle.error or ServiceError(
                    f"request #{handle.id} resolved "
                    f"{handle.status.value} without a cause"))

        def on_handle_done(_request: ServiceRequest) -> None:
            # Resolving thread is a device worker; hop to the loop.
            # A closed loop means nobody is awaiting — drop silently
            # (the service-side resolution already completed).
            try:
                loop.call_soon_threadsafe(transfer)
            except RuntimeError:
                pass

        def on_future_done(fut: "asyncio.Future") -> None:
            if fut.cancelled():
                handle.cancel()          # cooperative, takes effect at
                                         # the next service checkpoint

        future.add_done_callback(on_future_done)
        handle.add_done_callback(on_handle_done)
        return future
