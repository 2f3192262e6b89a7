"""The derived-field *service* layer: concurrent, multi-device serving.

Turns the single-call engine into a request-serving system — the
ROADMAP's scaling direction on top of the warm-execution layer:

* :class:`DerivedFieldService` — the serving facade: bounded admission,
  device workers that pull their own micro-batches, metrics,
  drain-clean shutdown;
* :class:`ServiceRequest` / :class:`RequestStatus` — the request future
  and its life cycle;
* :class:`ServiceClient` — the asyncio front-end (``await
  client.submit(...)`` / ``submit_many``) over request futures;
* :class:`AdmissionQueue` — bounded intake with
  :class:`~repro.errors.ServiceOverloaded` backpressure, drained directly
  by every worker;
* :class:`DeviceWorker` — one thread per device, persistent warm engine,
  shared thread-safe plan cache; an idle worker takes the queue head
  plus its same-plan followers and launches them as one batch, so there
  is no dispatcher thread and no per-worker inbox;
* :class:`ServiceMetrics` — counters, queue gauge, batch-size histogram,
  latency percentiles, cache hit rate, per-device utilization, JSON
  snapshot;
* :func:`run_load` / :func:`build_service` / :func:`format_load_report`
  — synthetic load generation, closed- and open-loop (the
  ``python -m repro serve`` backbone).

The one blessed request path
----------------------------

Every way of asking the service for work is a veneer over the same
pipeline: ``submit()`` returns a :class:`ServiceRequest` — a real
:class:`concurrent.futures.Future`-compatible handle (``done()`` /
``cancelled()`` / ``running()`` / ``result()`` / ``exception()`` /
``add_done_callback()``).  The conveniences are thin wrappers:

* ``service.execute(expr, fields)``  ==  ``submit(...).result()``;
* ``service.derive(expr, fields)``   ==  ``execute(...).output``;
* ``await ServiceClient(service).submit(...)``  ==  ``submit(...)``
  bridged onto the event loop via ``add_done_callback``.

New integrations should build on ``submit()`` + the Future protocol;
everything the service guarantees (exactly-one resolution, deadlines,
backpressure, batching transparency) is stated in terms of that handle.
"""

from .client import ServiceClient
from .loadgen import (LoadCase, build_service, default_cases,
                      format_load_report, run_load)
from .metrics import LatencyStats, ServiceMetrics, percentile
from .queue import AdmissionQueue
from .request import RequestStatus, ServiceRequest, TERMINAL_STATUSES
from .service import DerivedFieldService
from .worker import DeviceWorker

__all__ = [
    "AdmissionQueue", "DerivedFieldService", "DeviceWorker",
    "LatencyStats", "LoadCase", "RequestStatus", "ServiceClient",
    "ServiceMetrics", "ServiceRequest", "TERMINAL_STATUSES",
    "build_service", "default_cases", "format_load_report", "percentile",
    "run_load",
]
