"""The observability manager: always-on capture, tail-sampled keeps.

:class:`Observability` is the service-side coordinator.  The service
installs its :class:`~repro.obs.FlightRecorder` as the tracer (so every
request records passively) and calls :meth:`on_request_done` from its
resolution hook.  The manager then:

1. feeds the request into the :class:`~repro.obs.SloTracker` (latency
   windows, error burn rate, tail-outlier verdict);
2. enriches the sealed flight-recorder record with the request's
   terminal state (id, expression, status, device, latency);
3. decides whether this request is *anomalous* — and if so, and a
   :class:`~repro.obs.BundleWriter` is attached, dumps a debug bundle.

Trigger rules (tail sampling — a healthy request writes nothing):

========================  ============================================
trigger                   condition
========================  ============================================
``failure``               terminal status ``failed``
``deadline-miss``         terminal status ``timed_out``
``cancellation``          terminal status ``cancelled``
``codegen-fallback``      served, but the report's codegen disposition
                          is ``interpreter-fallback``
``latency-outlier``       served, latency above ``outlier_factor`` x
                          the expression's rolling p99 (post-warmup)
========================  ============================================

This module deliberately never imports ``repro.service`` — requests are
classified through their ``status.value`` strings and plain attributes,
keeping ``repro.obs`` a leaf the service layer depends on, not a cycle.
"""

from __future__ import annotations

from typing import Optional

from .bundles import BundleWriter
from .log import NULL_LOGGER, get_logger
from .recorder import FlightRecorder
from .slo import SloTracker

__all__ = ["Observability"]

# status.value -> bundle trigger for terminal failures.
_STATUS_TRIGGERS = {
    "failed": "failure",
    "timed_out": "deadline-miss",
    "cancelled": "cancellation",
}


class Observability:
    """Bundle of recorder + SLO tracker + structured log + bundle writer."""

    def __init__(self, *, recorder: Optional[FlightRecorder] = None,
                 slo: Optional[SloTracker] = None,
                 bundle_dir=None, max_bundles: Optional[int] = None,
                 logger=None, retain_trace: bool = False):
        self.recorder = (FlightRecorder(retain=retain_trace)
                         if recorder is None else recorder)
        self.slo = SloTracker() if slo is None else slo
        self.logger = get_logger() if logger is None else logger
        self._registry = None
        self.bundles: Optional[BundleWriter] = None
        if bundle_dir is not None:
            kwargs = {} if max_bundles is None \
                else {"max_bundles": max_bundles}
            self.bundles = BundleWriter(bundle_dir, **kwargs)

    def bind_registry(self, registry) -> None:
        """Attach the service's metrics registry: the SLO tracker
        publishes its ``repro_slo_*`` families there, and bundles
        snapshot it at capture time."""
        self._registry = registry
        self.slo.bind_registry(registry)

    # -- the resolution hook -------------------------------------------------

    def on_request_done(self, request) -> Optional[str]:
        """Observe one resolved request; returns the bundle trigger that
        fired (None for a healthy request).  Never raises — this runs on
        the worker resolution path."""
        try:
            return self._observe(request)
        except Exception:
            logger = self.logger or NULL_LOGGER
            try:
                logger.error("obs.observe_failed",
                             request=getattr(request, "id", None))
            except Exception:
                pass
            return None

    def _observe(self, request) -> Optional[str]:
        status = getattr(request.status, "value", str(request.status))
        latency = request.latency
        expression = getattr(request, "expression", None) or "?"
        report = getattr(request, "report", None)
        ok = status == "served"
        verdict = None
        if status in ("served", "failed", "timed_out") \
                and latency is not None:
            # Rejected/cancelled requests never ran; they are neither
            # tail latency nor error-budget burn.
            verdict = self.slo.observe(expression, latency, ok=ok)
        record = self.recorder.attach_result(
            request.trace_id,
            request_id=getattr(request, "id", None),
            expression=expression, status=status,
            device=getattr(request, "device", None),
            latency_s=latency)
        trigger, reason = self._classify(status, report, verdict)
        if trigger is None:
            return None
        self.logger.log(
            "warning" if trigger == "latency-outlier" else "error",
            "obs.anomaly", trigger=trigger, reason=reason,
            trace_id=request.trace_id,
            request=getattr(request, "id", None),
            expression=expression, status=status,
            device=getattr(request, "device", None),
            latency_s=latency)
        if self.bundles is not None and record is not None:
            path = self.bundles.write(
                trigger=trigger, record=record, request=request,
                report=report, recorder=self.recorder,
                registry=self._registry,
                logger=self.logger, reason=reason)
            if path is not None:
                self.logger.info("obs.bundle_written", trigger=trigger,
                                 trace_id=request.trace_id,
                                 path=str(path))
        return trigger

    @staticmethod
    def _trigger_for_report(report) -> bool:
        codegen = getattr(report, "codegen", None)
        return (codegen is not None
                and codegen.disposition == "interpreter-fallback")

    def _classify(self, status: str, report, verdict):
        trigger = _STATUS_TRIGGERS.get(status)
        if trigger is not None:
            return trigger, f"terminal status {status}"
        if status != "served":
            return None, None          # rejected: admission, not anomaly
        if self._trigger_for_report(report):
            return ("codegen-fallback",
                    "compiled backend fell back to the interpreter plan")
        if verdict is not None and verdict.outlier:
            return ("latency-outlier",
                    f"latency above {self.slo.outlier_factor:g}x rolling "
                    f"p99 ({verdict.p99_s:.6f}s)")
        return None, None

    # -- surfaces ------------------------------------------------------------

    def health(self) -> dict:
        payload = self.slo.health()
        payload["recorder"] = self.recorder.stats()
        if self.bundles is not None:
            payload["bundles"] = self.bundles.stats()
        return payload

    def debug_index(self) -> dict:
        """The ``/debugz`` payload: bundle manifests plus the recorder's
        most recent sealed records."""
        recent = [record.summary()
                  for record in self.recorder.records()[-32:]]
        return {
            "recorder": self.recorder.stats(),
            "bundles": ([] if self.bundles is None
                        else self.bundles.index()),
            "bundle_stats": (None if self.bundles is None
                             else self.bundles.stats()),
            "recent_requests": recent,
        }

    def snapshot(self) -> dict:
        """Summary block for the service snapshot / load report."""
        out = {"recorder": self.recorder.stats(),
               "slo": self.slo.expression_summary(),
               "healthy": self.slo.healthy()}
        if self.bundles is not None:
            out["bundles"] = self.bundles.stats()
        return out
