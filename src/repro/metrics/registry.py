"""The unified metrics registry: counters, gauges, histograms.

Every subsystem with an observable surface — the :mod:`repro.clsim`
allocator and buffer pool, the command-queue event layer, the plan
cache, the engine's compile/prepare/execute phases, and the serving
layer — reports into one process-wide :class:`MetricsRegistry`.  The
registry is the single source the two exporters read: Prometheus text
exposition (:mod:`repro.metrics.prometheus`) and the JSON snapshot
(:meth:`MetricsRegistry.snapshot`).

Naming convention (DESIGN.md §9): ``repro_<subsystem>_<name>_<unit>``,
with cumulative counters suffixed ``_total`` and labels for bounded
dimensions only (device name, transfer direction, request outcome,
cache disposition — never per-request values).

Design points:

* **get-or-create registration** — ``registry.counter(name, ...)`` is
  idempotent, so independent subsystems can bind the same family
  without coordinating; re-registering a name with a different type or
  label set is a programming error and raises.
* **bound children** — hot paths call :meth:`Metric.labels` once at
  construction and hold the returned child; a child update is one
  short lock plus an add, with no dict lookup or label hashing on the
  hot path (the warm-execution budget is ≤1% of wall time, gated in
  ``benchmarks/regress.py``).
* **fixed exponential buckets** — histograms share one bucket layout
  per family, chosen at registration; cumulative bucket counts follow
  Prometheus semantics (each bucket counts observations ≤ its bound,
  ``+Inf`` equals the total count).
* **null twin** — :data:`NULL_REGISTRY` satisfies the same API with
  no-op instruments; ``set_registry(NULL_REGISTRY)`` turns the whole
  metric surface off, which is how the overhead benchmark gets its
  baseline.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Optional, Sequence

__all__ = [
    "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
    "NULL_REGISTRY", "NullRegistry", "exponential_buckets",
    "get_registry", "set_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    The implicit ``+Inf`` bucket is not included — every histogram adds
    it itself.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"exponential_buckets needs start>0, factor>1, count>=1; "
            f"got ({start}, {factor}, {count})")
    return tuple(start * factor ** i for i in range(count))


# 1 µs .. ~67 s: covers everything from a single gauge update to a full
# paper-scale sweep, in 4x steps (13 finite buckets + the +Inf bucket).
DEFAULT_DURATION_BUCKETS = exponential_buckets(1e-6, 4.0, 13)


class _CounterChild:
    """One labeled series of a counter (or the unlabeled default)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        # acquire/release rather than ``with``: half the cost on the
        # warm engine path, which the 1 % registry-overhead gate bounds.
        self._lock.acquire()
        try:
            self._value += amount
        finally:
            self._lock.release()

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    """One labeled series of a gauge."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        # A plain store is atomic under the GIL; set() is deliberately
        # lock-free (last writer wins) because it sits on the warm
        # buffer-pool path.  inc/dec/set_max read-modify-write and lock.
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below it (high-water
        tracking)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild:
    """One labeled series of a histogram (fixed exponential buckets)."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: tuple[float, ...]):
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # The first bucket whose bound is >= value; NaN, which compares
        # false with every bound, counts in +Inf.
        bounds = self._bounds
        i = bisect_left(bounds, value) if value == value else len(bounds)
        self._lock.acquire()    # not ``with``: see _CounterChild.inc
        try:
            self._counts[i] += 1
            self._sum += value
            self._count += 1
        finally:
            self._lock.release()

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for bound, n in zip((*self._bounds, math.inf), counts):
            running += n
            out.append((bound, running))
        return out


class Metric:
    """One registered metric family: a name, a type, and its children.

    A family with ``labelnames=()`` has a single anonymous child and
    forwards updates (``inc``/``set``/``observe``/...) directly; a
    labeled family hands out children via :meth:`labels`.
    """

    TYPE = "untyped"
    _FORWARDED: tuple[str, ...] = ()

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad metric label name {label!r}")
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            default = self._new_child()
            self._children[()] = default
            for method in self._FORWARDED:
                setattr(self, method, getattr(default, method))

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child for one label-value assignment (created on first
        use, cached forever — label sets must stay bounded)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}; got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def samples(self) -> list[tuple[dict, object]]:
        """``(labels_dict, child)`` pairs, insertion-ordered."""
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.labelnames, key)), child)
                for key, child in items]

    def _default_child(self):
        child = self._children.get(())
        if child is None:
            raise ValueError(
                f"metric {self.name!r} is labeled "
                f"{list(self.labelnames)}; read through .labels(...)")
        return child


class Counter(Metric):
    """Monotonic cumulative count (``_total`` families)."""

    TYPE = "counter"
    _FORWARDED = ("inc",)

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    @property
    def value(self) -> float:
        """The unlabeled series' value (labeled families read through
        their children)."""
        return self._default_child().value


class Gauge(Metric):
    """A value that goes up and down (bytes in use, queue depth)."""

    TYPE = "gauge"
    _FORWARDED = ("set", "inc", "dec", "set_max")

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(Metric):
    """Distribution over fixed exponential buckets."""

    TYPE = "histogram"
    _FORWARDED = ("observe",)

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate histogram buckets: {bounds}")
        if math.inf in bounds:
            bounds = bounds[:-1]        # +Inf is implicit
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum

    def cumulative(self) -> list[tuple[float, int]]:
        return self._default_child().cumulative()


class MetricsRegistry:
    """Thread-safe, get-or-create home of every metric family."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # -- registration --------------------------------------------------------

    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls \
                        or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.TYPE}{existing.labelnames}; cannot "
                        f"re-register as {cls.TYPE}{tuple(labelnames)}")
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
                  ) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    # -- read paths ----------------------------------------------------------

    def collect(self) -> list[Metric]:
        """Every registered family, name-sorted (exposition order)."""
        with self._lock:
            return [self._metrics[name]
                    for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """A point-in-time, JSON-serializable view of every family.

        Shape (stable, validated by the CI metrics-smoke job)::

            {family_name: {"type": ..., "help": ...,
                           "samples": [{"labels": {...}, ...}, ...]}}

        Counter/gauge samples carry ``"value"``; histogram samples carry
        ``"count"``, ``"sum"``, and cumulative ``"buckets"`` keyed by
        upper bound (``"+Inf"`` last).  Histogram families additionally
        carry ``"bounds"`` — the ordered finite upper bounds — so JSON
        consumers (``repro top``, the SLO tracker) can interpolate
        quantiles without parsing Prometheus text.
        """
        out: dict[str, dict] = {}
        for metric in self.collect():
            samples = []
            for labels, child in metric.samples():
                if metric.TYPE == "histogram":
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {bucket_label(bound): count
                                    for bound, count
                                    in child.cumulative()},
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            family = {"type": metric.TYPE,
                      "help": metric.help,
                      "samples": samples}
            if metric.TYPE == "histogram":
                family["bounds"] = list(metric.buckets)
            out[metric.name] = family
        return out

    def value(self, name: str, **labels: str) -> float:
        """Convenience read of one counter/gauge series (0.0 when the
        family or series does not exist yet)."""
        metric = self.get(name)
        if metric is None:
            return 0.0
        key = tuple(str(labels[n]) for n in metric.labelnames
                    if n in labels)
        if set(labels) != set(metric.labelnames):
            raise ValueError(
                f"metric {name!r} takes labels {list(metric.labelnames)}; "
                f"got {sorted(labels)}")
        with metric._lock:
            child = metric._children.get(key)
        return child.value if child is not None else 0.0


def bucket_label(bound: float) -> str:
    """Prometheus ``le`` text for one bucket bound (``+Inf`` aside,
    the shortest exact float repr)."""
    if math.isinf(bound):
        return "+Inf"
    return repr(bound)


# -- the null twin ----------------------------------------------------------

class _NullInstrument:
    """Accepts the full child/metric API and does nothing."""

    def labels(self, **labels):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """API-compatible no-op registry (the overhead baseline)."""

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = (),
                  ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def collect(self) -> list:
        return []

    def get(self, name: str) -> None:
        return None

    def snapshot(self) -> dict:
        return {}

    def value(self, name: str, **labels: str) -> float:
        return 0.0


NULL_REGISTRY = NullRegistry()

# The process-wide default registry.  Subsystems bind their instruments
# from get_registry() at construction time, so tests swap in a fresh
# registry *before* building engines/services and restore it after.
_default_registry: "MetricsRegistry | NullRegistry" = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> "MetricsRegistry | NullRegistry":
    """The registry new instruments bind to (see :func:`set_registry`)."""
    return _default_registry


def set_registry(registry: "MetricsRegistry | NullRegistry",
                 ) -> "MetricsRegistry | NullRegistry":
    """Install ``registry`` as the process default; returns the previous
    one (already-bound instruments keep reporting to it)."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
