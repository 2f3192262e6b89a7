"""Unit tests for the metrics registry core: instrument semantics,
label children, get-or-create registration, thread safety, and the
null twin / default-registry plumbing."""

import math
import threading

import pytest

from repro.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                           NULL_REGISTRY, exponential_buckets,
                           get_registry, set_registry)


class TestExponentialBuckets:
    def test_geometric_growth(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize("start,factor,count",
                             [(0, 2, 3), (-1, 2, 3), (1, 1.0, 3),
                              (1, 0.5, 3), (1, 2, 0)])
    def test_bad_arguments(self, start, factor, count):
        with pytest.raises(ValueError):
            exponential_buckets(start, factor, count)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("repro_t_total", "t")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_t_total", "t")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_t_bytes", "t")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0

    def test_set_max_is_high_water(self):
        gauge = MetricsRegistry().gauge("repro_t_bytes", "t")
        gauge.set_max(7.0)
        gauge.set_max(3.0)          # below: no effect
        assert gauge.value == 7.0
        gauge.set_max(9.0)
        assert gauge.value == 9.0


class TestHistogram:
    def test_count_sum_and_cumulative(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_seconds", "t", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(556.5)
        # A value equal to a bound lands in that bound's bucket.
        assert histogram.cumulative() == [
            (1.0, 2), (10.0, 3), (100.0, 4), (math.inf, 5)]

    def test_buckets_sorted_and_deduplicated(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_seconds", "t", buckets=(10.0, 1.0))
        assert histogram.buckets == (1.0, 10.0)
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_dup_seconds", "t",
                                        buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_none_seconds", "t",
                                        buckets=())

    def test_explicit_inf_bound_is_collapsed(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_seconds", "t", buckets=(1.0, math.inf))
        assert histogram.buckets == (1.0,)
        histogram.observe(99.0)
        assert histogram.cumulative() == [(1.0, 0), (math.inf, 1)]

    def test_nan_counts_in_inf_bucket(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_seconds", "t", buckets=(1.0, 10.0))
        histogram.observe(math.nan)
        assert histogram.cumulative() == [(1.0, 0), (10.0, 0),
                                          (math.inf, 1)]


class TestLabels:
    def test_children_are_independent_and_cached(self):
        counter = MetricsRegistry().counter("repro_t_total", "t",
                                            ("device",))
        cpu = counter.labels(device="cpu")
        gpu = counter.labels(device="gpu")
        cpu.inc(3)
        assert counter.labels(device="cpu") is cpu
        assert cpu.value == 3.0 and gpu.value == 0.0

    def test_wrong_label_set_rejected(self):
        counter = MetricsRegistry().counter("repro_t_total", "t",
                                            ("device",))
        with pytest.raises(ValueError):
            counter.labels(host="x")
        with pytest.raises(ValueError):
            counter.labels(device="cpu", extra="y")

    def test_labeled_family_has_no_default_value(self):
        counter = MetricsRegistry().counter("repro_t_total", "t",
                                            ("device",))
        with pytest.raises(ValueError):
            counter.value

    def test_unlabeled_family_forwards_updates(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t").inc()
        registry.gauge("repro_t_bytes", "t").set_max(4.0)
        registry.histogram("repro_t_seconds", "t").observe(0.1)
        assert registry.value("repro_t_total") == 1.0
        assert registry.value("repro_t_bytes") == 4.0
        assert registry.get("repro_t_seconds").count == 1

    def test_bad_label_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_t_total", "t", ("0bad",))


class TestRegistration:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_t_total", "t", ("device",))
        again = registry.counter("repro_t_total", "ignored", ("device",))
        assert again is first

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t")
        with pytest.raises(ValueError):
            registry.gauge("repro_t_total", "t")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t", ("device",))
        with pytest.raises(ValueError):
            registry.counter("repro_t_total", "t", ("host",))

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("0bad name", "t")

    def test_collect_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("repro_z_total", "t")
        registry.counter("repro_a_total", "t")
        assert [m.name for m in registry.collect()] == [
            "repro_a_total", "repro_z_total"]


class TestSnapshot:
    def test_scalar_and_histogram_shapes(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "count it",
                         ("device",)).labels(device="cpu").inc(2)
        registry.histogram("repro_t_seconds", "time it",
                           buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        family = snapshot["repro_t_total"]
        assert family["type"] == "counter"
        assert family["help"] == "count it"
        assert family["samples"] == [
            {"labels": {"device": "cpu"}, "value": 2.0}]
        histogram = snapshot["repro_t_seconds"]["samples"][0]
        assert histogram["count"] == 1
        assert histogram["sum"] == 0.5
        assert histogram["buckets"] == {"1.0": 1, "+Inf": 1}

    def test_value_reads(self):
        registry = MetricsRegistry()
        assert registry.value("repro_absent_total") == 0.0
        registry.counter("repro_t_total", "t",
                         ("device",)).labels(device="cpu").inc()
        assert registry.value("repro_t_total", device="cpu") == 1.0
        assert registry.value("repro_t_total", device="gpu") == 0.0
        with pytest.raises(ValueError):
            registry.value("repro_t_total")    # labels required


class TestThreadSafety:
    def test_concurrent_counter_increments(self):
        counter = MetricsRegistry().counter("repro_t_total", "t")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(5000)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 5000

    def test_concurrent_histogram_observes(self):
        histogram = MetricsRegistry().histogram("repro_t_seconds", "t",
                                                buckets=(0.5,))
        threads = [threading.Thread(
            target=lambda: [histogram.observe(0.25) for _ in range(3000)])
            for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert histogram.count == 18000
        assert histogram.cumulative() == [(0.5, 18000), (math.inf, 18000)]

    def test_concurrent_get_or_create(self):
        registry = MetricsRegistry()
        results = []

        def register():
            results.append(registry.counter("repro_t_total", "t"))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(metric is results[0] for metric in results)


class TestNullRegistry:
    def test_full_api_is_noop(self):
        instrument = NULL_REGISTRY.counter("repro_t_total", "t")
        instrument.inc()
        instrument.labels(device="cpu").observe(1.0)
        instrument.set(5.0)
        instrument.set_max(5.0)
        instrument.dec()
        assert instrument.value == 0.0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.collect() == []
        assert NULL_REGISTRY.value("repro_t_total", device="cpu") == 0.0


class TestDefaultRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        original = get_registry()
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert previous is original
            assert get_registry() is fresh
        finally:
            set_registry(original)
        assert get_registry() is original


def test_metric_classes_exported():
    assert Counter.TYPE == "counter"
    assert Gauge.TYPE == "gauge"
    assert Histogram.TYPE == "histogram"
