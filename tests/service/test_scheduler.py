"""Unit tests for the service's policy pieces: the bounded admission
queue, a worker's coalescing take, and the metrics math.

These exercise each component in isolation (stub requests, no service)
so policy regressions localize.  Placement has no policy object to
test: an idle worker takes the next batch itself
(``test_concurrency.py::TestPullPlacement``).
"""

import threading
import time

import pytest

from repro.errors import ServiceClosed, ServiceOverloaded
from repro.service import (AdmissionQueue, DeviceWorker, LatencyStats,
                           ServiceMetrics, percentile)
from repro.strategies.plancache import PlanCache


class StubRequest:
    """Just enough of ServiceRequest for queue tests."""

    def __init__(self, request_id):
        self.id = request_id
        self.expression = "stub"
        self.outcome = None

    def resolve_rejected(self, depth):
        self.outcome = ("rejected", depth)
        return True

    def resolve_cancelled(self):
        self.outcome = ("cancelled",)
        return True

    def resolve_refused(self, error):
        self.outcome = ("refused", type(error).__name__)
        return True


class TestAdmissionQueue:
    def test_fifo_order(self):
        queue = AdmissionQueue(4)
        first, second = StubRequest(1), StubRequest(2)
        assert queue.offer(first) == 1
        assert queue.offer(second) == 2
        assert queue.take(timeout=0) is first
        assert queue.take(timeout=0) is second
        assert queue.take(timeout=0) is None

    def test_overload_rejects_and_resolves(self):
        queue = AdmissionQueue(2)
        queue.offer(StubRequest(1))
        queue.offer(StubRequest(2))
        overflow = StubRequest(3)
        with pytest.raises(ServiceOverloaded) as excinfo:
            queue.offer(overflow)
        assert excinfo.value.depth == 2
        assert overflow.outcome == ("rejected", 2)
        assert len(queue) == 2          # nothing was displaced

    def test_close_returns_leftovers_and_refuses(self):
        queue = AdmissionQueue(4)
        queued = [StubRequest(i) for i in range(3)]
        for request in queued:
            queue.offer(request)
        leftovers = queue.close()
        assert leftovers == queued
        assert len(queue) == 0
        late = StubRequest(99)
        with pytest.raises(ServiceClosed):
            queue.offer(late)
        assert late.outcome == ("refused", "ServiceClosed")

    def test_gauge_sees_every_depth_change(self):
        depths = []
        queue = AdmissionQueue(4, gauge=depths.append)
        queue.offer(StubRequest(1))
        queue.offer(StubRequest(2))
        queue.take(timeout=0)
        queue.close()
        assert depths == [1, 2, 1, 0]

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class KeyedRequest(StubRequest):
    """A stub carrying what a worker's take reads: a plan key, a
    deadline, a cancellation flag and a queue span."""

    def __init__(self, request_id, key="a", deadline=None,
                 cancel_requested=False):
        super().__init__(request_id)
        self.prepared = type("Prepared", (), {"key": key})()
        self.deadline = deadline
        self.cancel_requested = cancel_requested
        self.queue_span = None

    def deadline_expired(self):
        return self.deadline is not None and time.monotonic() >= self.deadline


def in_thread(call):
    """Run ``call`` on a thread; returns (thread, result list)."""
    result = []
    thread = threading.Thread(target=lambda: result.append(call()),
                              daemon=True)
    thread.start()
    return thread, result


def lingering(queue, key, limit=1):
    """Start ``take_matching`` for ``key`` on a thread with a 30 s linger
    and return once it waits.  The queue must hold a request of another
    key: the match callback runs on it under the queue lock just before
    the linger waits, so the next call that takes the lock finds the
    linger waiting."""
    scanned = threading.Event()

    def match(request):
        scanned.set()
        return request.prepared.key == key

    thread, result = in_thread(lambda: queue.take_matching(
        match, limit, wait_until=time.monotonic() + 30.0))
    assert scanned.wait(5.0), "the linger never scanned the queue"
    return thread, result


def blocked(thread, for_s=0.05):
    """Whether ``thread`` is still running after ``for_s`` seconds."""
    thread.join(for_s)
    return thread.is_alive()


class TestTakeMatching:
    def test_takes_matches_from_anywhere_in_fifo_order(self):
        queue = AdmissionQueue(8)
        a1, b1, a2, a3 = (KeyedRequest(1, "a"), KeyedRequest(2, "b"),
                          KeyedRequest(3, "a"), KeyedRequest(4, "a"))
        for request in (a1, b1, a2, a3):
            queue.offer(request)
        taken = queue.take_matching(lambda r: r.prepared.key == "a", 2)
        assert taken == [a1, a2]
        assert queue.take(timeout=0) is b1
        assert queue.take(timeout=0) is a3

    def test_zero_limit_takes_nothing(self):
        queue = AdmissionQueue(4)
        queue.offer(KeyedRequest(1))
        assert queue.take_matching(lambda r: True, 0) == []
        assert len(queue) == 1

    def test_linger_ends_at_wait_until(self):
        queue = AdmissionQueue(4)
        queue.offer(KeyedRequest(1, "b"))
        start = time.monotonic()
        taken = queue.take_matching(lambda r: r.prepared.key == "a", 3,
                                    wait_until=start + 0.05)
        assert taken == []
        assert time.monotonic() - start >= 0.05
        assert len(queue) == 1

    def test_linger_ends_when_limit_fills(self):
        queue = AdmissionQueue(4)
        other = KeyedRequest(1, "b")
        queue.offer(other)
        thread, result = lingering(queue, "a")
        late = KeyedRequest(2, "a")
        queue.offer(late)
        thread.join(5.0)
        assert not thread.is_alive()
        assert result == [[late]]
        assert queue.take(timeout=0) is other

    def test_close_ends_linger(self):
        queue = AdmissionQueue(4)
        other = KeyedRequest(1, "b")
        queue.offer(other)
        thread, result = lingering(queue, "a", limit=2)
        assert queue.close() == [other]
        thread.join(5.0)
        assert not thread.is_alive()
        assert result == [[]]


class TestBlockingTake:
    def test_take_waits_for_an_offer(self):
        queue = AdmissionQueue(4)
        thread, result = in_thread(queue.take)
        assert blocked(thread), "take returned from an empty queue"
        request = KeyedRequest(1)
        queue.offer(request)
        thread.join(5.0)
        assert not thread.is_alive()
        assert result == [request]

    def test_close_wakes_an_empty_take(self):
        queue = AdmissionQueue(4)
        thread, result = in_thread(queue.take)
        assert blocked(thread), "take returned from an empty queue"
        queue.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert result == [None]

    def test_offer_wakes_a_taker_behind_a_lingerer(self):
        # The lingerer waits first, so a single notify() would wake it
        # (it finds no match and sleeps again) and strand the taker.
        queue = AdmissionQueue(4)
        queue.offer(KeyedRequest(1, "z"))
        lingerer, lingered = lingering(queue, "a")
        assert queue.take(timeout=0).id == 1      # empty the queue again
        taker, taken = in_thread(queue.take)
        try:
            assert blocked(taker), "take returned from an empty queue"
            request = KeyedRequest(2, "b")
            queue.offer(request)
            taker.join(5.0)
            assert not taker.is_alive()
            assert taken == [request]
        finally:
            queue.close()
        lingerer.join(5.0)
        assert lingered == [[]]


def make_worker(queue, *, max_batch, batch_window=0.0):
    """A worker bound to ``queue`` whose thread is never started."""
    return DeviceWorker(0, "cpu", "fusion", PlanCache(), ServiceMetrics(),
                        on_done=lambda request: None, queue=queue,
                        max_batch=max_batch, batch_window=batch_window)


class TestWorkerTake:
    def test_keyless_head_runs_alone(self):
        queue = AdmissionQueue(4)
        head, other = KeyedRequest(1, None), KeyedRequest(2, None)
        queue.offer(head)
        queue.offer(other)
        assert make_worker(queue, max_batch=4)._take_batch() == [head]
        assert len(queue) == 1

    @pytest.mark.parametrize("dead", [
        {"cancel_requested": True},
        {"deadline": 0.0},
    ], ids=["cancelled", "expired"])
    def test_dead_head_is_taken_alone(self, dead):
        # A follower that would fill the batch at once: a worker that
        # grew a dead head's batch would take it instead of leaving it.
        queue = AdmissionQueue(4)
        head, follower = KeyedRequest(1, **dead), KeyedRequest(2)
        queue.offer(head)
        queue.offer(follower)
        worker = make_worker(queue, max_batch=2, batch_window=30.0)
        assert worker._take_batch() == [head]
        assert queue.take(timeout=0) is follower

    def test_closed_empty_queue_ends_the_loop(self):
        queue = AdmissionQueue(4)
        queue.close()
        assert make_worker(queue, max_batch=4)._take_batch() is None


class TestLatencyMath:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) == 50.0    # rank ceil(0.5 * 100)
        assert percentile(samples, 100) == 100.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_latency_stats_summary(self):
        stats = LatencyStats()
        for value in (0.2, 0.1, 0.4, 0.3):
            stats.record(value)
        summary = stats.summary()
        assert summary["count"] == 4
        assert summary["max_s"] == 0.4
        assert summary["mean_s"] == pytest.approx(0.25)
        assert summary["p50_s"] in (0.2, 0.3)
        assert summary["p99_s"] == 0.4

    def test_reservoir_stays_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.service.metrics.MAX_LATENCY_SAMPLES", 8)
        stats = LatencyStats()
        for i in range(100):
            stats.record(float(i))
        assert stats.count == 100
        assert len(stats._samples) < 16       # thinned, not unbounded
        assert stats.summary()["max_s"] == 99.0
