"""Tests for the span tracer core: nesting, ids, threads, null tracer."""

import os
import re
import threading
import uuid

import pytest

from repro.clsim.events import Event, EventKind
from repro.trace import NULL_TRACER, NullTracer, Span, Tracer


class TestSpanTree:
    def test_root_span_mints_trace_id(self):
        tracer = Tracer()
        with tracer.span("root") as span:
            assert span.trace_id
            assert span.parent_id is None

    def test_children_inherit_trace_id(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                with tracer.span("grandchild") as grand:
                    assert grand.trace_id == root.trace_id
                    assert grand.parent_id == child.span_id

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_parent_none_forces_new_root(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            span = tracer.span("detached", parent=None)
            assert span.parent_id is None
            assert span.trace_id != outer.trace_id

    def test_explicit_cross_thread_parent(self):
        tracer = Tracer()
        root = tracer.span("request", parent=None).start()
        result = {}

        def worker():
            with tracer.span("execute", parent=root) as span:
                result["trace_id"] = span.trace_id
                result["parent_id"] = span.parent_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        root.finish()
        assert result["trace_id"] == root.trace_id
        assert result["parent_id"] == root.span_id

    def test_span_ids_unique(self):
        tracer = Tracer()
        ids = set()
        for _ in range(100):
            with tracer.span("s") as span:
                ids.add(span.span_id)
        assert len(ids) == 100

    def test_current_tracks_thread_local_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                barrier.wait()
                seen[name] = tracer.current() is span
                barrier.wait()

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"t1": True, "t2": True}


class TestTraceIds:
    """Root spans draw trace ids without reading ``os.urandom``: that
    syscall releases the GIL on the submitting thread mid-burst."""

    def test_no_urandom_per_root_span(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("trace id read os.urandom")

        monkeypatch.setattr(os, "urandom", refuse)
        monkeypatch.setattr(uuid, "uuid4", refuse)
        tracer = Tracer()
        ids = [tracer.span("req", parent=None).trace_id
               for _ in range(10_000)]
        assert all(re.fullmatch("[0-9a-f]{16}", t) for t in ids)
        assert len(set(ids)) == len(ids)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_its_own_ids(self):
        tracer = Tracer()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:        # child: report its first id and leave
            try:
                os.write(write_end,
                         tracer.span("c", parent=None).trace_id.encode())
            finally:
                os._exit(0)
        os.close(write_end)
        mine = tracer.span("p", parent=None).trace_id
        with os.fdopen(read_end) as pipe:
            theirs = pipe.read()
        os.waitpid(pid, 0)
        assert re.fullmatch("[0-9a-f]{16}", theirs)
        assert theirs != mine


class TestSpanLifecycle:
    def test_recorded_only_on_finish(self):
        tracer = Tracer()
        span = tracer.span("open").start()
        assert tracer.spans == ()
        span.finish()
        assert [s.name for s in tracer.spans] == ["open"]

    def test_finish_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once").start()
        span.finish()
        end = span.end_time
        span.finish()
        assert span.end_time == end
        assert len(tracer.spans) == 1

    def test_unstarted_finish_records_nothing(self):
        tracer = Tracer()
        tracer.span("never").finish()
        assert tracer.spans == ()

    def test_duration_nonnegative_and_monotonic_clock(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.end_time >= span.start_time
        assert span.duration >= 0.0

    def test_annotate_merges_attrs(self):
        tracer = Tracer()
        with tracer.span("s", device="cpu") as span:
            span.annotate(hit=True)
        assert span.attrs == {"device": "cpu", "hit": True}

    def test_exception_still_finishes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.spans] == ["boom"]
        assert tracer.current() is None


class TestCountersAndDeviceSpans:
    def test_counter_samples(self):
        tracer = Tracer()
        tracer.counter("queue_depth", 3)
        tracer.counter("queue_depth", 1)
        values = [(c.name, c.value) for c in tracer.counters]
        assert values == [("queue_depth", 3.0), ("queue_depth", 1.0)]

    def test_add_device_events_bridges_model_timeline(self):
        tracer = Tracer()
        events = [
            Event(EventKind.DEV_WRITE, "u", 64, 1e-4, ts_seconds=0.0),
            Event(EventKind.KERNEL, "k_add", 64, 2e-4, ts_seconds=1e-4),
        ]
        # Lanes are stamped relative to the tracer's epoch.
        n = tracer.add_device_events("gpu0", events,
                                     anchor=tracer.epoch + 10.0,
                                     lane="worker-1")
        assert n == 2
        write, kernel = tracer.device_spans
        assert write.device == "gpu0"
        assert write.lane == "worker-1/dev-write"
        assert write.start == pytest.approx(10.0)
        assert kernel.lane == "worker-1/kernel"
        assert kernel.start == pytest.approx(10.0 + 1e-4)
        assert kernel.duration == pytest.approx(2e-4)

    def test_device_events_inherit_current_trace_id(self):
        tracer = Tracer()
        events = [Event(EventKind.KERNEL, "k", 8, 1e-5, ts_seconds=0.0)]
        with tracer.span("run") as span:
            tracer.add_device_events("cpu", events, anchor=0.0)
        assert tracer.device_spans[0].trace_id == span.trace_id

    def test_clear_resets_all_records(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.counter("g", 1)
        tracer.clear()
        assert tracer.spans == ()
        assert tracer.device_spans == ()
        assert tracer.counters == ()


class TestNullTracer:
    def test_singleton_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_TRACER, Tracer)   # substitutable everywhere

    def test_span_is_shared_noop_handle(self):
        a = NULL_TRACER.span("x", category="engine", attr=1)
        b = NULL_TRACER.span("y")
        assert a is b
        with a as span:
            span.annotate(k=2)
            span.finish()
        assert a.duration == 0.0

    def test_records_nothing(self):
        NULL_TRACER.counter("g", 5)
        events = [Event(EventKind.KERNEL, "k", 8, 1e-5, ts_seconds=0.0)]
        assert NULL_TRACER.add_device_events("cpu", events) == 0
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.device_spans == ()
        assert NULL_TRACER.counters == ()
        assert NULL_TRACER.current() is None
