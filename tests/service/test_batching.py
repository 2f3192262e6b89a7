"""Micro-batched dispatch: correctness, deadlines, and accounting.

A worker's coalescing take must be *transparent*: a request served as
member of a batch produces the same ``ExecutionReport`` — bitwise output,
event counts, modeled timing, memory peak — it would have produced served
alone.  Batch composition is made deterministic the same way the bench
does it: build the service stopped, presubmit the backlog, then start.

Also covered here: the deadline-aware cutoff (a linger window never
strands a request past its deadline), and the admission-accounting
regression (``in_flight`` computed from ``offered == terminal +
in_flight`` must never go negative while submissions race terminal
resolutions through the batched path).
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.errors import (RequestCancelled, RequestTimedOut,
                          ServiceOverloaded)
from repro.service import build_service
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(6, 6, 8)
STRATEGIES = ("roundtrip", "staged", "fusion")


@pytest.fixture(scope="module")
def fields():
    return make_fields(GRID, seed=7)


def case_inputs(fields, name):
    return {k: fields[k] for k in EXPRESSION_INPUTS[name]}


def drain_backlog(fields, *, strategy, max_batch, requests=8,
                  name="q_criterion"):
    """Presubmit ``requests`` identical requests against a stopped
    service, start it, and return the reports in submission order."""
    inputs = case_inputs(fields, name)
    service = build_service(("cpu",), strategy=strategy,
                            max_batch=max_batch, queue_depth=requests,
                            start=False)
    try:
        handles = [service.submit(EXPRESSIONS[name], inputs)
                   for _ in range(requests)]
        service.start()
        reports = [h.result(timeout=30.0) for h in handles]
    finally:
        service.close()
    # Snapshot after close: workers are joined, so outcome counters are
    # final (resolution unblocks result() just before metrics record).
    return reports, service.snapshot()


class TestBatchTransparency:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_reports_identical_to_per_request(self, fields,
                                                      strategy):
        batched, snap_b = drain_backlog(fields, strategy=strategy,
                                        max_batch=8)
        solo, snap_s = drain_backlog(fields, strategy=strategy,
                                     max_batch=1)
        assert snap_b["batching"]["coalesced_launches"] > 0
        assert snap_s["batching"]["coalesced_launches"] == 0
        for member, reference in zip(batched, solo):
            assert np.array_equal(member.output, reference.output)
            assert member.output.dtype == reference.output.dtype
            assert member.counts == reference.counts
            assert member.strategy == reference.strategy
            assert member.timing.host_to_device == \
                pytest.approx(reference.timing.host_to_device)
            assert member.timing.kernel_exec == \
                pytest.approx(reference.timing.kernel_exec)
            assert member.timing.device_to_host == \
                pytest.approx(reference.timing.device_to_host)
            assert member.mem_high_water == reference.mem_high_water
            assert member.generated_sources == \
                reference.generated_sources

    def test_every_member_resolves_served(self, fields):
        reports, snapshot = drain_backlog(fields, strategy="fusion",
                                          max_batch=8, requests=12)
        assert len(reports) == 12
        assert snapshot["requests"]["outcomes"]["served"] == 12
        assert snapshot["requests"]["in_flight"] == 0

    def test_mixed_expressions_batch_only_within_plan(self, fields):
        """Different expressions have different plan keys and must not
        coalesce with each other; everything still serves correctly."""
        service = build_service(("cpu",), strategy="fusion", max_batch=8,
                                queue_depth=32, start=False)
        try:
            handles = []
            for _ in range(4):
                for name in EXPRESSIONS:
                    handles.append(service.submit(
                        EXPRESSIONS[name], case_inputs(fields, name)))
            service.start()
            for handle in handles:
                assert handle.result(timeout=30.0).output is not None
        finally:
            service.close()
        snapshot = service.snapshot()
        assert snapshot["requests"]["outcomes"]["served"] == len(handles)

    def test_modeled_time_amortizes_launch_overhead(self, fields):
        _, snap_b = drain_backlog(fields, strategy="fusion", max_batch=8,
                                  requests=16)
        _, snap_s = drain_backlog(fields, strategy="fusion", max_batch=1,
                                  requests=16)
        batched = snap_b["devices"]["0:cpu"]["modeled_seconds"]
        solo = snap_s["devices"]["0:cpu"]["modeled_seconds"]
        assert batched < solo

    def test_max_batch_bounds_coalescing(self, fields):
        _, snapshot = drain_backlog(fields, strategy="fusion",
                                    max_batch=4, requests=16)
        batching = snapshot["batching"]
        assert batching["coalesced_requests"] <= 16
        assert batching["mean_batch_size"] <= 4.0


class TestDeadlineCutoff:
    def test_expired_members_resolve_timed_out_not_stranded(self, fields):
        """A backlog whose deadlines expire before dispatch: every
        request still resolves (timed out), none hang."""
        inputs = case_inputs(fields, "q_criterion")
        service = build_service(("cpu",), strategy="fusion", max_batch=8,
                                queue_depth=16, start=False,
                                default_timeout=0.0)
        try:
            handles = [service.submit(EXPRESSIONS["q_criterion"], inputs)
                       for _ in range(8)]
            service.start()
            for handle in handles:
                with pytest.raises(RequestTimedOut):
                    handle.result(timeout=30.0)
        finally:
            service.close()
        snapshot = service.snapshot()
        assert snapshot["requests"]["outcomes"]["timed_out"] == 8
        assert snapshot["requests"]["in_flight"] == 0

    def test_linger_window_never_outwaits_a_deadline(self, fields):
        """With a batch window far longer than the request deadline, the
        worker must cut the linger short: requests resolve promptly
        (served or timed out), never stranded behind the window."""
        inputs = case_inputs(fields, "q_criterion")
        service = build_service(("cpu",), strategy="fusion", max_batch=8,
                                batch_window=30.0, queue_depth=16,
                                default_timeout=0.5)
        try:
            handles = [service.submit(EXPRESSIONS["q_criterion"], inputs)
                       for _ in range(3)]
            outcomes = []
            for handle in handles:
                try:
                    handle.result(timeout=10.0)
                    outcomes.append("served")
                except RequestTimedOut:
                    outcomes.append("timed_out")
        finally:
            service.close()
        snapshot = service.snapshot()
        assert len(outcomes) == 3
        assert snapshot["requests"]["in_flight"] == 0

    def test_partial_batch_launches_at_window_end(self, fields):
        """A lone request with a finite window still executes — the
        window is a linger bound, not a minimum batch size."""
        inputs = case_inputs(fields, "q_criterion")
        with build_service(("cpu",), strategy="fusion", max_batch=8,
                           batch_window=0.05) as service:
            report = service.execute(EXPRESSIONS["q_criterion"], inputs)
        assert report.output is not None

    def test_cancelled_head_resolves_without_a_linger(self, fields):
        """A head cancelled while queued has no deadline to cut a 30 s
        window short; the worker must take it alone and resolve it at
        once instead of lingering for followers it will never run."""
        service = build_service(("cpu",), strategy="fusion", max_batch=8,
                                batch_window=30.0, start=False)
        try:
            handle = service.submit(EXPRESSIONS["q_criterion"],
                                    case_inputs(fields, "q_criterion"))
            assert handle.cancel()
            start = time.monotonic()
            service.start()
            with pytest.raises(RequestCancelled):
                handle.result(timeout=5.0)
            assert time.monotonic() - start < 1.0
        finally:
            service.close(drain=False)
        assert service.snapshot()["requests"]["outcomes"]["cancelled"] == 1

    def test_linger_delays_only_the_lingering_worker(self, fields):
        """One worker lingering for q_criterion followers must not hold
        up other work.  The other worker takes a velocity_magnitude
        request and lingers for its follower; when that follower
        arrives, the wake-up must reach it and not only the q_criterion
        worker.  The pair (a full batch at ``max_batch=2``) is served
        within a second, not after the 5 s linger."""
        service = build_service(("cpu", "cpu"), strategy="fusion",
                                max_batch=2, batch_window=30.0)

        def await_empty_queue():
            give_up = time.monotonic() + 5.0
            while service.snapshot()["queue"]["depth"] != 0:
                assert time.monotonic() < give_up, "nobody took the head"

        try:
            lingering = service.submit(EXPRESSIONS["q_criterion"],
                                       case_inputs(fields, "q_criterion"),
                                       timeout=5.0)
            await_empty_queue()
            inputs = case_inputs(fields, "velocity_magnitude")
            start = time.monotonic()
            pair = [service.submit(EXPRESSIONS["velocity_magnitude"],
                                   inputs)]
            await_empty_queue()
            pair.append(service.submit(EXPRESSIONS["velocity_magnitude"],
                                       inputs))
            for handle in pair:
                assert handle.result(timeout=1.0).output is not None
            assert time.monotonic() - start < 1.0
            assert not lingering.done()
        finally:
            service.close(drain=False)
        assert lingering.done()
        assert service.snapshot()["requests"]["in_flight"] == 0


class TestAdmissionAccounting:
    def test_in_flight_never_negative_under_racing_submissions(self,
                                                               fields):
        """Satellite regression: the submitted-counter increment happens
        inside the queue lock (``on_admit``), so a snapshot can never
        observe a terminal count for a request whose submission was not
        yet counted — even while batched dispatch races admissions."""
        inputs = case_inputs(fields, "q_criterion")
        service = build_service(("cpu",), strategy="fusion", max_batch=8,
                                queue_depth=4)
        violations = []
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                requests = service.snapshot()["requests"]
                if requests["in_flight"] < 0:
                    violations.append(requests)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            def hammer():
                for _ in range(40):
                    try:
                        service.submit(EXPRESSIONS["q_criterion"],
                                       inputs).result(timeout=30.0)
                    except ServiceOverloaded:
                        pass

            threads = [threading.Thread(target=hammer, daemon=True)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            stop.set()
            watcher.join(timeout=5.0)
            service.close()
        assert not violations, violations[:3]
        requests = service.snapshot()["requests"]
        assert requests["in_flight"] == 0
        assert requests["offered"] == requests["resolved"]
