"""Failure-path tests: the service must degrade, not fall over.

Covers the three contractual failure modes end to end:

* admission rejection at a full queue (backpressure, not buffering);
* deadline expiry while still queued (mid-queue timeout checkpoint);
* device OOM during execution (request fails, buffers release, the
  service keeps serving).

Deterministic setups use ``start=False``: requests are staged into the
admission queue while no worker runs, then the service starts (or
the deadline expires) on our schedule.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.clsim.device import INTEL_X5660_CPU, MIB
from repro.errors import (CLOutOfMemoryError, RequestTimedOut,
                          ServiceOverloaded)
from repro.service import DerivedFieldService, RequestStatus
from repro.workloads import SubGrid, make_fields


def case_inputs(fields, name):
    return {k: fields[k] for k in EXPRESSION_INPUTS[name]}


class TestAdmissionRejection:
    def test_full_queue_rejects_then_recovers(self):
        fields = make_fields(SubGrid(4, 4, 6), seed=3)
        inputs = case_inputs(fields, "velocity_magnitude")
        service = DerivedFieldService(devices=("cpu",), queue_depth=2,
                                      start=False)
        try:
            admitted = [service.submit(EXPRESSIONS["velocity_magnitude"],
                                       inputs) for _ in range(2)]
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit(EXPRESSIONS["velocity_magnitude"], inputs)
            assert excinfo.value.depth == 2

            snapshot = service.snapshot()
            assert snapshot["requests"]["outcomes"]["rejected"] == 1
            assert snapshot["queue"]["depth"] == 2

            # the rejection was load, not poison: start and drain
            service.start()
            for handle in admitted:
                assert handle.result(timeout=10.0).output is not None
        finally:
            service.close()
        snapshot = service.snapshot()
        assert snapshot["requests"]["outcomes"]["served"] == 2
        assert snapshot["requests"]["in_flight"] == 0


class TestDeadlines:
    def test_deadline_expires_mid_queue(self):
        fields = make_fields(SubGrid(4, 4, 6), seed=3)
        inputs = case_inputs(fields, "velocity_magnitude")
        service = DerivedFieldService(devices=("cpu",), start=False)
        try:
            handles = [service.submit(EXPRESSIONS["velocity_magnitude"],
                                      inputs, timeout=0.01)
                       for _ in range(3)]
            time.sleep(0.05)          # deadlines pass while still queued
            service.start()
            for handle in handles:
                with pytest.raises(RequestTimedOut):
                    handle.result(timeout=10.0)
                assert handle.status is RequestStatus.TIMED_OUT
            snapshot = service.snapshot()
            assert snapshot["requests"]["outcomes"]["timed_out"] == 3
            assert snapshot["requests"]["outcomes"]["served"] == 0
        finally:
            service.close()

    def test_default_timeout_applies(self):
        fields = make_fields(SubGrid(4, 4, 6), seed=3)
        inputs = case_inputs(fields, "velocity_magnitude")
        service = DerivedFieldService(devices=("cpu",),
                                      default_timeout=0.01, start=False)
        try:
            handle = service.submit(EXPRESSIONS["velocity_magnitude"],
                                    inputs)
            assert handle.deadline is not None
            time.sleep(0.05)
            service.start()
            with pytest.raises(RequestTimedOut):
                handle.result(timeout=10.0)
        finally:
            service.close()


class TestWorkerOOM:
    def test_oom_fails_request_but_not_service(self):
        tiny = dataclasses.replace(INTEL_X5660_CPU,
                                   global_mem_bytes=1 * MIB)
        big = make_fields(SubGrid(32, 32, 32), seed=5)
        small = make_fields(SubGrid(4, 4, 6), seed=5)
        with DerivedFieldService(devices=(tiny,)) as service:
            doomed = service.submit(EXPRESSIONS["q_criterion"],
                                    case_inputs(big, "q_criterion"))
            with pytest.raises(CLOutOfMemoryError):
                doomed.result(timeout=10.0)
            assert doomed.status is RequestStatus.FAILED
            assert doomed.device == "0:cpu"

            # every buffer the failed execution reserved was released
            env = service.workers[0].engine.environment
            assert env is not None
            assert env.alloc_stats().live_bytes == 0

            # the same worker keeps serving
            output = service.derive(
                EXPRESSIONS["velocity_magnitude"],
                case_inputs(small, "velocity_magnitude"))
            assert np.all(np.isfinite(output))

            snapshot = service.snapshot()
        device = snapshot["devices"]["0:cpu"]
        assert device["failed"] == 1
        assert device["served"] == 1
        outcomes = snapshot["requests"]["outcomes"]
        assert outcomes["failed"] == 1
        assert outcomes["served"] == 1

    def test_oom_fails_every_member_of_a_coalesced_batch(self):
        tiny = dataclasses.replace(INTEL_X5660_CPU,
                                   global_mem_bytes=1 * MIB)
        big = make_fields(SubGrid(32, 32, 32), seed=5)
        small = make_fields(SubGrid(4, 4, 6), seed=5)
        service = DerivedFieldService(devices=(tiny,), max_batch=4,
                                      start=False)
        try:
            doomed = [service.submit(EXPRESSIONS["q_criterion"],
                                     case_inputs(big, "q_criterion"))
                      for _ in range(4)]
            service.start()
            for handle in doomed:
                with pytest.raises(CLOutOfMemoryError):
                    handle.result(timeout=10.0)
                assert handle.status is RequestStatus.FAILED
            # One same-key launch of four, counted like any other launch.
            batching = service.snapshot()["batching"]
            assert batching["launches"] == 1
            assert batching["coalesced_launches"] == 1
            assert batching["coalesced_requests"] == 4

            env = service.workers[0].engine.environment
            assert env is not None
            assert env.alloc_stats().live_bytes == 0

            # a probe request is still served
            output = service.derive(
                EXPRESSIONS["velocity_magnitude"],
                case_inputs(small, "velocity_magnitude"))
            assert np.all(np.isfinite(output))
        finally:
            service.close()
        snapshot = service.snapshot()
        requests = snapshot["requests"]
        assert requests["offered"] == \
            requests["resolved"] + requests["in_flight"]
        assert requests["in_flight"] == 0
        assert requests["outcomes"]["failed"] == 4
        assert requests["outcomes"]["served"] == 1
        assert snapshot["devices"]["0:cpu"]["failed"] == 4
        assert snapshot["batching"]["launches"] == 2


class TestShutdownUnderLoad:
    def test_close_without_drain_settles_backlog_and_launches(
            self, hold_engine):
        """``close(drain=False)`` with both workers inside a launch and a
        16-request backlog: the backlog is cancelled, the launches finish,
        every handle resolves, and every worker thread exits."""
        before = set(threading.enumerate())
        fields = make_fields(SubGrid(4, 4, 6), seed=3)
        inputs = case_inputs(fields, "velocity_magnitude")
        expression = EXPRESSIONS["velocity_magnitude"]
        service = DerivedFieldService(devices=("cpu", "cpu"), max_batch=2,
                                      queue_depth=32)
        holds = [hold_engine(worker.engine) for worker in service.workers]
        in_flight = []
        give_up = time.monotonic() + 10.0
        while not all(entered.is_set() for entered, _ in holds):
            assert time.monotonic() < give_up, "a worker never launched"
            in_flight.append(service.submit(expression, inputs))
            time.sleep(0.01)
        backlog = [service.submit(expression, inputs) for _ in range(16)]
        assert service.snapshot()["queue"]["depth"] == 16

        closer = threading.Thread(target=service.close,
                                  kwargs={"drain": False})
        closer.start()
        for handle in backlog:       # cancelled while launches are held
            assert handle.wait(10.0)
        for _, gate in holds:
            gate.set()
        closer.join(10.0)
        assert not closer.is_alive()

        assert all(handle.done() for handle in in_flight + backlog)
        assert all(handle.status is RequestStatus.CANCELLED
                   for handle in backlog)
        requests = service.snapshot()["requests"]
        outcomes = requests["outcomes"]
        assert (outcomes["served"] + outcomes["cancelled"]
                + outcomes["timed_out"] + outcomes["failed"]
                == requests["submitted"] == len(in_flight) + 16)
        assert outcomes["cancelled"] == 16
        assert requests["in_flight"] == 0
        assert not [thread.name for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith("repro-worker-")]
