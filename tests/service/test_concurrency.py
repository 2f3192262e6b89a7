"""Concurrency stress tests: shared warm state must never change results.

Two layers are stressed:

* a single :class:`DerivedFieldEngine` (shared plan cache AND shared warm
  environment) hammered from many threads — outputs must stay
  bitwise-identical to serial execution and the cache counters must add
  up;
* a two-worker :class:`DerivedFieldService` — plans built by one worker
  must be warm hits for the other (identical device model), again with
  bitwise-identical outputs; and a busy worker takes no new work, so
  placement is least-loaded without a scheduler.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.vortex import EXPRESSION_INPUTS, EXPRESSIONS
from repro.host.engine import DerivedFieldEngine
from repro.service import DerivedFieldService
from repro.workloads import SubGrid, make_fields

GRID = SubGrid(6, 6, 8)
THREADS = 4
ROUNDS = 4


@pytest.fixture(scope="module")
def fields():
    return make_fields(GRID, seed=11)


@pytest.fixture(scope="module")
def baselines(fields):
    engine = DerivedFieldEngine(device="cpu", strategy="fusion")
    return {name: engine.derive(EXPRESSIONS[name],
                                {k: fields[k]
                                 for k in EXPRESSION_INPUTS[name]})
            for name in EXPRESSIONS}


def run_threads(worker, count):
    failures = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - collect, don't die
            failures.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class TestSharedEngine:
    def test_stress_bitwise_and_counters(self, fields, baselines):
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        names = list(EXPRESSIONS)

        def worker(index):
            for round_no in range(ROUNDS):
                # each thread starts on a different expression so cache
                # misses and hits interleave across threads
                name = names[(index + round_no) % len(names)]
                inputs = {k: fields[k] for k in EXPRESSION_INPUTS[name]}
                output = engine.derive(EXPRESSIONS[name], inputs)
                assert np.array_equal(output, baselines[name]), name

        run_threads(worker, THREADS)

        cache = engine.plan_cache
        assert len(cache) == len(EXPRESSIONS)
        assert cache.hits + cache.misses == THREADS * ROUNDS
        assert cache.evictions == 0
        assert cache.hits >= THREADS * ROUNDS - len(EXPRESSIONS)


class TestServiceCrossWorker:
    def test_two_workers_share_plans(self, fields, baselines):
        names = list(EXPRESSIONS)
        with DerivedFieldService(devices=("cpu", "cpu"),
                                 queue_depth=64) as service:

            def worker(index):
                for round_no in range(ROUNDS):
                    name = names[(index + round_no) % len(names)]
                    inputs = {k: fields[k]
                              for k in EXPRESSION_INPUTS[name]}
                    output = service.derive(EXPRESSIONS[name], inputs)
                    assert np.array_equal(output, baselines[name]), name

            run_threads(worker, THREADS * 2)
            snapshot = service.snapshot()

        total = THREADS * 2 * ROUNDS
        assert snapshot["requests"]["outcomes"]["served"] == total
        assert snapshot["requests"]["in_flight"] == 0
        # both identical-model workers served, and plans built by one
        # were warm for the other: more hits than a single worker could
        # have produced alone is implied by hit_rate with only 3 misses
        cache = snapshot["plan_cache"]
        assert cache["hit_rate"] > 0
        assert cache["lookups"] == total
        assert cache["hits"] >= total - len(EXPRESSIONS) * 2
        assert len(service.plan_cache) <= len(EXPRESSIONS)
        served_by = {name: dev["served"]
                     for name, dev in snapshot["devices"].items()}
        assert set(served_by) == {"0:cpu", "1:cpu"}
        assert sum(served_by.values()) == total

    def test_service_outputs_match_each_other(self, fields):
        # same request through both workers pinned by repetition: every
        # response for one expression must be bitwise identical
        inputs = {k: fields[k]
                  for k in EXPRESSION_INPUTS["q_criterion"]}
        outputs = []
        lock = threading.Lock()
        with DerivedFieldService(devices=("cpu", "cpu")) as service:

            def worker(_index):
                output = service.derive(EXPRESSIONS["q_criterion"],
                                        inputs)
                with lock:
                    outputs.append(output)

            run_threads(worker, 6)
        first = outputs[0]
        for output in outputs[1:]:
            assert np.array_equal(output, first)


class TestPullPlacement:
    def test_busy_worker_takes_no_new_work(self, fields, hold_engine):
        """Only an idle worker takes from the admission queue: while
        worker 0 is held inside its launch, a new request is served by
        worker 1."""
        inputs = {k: fields[k]
                  for k in EXPRESSION_INPUTS["velocity_magnitude"]}
        expression = EXPRESSIONS["velocity_magnitude"]
        with DerivedFieldService(devices=("cpu", "cpu")) as service:
            entered, gate = hold_engine(service.workers[0].engine)
            try:
                # Either idle worker may take a request; submit until
                # worker 0 is the one holding a launch.
                held = []
                give_up = time.monotonic() + 10.0
                while not entered.is_set():
                    assert time.monotonic() < give_up, "worker 0 idle"
                    held.append(service.submit(expression, inputs))
                    entered.wait(0.05)
                probe = service.submit(expression, inputs)
                assert probe.result(timeout=10.0).output is not None
                assert probe.device == "1:cpu"
            finally:
                gate.set()
            for handle in held:
                handle.result(timeout=10.0)
        assert "0:cpu" in {handle.device for handle in held}

    def test_workers_sharing_the_queue_settle_each_request_once(self,
                                                                fields):
        """Four workers (more than cores) and four submitters race on
        the one admission queue under a short switch interval: every
        request is served exactly once, bitwise equal to a solo run."""
        names = list(EXPRESSIONS)
        engine = DerivedFieldEngine(device="cpu", strategy="fusion")
        inputs = {name: {k: fields[k] for k in EXPRESSION_INPUTS[name]}
                  for name in names}
        expected = {name: engine.derive(EXPRESSIONS[name], inputs[name])
                    for name in names}
        handles = []
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DerivedFieldService(devices=("cpu",) * 4,
                                     queue_depth=256) as service:

                def submitter(index):
                    for round_no in range(12):
                        name = names[(index + round_no) % len(names)]
                        handle = service.submit(EXPRESSIONS[name],
                                                inputs[name])
                        with lock:
                            handles.append((name, handle))

                run_threads(submitter, 4)
                for name, handle in handles:
                    report = handle.result(timeout=30.0)
                    assert np.array_equal(report.output, expected[name])
        finally:
            sys.setswitchinterval(interval)
        requests = service.snapshot()["requests"]
        assert requests["outcomes"]["served"] == len(handles) == 48
        assert requests["offered"] == requests["resolved"]
        assert requests["in_flight"] == 0
