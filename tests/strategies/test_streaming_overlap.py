"""Double-buffered streaming: the transfer/compute overlap contract.

The streaming strategy re-times its per-chunk event streams onto the
overlapped dual-DMA timeline.  These tests pin the three invariants that
make the rewrite honest: the output and every per-category cost are
identical to serial chunked execution, the win appears purely as
``timing.makespan``, and the overlap is observable downstream in the
Chrome-trace device lanes.
"""

import time

import numpy as np
import pytest

from repro.analysis import vortex
from repro.host import DerivedFieldEngine
from repro.strategies import StreamingFusionStrategy
from repro.trace import Tracer
from repro.workloads import SubGrid, make_fields

N_CHUNKS = 4


@pytest.fixture(scope="module")
def fields():
    return make_fields(SubGrid(12, 10, 8), seed=13)


def run(fields, *, depth, tracer=None):
    engine = DerivedFieldEngine(
        device="gpu",
        strategy=StreamingFusionStrategy(N_CHUNKS, pipeline_depth=depth),
        tracer=tracer)
    return engine.execute(vortex.Q_CRITERION, fields)


class TestOverlapTimeline:
    def test_serial_makespan_is_the_full_sum(self, fields):
        timing = run(fields, depth=1).timing
        assert timing.makespan == pytest.approx(
            timing.total + timing.build)

    def test_double_buffering_shrinks_makespan(self, fields):
        timing = run(fields, depth=2).timing
        assert 0 < timing.makespan < timing.total + timing.build

    def test_per_category_totals_invariant(self, fields):
        serial = run(fields, depth=1).timing
        overlapped = run(fields, depth=2).timing
        assert overlapped.host_to_device == \
            pytest.approx(serial.host_to_device)
        assert overlapped.kernel_exec == pytest.approx(serial.kernel_exec)
        assert overlapped.device_to_host == \
            pytest.approx(serial.device_to_host)
        assert overlapped.build == pytest.approx(serial.build)

    def test_event_counts_invariant(self, fields):
        serial = run(fields, depth=1)
        overlapped = run(fields, depth=2)
        assert overlapped.counts == serial.counts

    def test_output_bitwise_identical_to_serial(self, fields):
        assert np.array_equal(run(fields, depth=1).output,
                              run(fields, depth=2).output)

    def test_deeper_pipeline_is_at_least_as_fast(self, fields):
        two = run(fields, depth=2).timing.makespan
        four = run(fields, depth=4).timing.makespan
        assert four <= two + 1e-15

    def test_memory_pays_for_the_overlap(self, fields):
        serial = run(fields, depth=1).mem_high_water
        overlapped = run(fields, depth=2).mem_high_water
        assert serial < overlapped <= 2 * serial


class TestTraceLanes:
    def test_chrome_lanes_show_concurrent_transfer_and_compute(self, fields):
        tracer = Tracer()
        run(fields, depth=2, tracer=tracer)
        spans = [s for s in tracer.device_spans
                 if s.category in ("dev-write", "kernel")]
        kernels = [s for s in spans if s.category == "kernel"]
        writes = [s for s in spans if s.category == "dev-write"]
        assert kernels and writes
        overlapping = any(
            w.start < k.start + k.duration and k.start < w.start + w.duration
            for k in kernels for w in writes)
        assert overlapping, "no h2d transfer overlaps any kernel lane span"

    def test_serial_lanes_never_overlap(self, fields):
        # The offset clock stands in for a host with a long uptime, where
        # raw perf_counter values are ~4e4 s and their ulp (~7e-12 s) is
        # coarser than the tolerance below.
        for clock in (time.perf_counter,
                      lambda: time.perf_counter() + 4e4):
            tracer = Tracer(clock=clock)
            run(fields, depth=1, tracer=tracer)
            spans = sorted(tracer.device_spans, key=lambda s: s.start)
            for before, after in zip(spans, spans[1:]):
                assert after.start >= \
                    before.start + before.duration - 1e-12
