"""Unit tests for batch coalescing (:mod:`repro.clsim.pipeline`) and
the overlapped timeline a chunked schedule's fold is stamped on."""

from dataclasses import replace

import numpy as np
import pytest

from repro.clsim.device import NVIDIA_M2050_GPU
from repro.clsim.events import Event, EventKind, EventLog
from repro.clsim.kernel import Kernel
from repro.clsim.perfmodel import KernelCost, transfer_seconds
from repro.clsim.pipeline import coalesce_events
from repro.errors import StrategyError
from repro.primitives.base import ResultKind
from repro.strategies import StreamingFusionStrategy
from repro.strategies.plancache import (AllocOp, ExecutablePlan, KernelOp,
                                        ReadOp, ReleaseOp, UploadOp)

DEVICE = NVIDIA_M2050_GPU


def stream(nbytes=8192, kernel_s=1e-3, tag="a"):
    """One plan capture: two uploads, a kernel, a readback."""
    up = transfer_seconds(nbytes, DEVICE)
    return [
        Event(EventKind.DEV_WRITE, f"u.{tag}", nbytes, up),
        Event(EventKind.DEV_WRITE, f"v.{tag}", nbytes, up),
        Event(EventKind.KERNEL, f"k.{tag}", 0,
              DEVICE.kernel_launch_overhead + kernel_s),
        Event(EventKind.DEV_READ, f"out.{tag}", nbytes, up),
    ]


class TestCoalesce:
    def test_empty_and_singleton(self):
        assert coalesce_events([], DEVICE) == []
        solo = coalesce_events([stream()], DEVICE)
        assert [e.name for e in solo] == ["u.a", "v.a", "k.a", "out.a"]
        assert all(e.ts_seconds is None for e in solo)

    def test_transfers_pay_latency_once(self):
        batch = 4
        merged = coalesce_events([stream(tag=str(i)) for i in range(batch)],
                                 DEVICE)
        upload = merged[0]
        assert upload.kind is EventKind.DEV_WRITE
        assert upload.nbytes == batch * 8192
        # One DMA over the stacked payload: a single link latency.
        assert upload.sim_seconds == pytest.approx(
            transfer_seconds(batch * 8192, DEVICE))
        assert upload.sim_seconds < batch * transfer_seconds(8192, DEVICE)

    def test_kernel_pays_launch_overhead_once(self):
        batch = 3
        merged = coalesce_events([stream(tag=str(i)) for i in range(batch)],
                                 DEVICE)
        kernel = merged[2]
        solo_kernel = stream()[2]
        assert kernel.sim_seconds == pytest.approx(
            batch * solo_kernel.sim_seconds
            - (batch - 1) * DEVICE.kernel_launch_overhead)

    def test_build_happens_once(self):
        base = stream()
        build = Event(EventKind.BUILD, "prog", 100, 0.25)
        merged = coalesce_events([[build] + base, [build] + base], DEVICE)
        assert merged[0].kind is EventKind.BUILD
        assert merged[0].sim_seconds == 0.25
        assert merged[0].nbytes == 100

    def test_names_carry_batch_width(self):
        merged = coalesce_events([stream(), stream(tag="b")], DEVICE)
        assert merged[2].name == "k.a[x2]"

    def test_accepts_event_logs(self):
        log = EventLog()
        for event in stream():
            log.record(event)
        merged = coalesce_events([log, stream(tag="b")], DEVICE)
        assert len(merged) == 4

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="different shapes"):
            coalesce_events([stream(), stream()[:-1]], DEVICE)

    def test_rejects_mismatched_kinds(self):
        other = stream()
        other[1], other[2] = other[2], other[1]
        with pytest.raises(ValueError, match="mismatched event kinds"):
            coalesce_events([stream(), other], DEVICE)


def chunked(n_slabs, depth, nbytes=8192):
    """A chunked schedule: per slab, two uploads, a kernel, a readback,
    then the slab's release — what ``chunk_plan`` emits."""
    ops = []
    for k in range(n_slabs):
        u, v, out = 3 * k, 3 * k + 1, 3 * k + 2
        ops += [UploadOp(u, f"u.{k}", nbytes, slab=k),
                UploadOp(v, f"v.{k}", nbytes, slab=k),
                AllocOp(out, f"out.{k}", nbytes, slab=k),
                KernelOp(Kernel(f"k.{k}"), (u, v), (out,),
                         KernelCost(3 * nbytes, 10 ** 7), slab=k),
                ReadOp(out, f"out.{k}", slab=k),
                ReleaseOp((u, v, out), slab=k)]
    plan = ExecutablePlan("chunked", (), nbytes // 8, np.float64, "out.0",
                          ResultKind.SCALAR, False, {}, tuple(ops))
    plan.pipeline_depth = depth
    return plan


def fold(n_slabs, depth):
    return chunked(n_slabs, depth).modeled(DEVICE)


def serial_sum(run):
    return sum(e.sim_seconds for e in run.events)


class TestChunkedTimeline:
    """A chunked schedule's fold overlaps its slabs on the device's
    upload, compute and readback engines, at most ``depth`` slabs
    resident at once."""

    def test_rejects_bad_depth(self):
        with pytest.raises(StrategyError, match="pipeline_depth"):
            StreamingFusionStrategy(pipeline_depth=0)

    def test_single_slab_is_serial(self):
        run = fold(1, depth=2)
        assert run.timing.makespan == pytest.approx(serial_sum(run))
        log = EventLog()
        log.record_all([replace(e, ts_seconds=None) for e in run.events],
                       ())
        assert [e.ts_seconds for e in run.events] == \
            [e.ts_seconds for e in log.events]

    def test_durations_and_totals_invariant(self):
        serial, overlapped = fold(4, depth=1), fold(4, depth=2)
        assert sorted(e.sim_seconds for e in overlapped.events) == sorted(
            e.sim_seconds for e in serial.events)
        assert sorted(e.name for e in overlapped.events) == sorted(
            e.name for e in serial.events)
        assert replace(overlapped.timing, makespan=0.0) == \
            replace(serial.timing, makespan=0.0)
        assert overlapped.counts == serial.counts

    def test_overlap_beats_serial(self):
        run = fold(4, depth=2)
        assert run.timing.makespan < serial_sum(run)

    def test_depth_one_is_fully_serial(self):
        run = fold(4, depth=1)
        assert run.timing.makespan == pytest.approx(serial_sum(run))

    def test_next_upload_overlaps_current_compute(self):
        events = {e.name: e for e in fold(2, depth=2).events}
        kernel0 = events["k.0"]
        assert events["u.1"].ts_seconds < \
            kernel0.ts_seconds + kernel0.sim_seconds

    def test_lanes_never_double_book(self):
        lanes = {EventKind.DEV_WRITE: "h2d", EventKind.KERNEL: "compute",
                 EventKind.BUILD: "compute", EventKind.DEV_READ: "d2h"}
        free = {"h2d": 0.0, "compute": 0.0, "d2h": 0.0}
        events = fold(5, depth=3).events
        assert [e.ts_seconds for e in events] == \
            sorted(e.ts_seconds for e in events)
        for event in events:
            lane = lanes[event.kind]
            assert event.ts_seconds >= free[lane] - 1e-15
            free[lane] = event.ts_seconds + event.sim_seconds

    def test_residency_bound_gates_slab_start(self):
        deep = {e.name: e for e in fold(3, depth=3).events}
        shallow = {e.name: e for e in fold(3, depth=1).events}
        # With depth 1, slab 1 cannot start before slab 0 finished.
        slab0_end = max(shallow[f"{n}.0"].ts_seconds
                        + shallow[f"{n}.0"].sim_seconds
                        for n in ("u", "v", "k", "out"))
        assert shallow["u.1"].ts_seconds >= slab0_end - 1e-15
        assert deep["u.1"].ts_seconds < shallow["u.1"].ts_seconds

    def test_recording_keeps_the_stamps(self):
        run = fold(3, depth=2)
        log = EventLog()
        run.record(log)
        assert [e.ts_seconds for e in log.events] == \
            [e.ts_seconds for e in run.events]

    def test_peak_is_the_resident_window(self):
        slab = 3 * 8192
        assert fold(4, depth=1).peak == slab
        assert fold(4, depth=2).peak == 2 * slab
        assert fold(2, depth=4).peak == 2 * slab
