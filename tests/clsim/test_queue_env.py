"""Unit tests for the command queue, profiling events, and environment."""

import numpy as np
import pytest

from repro.clsim import (CLEnvironment, Event, EventKind, Kernel,
                         KernelCost, Program)
from repro.errors import CLBuildError, CLInvalidOperation, CLError


@pytest.fixture
def env():
    return CLEnvironment("cpu")


def square_kernel():
    return Kernel("sq", "__kernel void sq() {}",
                  executor=lambda x: x * x)


class TestTransfers:
    def test_write_records_event(self, env):
        env.upload(np.zeros(16), "a")
        assert env.event_counts().dev_writes == 1
        assert env.queue.log.bytes_moved(EventKind.DEV_WRITE) == 128

    def test_read_returns_copy(self, env):
        buf = env.upload(np.arange(4.0), "a")
        out = env.queue.enqueue_read_buffer(buf)
        out[0] = 77.0
        assert buf.get_data()[0] == 0.0
        assert env.event_counts().dev_reads == 1

    def test_transfer_time_positive_and_monotone(self, env):
        small = env.upload(np.zeros(10), "s")
        big = env.upload(np.zeros(100000), "b")
        events = env.queue.log.events
        assert 0 < events[0].sim_seconds < events[1].sim_seconds


class TestKernels:
    def test_kernel_executes_and_stores(self, env):
        buf = env.upload(np.arange(4.0), "in")
        out = env.create_buffer(32, "out")
        env.queue.enqueue_kernel(square_kernel(), [buf], out,
                                 KernelCost(64, 4))
        np.testing.assert_array_equal(out.get_data(), [0, 1, 4, 9])
        assert env.event_counts().kernel_execs == 1

    def test_scalar_args_passed_by_value(self, env):
        out = env.create_buffer(8, "out")
        k = Kernel("fill", "", executor=lambda v: np.full(1, v))
        env.queue.enqueue_kernel(k, [3.5], out, KernelCost(8, 0))
        assert out.get_data()[0] == 3.5

    def test_output_size_mismatch_rejected(self, env):
        buf = env.upload(np.arange(4.0), "in")
        out = env.create_buffer(8, "out")  # too small
        with pytest.raises(CLInvalidOperation, match="B"):
            env.queue.enqueue_kernel(square_kernel(), [buf], out,
                                     KernelCost(0, 0))

    def test_multiple_outputs(self, env):
        buf = env.upload(np.arange(4.0), "in")
        out1 = env.create_buffer(32, "o1")
        out2 = env.create_buffer(32, "o2")
        k = Kernel("two", "", executor=lambda x: (x + 1, x - 1))
        env.queue.enqueue_kernel(k, [buf], [out1, out2], KernelCost(0, 0))
        np.testing.assert_array_equal(out1.get_data(), [1, 2, 3, 4])
        np.testing.assert_array_equal(out2.get_data(), [-1, 0, 1, 2])

    def test_output_count_mismatch_rejected(self, env):
        buf = env.upload(np.arange(4.0), "in")
        out = env.create_buffer(32, "o")
        k = Kernel("two", "", executor=lambda x: (x, x))
        with pytest.raises(CLInvalidOperation, match="outputs"):
            env.queue.enqueue_kernel(k, [buf], out, KernelCost(0, 0))

    def test_kernel_wall_time_recorded(self, env):
        buf = env.upload(np.zeros(1000), "in")
        out = env.create_buffer(8000, "out")
        env.queue.enqueue_kernel(square_kernel(), [buf], out,
                                 KernelCost(0, 0))
        kernel_events = [e for e in env.queue.log.events
                         if e.kind is EventKind.KERNEL]
        assert kernel_events[0].wall_seconds > 0


class TestDryRun:
    """A dry run is a plan's modeled walk over an environment's allocator
    and event log: no executor, no buffers, no output — the same events
    and peak as a live launch."""

    @staticmethod
    def plan(kernel):
        from repro.primitives.base import ResultKind
        from repro.strategies.plancache import (AllocOp, ExecutablePlan,
                                                KernelOp, ReadOp,
                                                ReleaseOp, UploadOp)
        ops = (UploadOp(0, "a", 64), AllocOp(1, "o", 64),
               KernelOp(kernel, (0,), (1,), KernelCost(128, 8)),
               ReadOp(1, "o"), ReleaseOp((0, 1)))
        return ExecutablePlan("tiny", ("a",), 8, np.float64, "o",
                              ResultKind.SCALAR, False, {}, ops)

    @staticmethod
    def bindings(data):
        from repro.strategies.bindings import ArraySpec, Binding
        return {"a": Binding("a", ArraySpec((8,), np.float64), data)}

    @staticmethod
    def model(plan, env):
        plan.model(env.context.allocator, env.queue.log)

    def test_dry_kernel_skips_executor(self):
        env = CLEnvironment("cpu")
        boom = Kernel("boom", "", executor=lambda x: 1 / 0)
        self.model(self.plan(boom), env)
        assert env.event_counts().kernel_execs == 1

    def test_dry_read_records_and_releases(self):
        env = CLEnvironment("cpu")
        self.model(self.plan(square_kernel()), env)
        assert env.event_counts().dev_reads == 1
        assert env.mem_in_use == 0

    def test_dry_and_live_events_identical(self):
        def measured(env):
            return env.event_counts(), env.timing().total, \
                env.mem_high_water

        live = CLEnvironment("gpu")
        self.plan(square_kernel()).execute(self.bindings(np.zeros(8)), live)
        dry = CLEnvironment("gpu")
        self.model(self.plan(square_kernel()), dry)
        assert measured(live) == measured(dry)
        # The launch itself only computes: it records nothing, and its
        # live allocator peaks where the walk does.
        launched = CLEnvironment("gpu")
        self.plan(square_kernel()).launch(self.bindings(np.zeros(8)),
                                          launched)
        assert launched.event_counts().as_row() == (0, 0, 0)
        assert launched.mem_high_water == dry.mem_high_water
        assert launched.mem_in_use == dry.mem_in_use == 0


class TestEnvironment:
    def test_device_selection(self):
        assert CLEnvironment("cpu").device.device_type.value == "cpu"
        assert CLEnvironment("gpu").device.device_type.value == "gpu"

    def test_unknown_device_rejected(self):
        with pytest.raises(CLError, match="unknown device"):
            CLEnvironment("tpu")

    def test_timing_breakdown_sums_to_total(self, env):
        buf = env.upload(np.zeros(64), "a")
        out = env.create_buffer(512, "o")
        env.queue.enqueue_kernel(square_kernel(), [buf], out,
                                 KernelCost(1024, 64))
        env.queue.enqueue_read_buffer(out)
        timing = env.timing()
        assert timing.total == pytest.approx(
            timing.host_to_device + timing.kernel_exec
            + timing.device_to_host)

    def test_build_excluded_from_total(self, env):
        program = Program("__kernel void k() {}")
        program.add_kernel(Kernel("k", ""))
        env.queue.build_program(program)
        assert env.timing().total == 0
        assert env.timing().build > 0

    def test_reset_instrumentation(self, env):
        buf = env.upload(np.zeros(8), "a")
        env.reset_instrumentation()
        assert env.event_counts().dev_writes == 0
        assert env.mem_high_water == env.mem_in_use

    def test_breakdown_keys(self, env):
        env.upload(np.zeros(8), "a")
        assert "dev-write" in env.queue.log.breakdown()


class TestProgram:
    def test_duplicate_kernel_rejected(self):
        program = Program("src")
        program.add_kernel(Kernel("k", ""))
        with pytest.raises(CLBuildError, match="duplicate"):
            program.add_kernel(Kernel("k", ""))

    def test_missing_kernel_lookup(self):
        with pytest.raises(CLBuildError, match="no kernel"):
            Program("src").kernel("nope")

    def test_build_marks_built(self, env):
        program = Program("line1\nline2")
        env.queue.build_program(program)
        assert program.built
        assert program.source_lines == 2
