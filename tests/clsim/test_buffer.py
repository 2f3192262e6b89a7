"""Unit tests for device buffers and the tracking allocator."""

import numpy as np
import pytest

from repro.clsim import Allocator, Buffer, INTEL_X5660_CPU, NVIDIA_M2050_GPU
from repro.errors import CLInvalidOperation, CLOutOfMemoryError


@pytest.fixture
def allocator():
    return Allocator(NVIDIA_M2050_GPU)


class TestAllocator:
    def test_reserve_and_release(self, allocator):
        allocator.reserve(1000)
        assert allocator.current_bytes == 1000
        allocator.release(1000)
        assert allocator.current_bytes == 0

    def test_peak_tracks_high_water(self, allocator):
        allocator.reserve(1000)
        allocator.reserve(500)
        allocator.release(1000)
        allocator.reserve(200)
        assert allocator.peak_bytes == 1500
        assert allocator.current_bytes == 700

    def test_oom_at_capacity(self, allocator):
        limit = NVIDIA_M2050_GPU.global_mem_bytes
        allocator.reserve(limit)
        with pytest.raises(CLOutOfMemoryError) as err:
            allocator.reserve(1)
        assert err.value.requested == 1
        assert err.value.available == 0

    def test_oom_preserves_state(self, allocator):
        limit = NVIDIA_M2050_GPU.global_mem_bytes
        allocator.reserve(limit - 10)
        with pytest.raises(CLOutOfMemoryError):
            allocator.reserve(100)
        assert allocator.current_bytes == limit - 10

    def test_exact_fit_allowed(self, allocator):
        allocator.reserve(NVIDIA_M2050_GPU.global_mem_bytes)
        assert allocator.available_bytes == 0

    def test_negative_allocation_rejected(self, allocator):
        with pytest.raises(CLInvalidOperation):
            allocator.reserve(-5)

    def test_over_release_rejected(self, allocator):
        allocator.reserve(10)
        with pytest.raises(CLInvalidOperation):
            allocator.release(20)

    def test_reset_peak(self, allocator):
        allocator.reserve(100)
        allocator.release(100)
        allocator.reset_peak()
        assert allocator.peak_bytes == 0

    def test_cpu_has_96_gib(self):
        assert Allocator(INTEL_X5660_CPU).device.global_mem_bytes \
            == 96 * 2**30


class TestBuffer:
    def test_write_read_round_trip(self, allocator):
        data = np.arange(8, dtype=np.float64)
        buf = Buffer(allocator, data.nbytes, label="t")
        buf.set_data(data)
        np.testing.assert_array_equal(buf.get_data(), data)

    def test_device_copy_not_view(self, allocator):
        data = np.arange(4, dtype=np.float64)
        buf = Buffer(allocator, data.nbytes)
        buf.set_data(data)
        data[0] = 99.0
        assert buf.get_data()[0] == 0.0

    def test_size_mismatch_rejected(self, allocator):
        buf = Buffer(allocator, 64)
        with pytest.raises(CLInvalidOperation, match="B"):
            buf.set_data(np.zeros(4, dtype=np.float32))

    def test_read_before_write_rejected(self, allocator):
        buf = Buffer(allocator, 8)
        with pytest.raises(CLInvalidOperation, match="before any write"):
            buf.get_data()

    def test_release_returns_memory(self, allocator):
        buf = Buffer(allocator, 128)
        assert allocator.current_bytes == 128
        buf.release()
        assert allocator.current_bytes == 0
        assert buf.released

    def test_release_idempotent(self, allocator):
        buf = Buffer(allocator, 128)
        buf.release()
        buf.release()
        assert allocator.current_bytes == 0

    def test_use_after_release_rejected(self, allocator):
        buf = Buffer(allocator, 8)
        buf.release()
        with pytest.raises(CLInvalidOperation, match="released"):
            buf.set_data(np.zeros(1))

    def test_repr_states(self, allocator):
        buf = Buffer(allocator, 8, label="x")
        assert "live" in repr(buf)
        buf.release()
        assert "released" in repr(buf)


class TestSizeClass:
    def test_minimum_class(self):
        from repro.clsim.buffer import size_class
        assert size_class(1) == 64
        assert size_class(64) == 64

    def test_power_of_two_rounding(self):
        from repro.clsim.buffer import size_class
        assert size_class(65) == 128
        assert size_class(128) == 128
        assert size_class(129) == 256
        assert size_class(1000) == 1024


class TestBufferPool:
    @pytest.fixture
    def pool(self, allocator):
        from repro.clsim.buffer import BufferPool
        return BufferPool(allocator)

    def test_miss_then_hit(self, allocator, pool):
        assert pool.acquire(100) is None          # cold: nothing parked
        buf = Buffer(allocator, 100, capacity=pool.capacity_for(100),
                     pool=pool)
        buf.release()                              # parks 128 B
        assert pool.pooled_bytes == 128
        recycled = pool.acquire(100)
        assert recycled is not None
        assert pool.pooled_bytes == 0
        assert (pool.hits, pool.misses) == (1, 1)

    def test_pooled_release_keeps_bytes_reserved(self, allocator, pool):
        buf = Buffer(allocator, 100, capacity=pool.capacity_for(100),
                     pool=pool)
        buf.release()
        # Parked, not returned: the device still holds the reservation.
        assert allocator.current_bytes == 128
        assert pool.trim() == 128
        assert allocator.current_bytes == 0

    def test_reuse_never_aliases_previous_data(self, allocator, pool):
        data = np.arange(16, dtype=np.float64)
        buf = Buffer(allocator, data.nbytes,
                     capacity=pool.capacity_for(data.nbytes), pool=pool)
        buf.set_data(data)
        device_copy = buf.data
        buf.release()
        recycled = pool.acquire(data.nbytes)
        # A recycled buffer starts empty: only the byte reservation is
        # reused, never storage, so stale values cannot leak through.
        assert recycled.data is None
        fresh = np.full(16, 7.0)
        recycled.set_data(fresh)
        assert recycled.data is not device_copy
        np.testing.assert_array_equal(device_copy, data)

    def test_reuse_counts_as_reused_allocation(self, allocator, pool):
        Buffer(allocator, 50, capacity=pool.capacity_for(50),
               pool=pool).release()
        pool.acquire(50)
        stats = allocator.stats(pool)
        assert stats.total_allocations == 1
        assert stats.reused_allocations == 1
        assert stats.pool_returns == 1

    def test_different_class_misses(self, allocator, pool):
        Buffer(allocator, 64, capacity=pool.capacity_for(64),
               pool=pool).release()
        assert pool.acquire(300) is None           # 512-class, not 64

    def test_unpooled_accounting_unchanged(self, allocator):
        """Cold-path buffers (no pool) reserve exactly nbytes — the
        paper's Fig 6 accounting is untouched by the pool's existence."""
        buf = Buffer(allocator, 100)
        assert buf.capacity == 100
        assert allocator.current_bytes == 100
        buf.release()
        assert allocator.current_bytes == 0
