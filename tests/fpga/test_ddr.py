"""Unit and property tests for the device memory allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import MemoryAllocator, OutOfMemoryError
from repro.fpga.ddr import is_zero_view, materialize, zero_view


class TestAllocation:
    def test_allocate_tracks_usage(self):
        allocator = MemoryAllocator(1000)
        buffer = allocator.allocate(300)
        assert allocator._used == 300
        assert allocator.free == 700
        assert buffer.size == 300

    def test_out_of_memory_raises(self):
        allocator = MemoryAllocator(100)
        allocator.allocate(80)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(30)

    def test_release_returns_memory(self):
        allocator = MemoryAllocator(100)
        buffer = allocator.allocate(80)
        allocator.release(buffer)
        assert allocator._used == 0
        allocator.allocate(100)  # must fit again

    def test_release_unknown_id_raises(self):
        allocator = MemoryAllocator(100)
        with pytest.raises(KeyError):
            allocator.release(42)

    def test_release_all(self):
        allocator = MemoryAllocator(100)
        buffers = [allocator.allocate(10) for _ in range(5)]
        assert allocator.release_all() == 5
        assert allocator._used == 0
        for buffer in buffers:
            assert buffer.freed

    def test_zero_size_rejected(self):
        allocator = MemoryAllocator(100)
        with pytest.raises(ValueError):
            allocator.allocate(0)

    def test_get_by_id(self):
        allocator = MemoryAllocator(100)
        buffer = allocator.allocate(10)
        assert allocator._buffers[buffer.id] is buffer

    def test_buffers_do_not_overlap(self):
        allocator = MemoryAllocator(1000)
        buffers = [allocator.allocate(100) for _ in range(10)]
        ranges = sorted((b.offset, b.offset + b.size) for b in buffers)
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end <= start

    def test_hole_reuse_after_free(self):
        allocator = MemoryAllocator(300)
        first = allocator.allocate(100)
        allocator.allocate(100)
        allocator.release(first)
        reused = allocator.allocate(100)
        assert reused.offset == 0

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=64),
                       min_size=1, max_size=40)
    )
    @settings(max_examples=50, deadline=None)
    def test_alloc_free_invariants(self, sizes):
        allocator = MemoryAllocator(4096)
        live = []
        for index, size in enumerate(sizes):
            buffer = allocator.allocate(size)
            live.append(buffer)
            if index % 3 == 2:
                allocator.release(live.pop(0))
        assert allocator._used == sum(b.size for b in live)
        spans = sorted((b.offset, b.offset + b.size) for b in live)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start


class TestDeviceBuffer:
    def test_write_then_read_roundtrip(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(16)
        buffer.write(b"hello world!!")
        assert buffer.read(13) == b"hello world!!"

    def test_write_numpy_array(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(16)
        data = np.arange(4, dtype=np.float32)
        buffer.write(data)
        out = np.frombuffer(buffer.read(16), dtype=np.float32)
        np.testing.assert_array_equal(out, data)

    def test_offset_access(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(10)
        buffer.write(b"abc", offset=4)
        assert buffer.read(3, offset=4) == b"abc"

    def test_out_of_bounds_rejected(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(10)
        with pytest.raises(ValueError):
            buffer.write(b"x" * 11)
        with pytest.raises(ValueError):
            buffer.read(5, offset=8)

    def test_freed_buffer_rejected(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(10)
        allocator.release(buffer)
        with pytest.raises(RuntimeError):
            buffer.read(1)

    def test_as_array_view_is_writable(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(16)
        view = buffer.as_array(np.float32, (4,))
        view[:] = [1, 2, 3, 4]
        out = np.frombuffer(buffer.read(16), dtype=np.float32)
        np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_timing_only_mode_has_no_data(self):
        allocator = MemoryAllocator(100, functional=False)
        buffer = allocator.allocate(10)
        buffer.write(b"ignored")            # accepted, dropped
        assert buffer.read(4) == bytes(4)   # zeros
        with pytest.raises(RuntimeError):
            _ = buffer.data


class TestZeroCopyViews:
    """The zero-copy contract: reads are views, copies are explicit."""

    def test_read_returns_memoryview(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(8)
        assert isinstance(buffer.read(), memoryview)

    def test_read_view_is_live(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(4)
        view = buffer.read(4)
        buffer.write(b"abcd")
        assert bytes(view) == b"abcd"

    def test_materialize_snapshots_live_views(self):
        allocator = MemoryAllocator(100, functional=True)
        buffer = allocator.allocate(4)
        buffer.write(b"abcd")
        snapshot = materialize(buffer.read(4))
        buffer.write(b"wxyz")
        assert snapshot == b"abcd"

    def test_materialize_passes_through_bytes_none_and_zero_pages(self):
        blob = b"payload"
        assert materialize(blob) is blob
        assert materialize(None) is None
        view = zero_view(32)
        assert materialize(view) is view

    def test_zero_view_identity_survives_growth(self):
        small = zero_view(8)
        big = zero_view(64 << 20)  # force the page to grow past 64 KiB
        assert is_zero_view(small)
        assert is_zero_view(big)
        assert big.nbytes == 64 << 20
        assert not is_zero_view(memoryview(b"\0" * 8))

    def test_timing_only_reads_share_the_zero_page(self):
        allocator = MemoryAllocator(100, functional=False)
        buffer = allocator.allocate(10)
        assert is_zero_view(buffer.read(10))

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write", "read"]),
                st.integers(min_value=0, max_value=31),   # offset
                st.integers(min_value=0, max_value=32),   # length
                st.binary(min_size=0, max_size=32),       # payload source
            ),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_view_semantics_match_bytes_model(self, ops):
        """Property: the view-based buffer behaves exactly like the old
        bytes-based implementation, modelled here by a plain bytearray."""
        size = 32
        allocator = MemoryAllocator(1024, functional=True)
        buffer = allocator.allocate(size)
        model = bytearray(size)
        for kind, offset, length, payload in ops:
            if kind == "write":
                data = payload[:max(0, size - offset)]
                buffer.write(data, offset)
                model[offset:offset + len(data)] = data
            else:
                length = min(length, size - offset)
                got = materialize(buffer.read(length, offset))
                assert got == bytes(model[offset:offset + length])
        assert materialize(buffer.read()) == bytes(model)

    @given(data=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_write_accepts_any_bytes_like(self, data):
        allocator = MemoryAllocator(1024, functional=True)
        for payload in (data, bytearray(data), memoryview(data),
                        np.frombuffer(data, dtype=np.uint8)):
            buffer = allocator.allocate(len(data))
            buffer.write(payload)
            assert materialize(buffer.read()) == data
