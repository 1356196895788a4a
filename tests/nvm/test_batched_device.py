"""Batched device/controller operations vs their sequential equivalents.

``read_rows``/``program_many``/``write_many`` must account exactly like a
loop of their scalar counterparts: same WriteResults, same stats counters,
same media content, same wear counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.nvm import MemoryController, NVMDevice
from repro.nvm.wear_leveling import SegmentSwapWearLeveling

SEGMENT_SIZE = 64
N_SEGMENTS = 24


def _device(**kwargs) -> NVMDevice:
    return NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT_SIZE,
        segment_size=SEGMENT_SIZE,
        initial_fill="random",
        seed=5,
        **kwargs,
    )


def _assert_stats_equal(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float):
            assert va == pytest.approx(vb, rel=1e-12), field.name
        else:
            assert va == vb, field.name


class TestReadRows:
    def test_matches_read_array_loop(self):
        batched, sequential = _device(), _device()
        addrs = [0, 192, 64, 512]
        lengths = [SEGMENT_SIZE, 8, SEGMENT_SIZE, 1]
        rows = batched.read_rows(addrs, lengths)
        expected = np.concatenate(
            [sequential.read_array(a, n) for a, n in zip(addrs, lengths)]
        )
        np.testing.assert_array_equal(rows, expected)
        _assert_stats_equal(batched.stats, sequential.stats)

    def test_out_of_range_raises(self):
        device = _device()
        with pytest.raises(IndexError):
            device.read_rows([0, device.capacity_bytes], [8, 8])


class TestProgramMany:
    def _batch(self, rng, n_rows):
        addrs = rng.choice(N_SEGMENTS, size=n_rows, replace=False) * SEGMENT_SIZE
        new = rng.integers(0, 256, size=(n_rows, SEGMENT_SIZE), dtype=np.uint8)
        masks = rng.integers(0, 256, size=(n_rows, SEGMENT_SIZE), dtype=np.uint8)
        aux = rng.integers(0, 5, size=n_rows)
        return addrs.astype(np.int64), new, masks, aux

    def test_matches_sequential_program(self):
        batched = _device(track_bit_wear=True)
        sequential = _device(track_bit_wear=True)
        rng = np.random.default_rng(9)
        addrs, new, masks, aux = self._batch(rng, 6)

        got = batched.program_many(addrs, new, masks, aux)
        expected = [
            sequential.program(int(a), new[i], masks[i], int(aux[i]))
            for i, a in enumerate(addrs)
        ]
        assert got == expected
        _assert_stats_equal(batched.stats, sequential.stats)
        np.testing.assert_array_equal(
            batched.peek(0, batched.capacity_bytes),
            sequential.peek(0, sequential.capacity_bytes),
        )
        np.testing.assert_array_equal(
            batched.segment_write_count, sequential.segment_write_count
        )
        np.testing.assert_array_equal(batched.bit_wear, sequential.bit_wear)

    def test_default_mask_programs_everything(self):
        batched, sequential = _device(), _device()
        rng = np.random.default_rng(11)
        addrs = np.array([0, SEGMENT_SIZE * 3], dtype=np.int64)
        new = rng.integers(0, 256, size=(2, SEGMENT_SIZE), dtype=np.uint8)
        got = batched.program_many(addrs, new)
        expected = [
            sequential.program(int(a), new[i]) for i, a in enumerate(addrs)
        ]
        assert got == expected

    def test_unaligned_rows_match_sequential(self):
        # Rows not aligned to cache lines exercise the per-row
        # dirty-line fallback.
        batched, sequential = _device(), _device()
        rng = np.random.default_rng(13)
        addrs = np.array([3, 200, 530], dtype=np.int64)
        new = rng.integers(0, 256, size=(3, 17), dtype=np.uint8)
        masks = rng.integers(0, 256, size=(3, 17), dtype=np.uint8)
        got = batched.program_many(addrs, new, masks)
        expected = [
            sequential.program(int(a), new[i], masks[i])
            for i, a in enumerate(addrs)
        ]
        assert got == expected
        _assert_stats_equal(batched.stats, sequential.stats)

    def test_overlapping_rows_raise(self):
        device = _device()
        new = np.zeros((2, SEGMENT_SIZE), dtype=np.uint8)
        with pytest.raises(ValueError, match="must not overlap"):
            device.program_many([0, SEGMENT_SIZE // 2], new)

    def test_empty_batch(self):
        device = _device()
        assert device.program_many(
            np.empty(0, dtype=np.int64),
            np.empty((0, SEGMENT_SIZE), dtype=np.uint8),
        ) == []


class TestControllerWriteMany:
    def test_matches_sequential_write(self):
        batched = MemoryController(_device())
        sequential = MemoryController(_device())
        rng = np.random.default_rng(17)
        addrs = [i * SEGMENT_SIZE for i in (0, 4, 9, 2)]
        values = [
            rng.integers(0, 256, size=SEGMENT_SIZE, dtype=np.uint8).tobytes()
            for _ in addrs
        ]
        got = batched.write_many(addrs, values)
        expected = [
            sequential.write(a, v) for a, v in zip(addrs, values)
        ]
        assert got == expected
        _assert_stats_equal(batched.stats, sequential.stats)
        for addr in addrs:
            assert batched.read(addr, SEGMENT_SIZE) == sequential.read(
                addr, SEGMENT_SIZE
            )

    def test_duplicate_segment_falls_back_to_sequential(self):
        # The same segment twice in one batch is order-dependent (the second
        # write's old content is the first write's output) and must take the
        # scalar path.
        batched = MemoryController(_device())
        sequential = MemoryController(_device())
        addrs = [0, 0]
        values = [b"a" * SEGMENT_SIZE, b"b" * SEGMENT_SIZE]
        got = batched.write_many(addrs, values)
        expected = [sequential.write(a, v) for a, v in zip(addrs, values)]
        assert got == expected
        assert batched.read(0, SEGMENT_SIZE) == b"b" * SEGMENT_SIZE

    def test_wear_leveling_falls_back_to_sequential(self):
        # An active remapper may remap mid-batch; write_many must produce
        # exactly what the sequential loop produces.
        make = lambda: MemoryController(
            _device(), wear_leveling=SegmentSwapWearLeveling(period=2)
        )
        batched, sequential = make(), make()
        rng = np.random.default_rng(19)
        addrs = [i * SEGMENT_SIZE for i in (1, 3, 5, 7)]
        values = [
            rng.integers(0, 256, size=SEGMENT_SIZE, dtype=np.uint8).tobytes()
            for _ in addrs
        ]
        got = batched.write_many(addrs, values)
        expected = [sequential.write(a, v) for a, v in zip(addrs, values)]
        assert got == expected
        for addr in addrs:
            assert batched.read(addr, SEGMENT_SIZE) == sequential.read(
                addr, SEGMENT_SIZE
            )

    def test_length_mismatch_raises(self):
        controller = MemoryController(_device())
        with pytest.raises(ValueError, match="must match"):
            controller.write_many([0], [b"a", b"b"])

    def test_empty(self):
        controller = MemoryController(_device())
        assert controller.write_many([], []) == []
