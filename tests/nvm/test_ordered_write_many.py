"""``MemoryController.write_many`` over an ordered list of ragged rows.

The batch is cut into runs of pairwise-disjoint rows and each run is one
vectorised pass, yet the outcome must be exactly a loop of one-row
writes: same content, counters, wear, stuck and drift state, ECP entries
and health state — including *where* a segment retirement stops the
batch (the failing row lands, nothing after it does).
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nvm import MemoryController, NVMDevice
from repro.nvm.device import DriftConfig, WearOutConfig
from repro.nvm.health import SegmentRetiredError

SEGMENT = 64
N_SEGMENTS = 6


def _aged_controller(aged: bool = True) -> MemoryController:
    """Mortal + drifting media, pre-aged: stuck cells, drifted cells, and
    ECP tables filled close to their (small) capacity — about half of all
    random batches retire a segment somewhere.

    ``aged=False`` gives fresh media with a tiny endurance instead: no
    cell starts stuck or drifted, so runs are vectorised passes, and
    cells wear out during the batch, so later runs meet stuck cells."""
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=7,
        wearout=WearOutConfig(
            endurance_mean=60 if aged else 2,
            endurance_sigma=0.6,
            seed=3,
            ecp_entries=6,
        ),
        drift=DriftConfig(retention_mean=40, retention_sigma=0.5, seed=5),
    )
    controller = MemoryController(device)
    if not aged:
        return controller
    device.age(13)
    rng = np.random.default_rng(11)
    for seg in range(N_SEGMENTS):
        # Records ECP entries for stuck cells the data disagrees with.
        for _ in range(2):
            try:
                controller.write(
                    seg * SEGMENT,
                    rng.integers(0, 256, SEGMENT, dtype=np.uint8).tobytes(),
                )
            except SegmentRetiredError:
                pass
    device.advance_time(40)
    return controller


def _state(controller: MemoryController) -> dict:
    device = controller.device
    health = device.health
    return {
        "content": device._content.copy(),
        "segment_write_count": device.segment_write_count.copy(),
        "wear": device._wear_count.copy(),
        "stuck": device._stuck_packed.copy(),
        "drift": device._drift_packed.copy(),
        "last_program": device._last_program_tick.copy(),
        "ecp": [a.tolist() for a in device.ecc.state_arrays()],
        "health": health.snapshot_arrays(),
        "relocation_queue": list(controller.health_manager._pending),
        "verify_reads": controller.verify_reads,
        "corrections": controller.corrections_recorded,
    }


def _assert_same(a: MemoryController, b: MemoryController) -> None:
    sa, sb = _state(a), _state(b)
    for key in sa:
        if isinstance(sa[key], np.ndarray):
            np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)
        else:
            assert sa[key] == sb[key], key
    for field in dataclasses.fields(a.stats):
        va, vb = getattr(a.stats, field.name), getattr(b.stats, field.name)
        if isinstance(va, float):
            assert va == pytest.approx(vb, rel=1e-12), field.name
        else:
            assert va == vb, field.name


@st.composite
def _rows(draw):
    n = draw(st.integers(1, 14))
    rows = []
    for _ in range(n):
        seg = draw(st.integers(0, N_SEGMENTS - 1))
        length = draw(st.integers(1, SEGMENT))
        offset = draw(st.integers(0, SEGMENT - length))
        data = draw(st.binary(min_size=length, max_size=length))
        rows.append((seg * SEGMENT + offset, data))
    return rows


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=_rows(), aged=st.booleans())
def test_write_many_matches_one_row_loop(rows, aged):
    batched, looped = _aged_controller(aged), _aged_controller(aged)
    addrs = [addr for addr, _ in rows]
    values = [data for _, data in rows]

    batched_error = None
    try:
        got = batched.write_many(addrs, values)
    except SegmentRetiredError as exc:
        batched_error = (exc.row, exc.segment)

    expected, looped_error = [], None
    for i, (addr, data) in enumerate(rows):
        try:
            expected.append(looped.write(addr, data))
        except SegmentRetiredError as exc:
            looped_error = (i, exc.segment)
            break

    assert batched_error == looped_error
    if batched_error is None:
        assert got == expected
    _assert_same(batched, looped)


def test_retiring_row_is_the_last_to_land():
    """A run whose middle row retires its segment programs that row and
    none after it; the error names the row."""
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=7,
        wearout=WearOutConfig(endurance_mean=5, seed=3, ecp_entries=6),
    )
    device.age(10_000)  # every cell stuck: any needed flip fails verify
    controller = MemoryController(device)
    before = device._content.copy()
    writes_before = device.stats.writes
    seg0 = device.peek(0, 8)
    addrs = [0, SEGMENT, 2 * SEGMENT]
    values = [seg0.tobytes(), bytes(~device.peek(SEGMENT, 8)), b"\x00" * 8]
    with pytest.raises(SegmentRetiredError) as info:
        controller.write_many(addrs, values)
    assert info.value.row == 1
    assert info.value.segment == 1
    assert device.stats.writes == writes_before + 2
    np.testing.assert_array_equal(device._content, before)  # all stuck
    assert 1 in device.health.retired
    assert 2 not in device.health.retired


def test_overlapping_rows_land_in_order():
    controller = MemoryController(
        NVMDevice(
            capacity_bytes=4 * SEGMENT, segment_size=SEGMENT,
            initial_fill="random", seed=2,
        )
    )
    controller.write_many([0, 4, 2, 0], [b"aaaa", b"bbbb", b"cc", b"d"])
    assert controller.read(0, 8) == b"dacc" + b"bbbb"


def test_row_crossing_a_segment_is_rejected_before_any_write():
    device = NVMDevice(
        capacity_bytes=4 * SEGMENT, segment_size=SEGMENT,
        initial_fill="random", seed=2,
    )
    controller = MemoryController(device)
    with pytest.raises(ValueError, match="crosses"):
        controller.write_many([0, SEGMENT - 2], [b"ok", b"toolong"])
    assert device.stats.writes == 0


def test_concurrent_writers_on_one_device_keep_their_rows():
    """Foreground batches and a maintenance thread's refreshes share one
    device; each thread's rows must land only where it aimed them."""
    device = NVMDevice(
        capacity_bytes=8 * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=4,
        wearout=WearOutConfig(),
    )
    controller = MemoryController(device)
    rng = np.random.default_rng(5)
    payload = {
        seg: rng.integers(0, 256, SEGMENT, dtype=np.uint8).tobytes()
        for seg in range(8)
    }
    errors = []

    def foreground():
        try:
            for _ in range(300):
                controller.write_many(
                    [seg * SEGMENT for seg in range(4)],
                    [payload[seg] for seg in range(4)],
                )
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    def maintenance():
        try:
            for _ in range(300):
                for seg in range(4, 8):
                    controller.write(seg * SEGMENT, payload[seg])
                    controller.refresh(seg * SEGMENT, SEGMENT)
        except Exception as exc:
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=foreground),
            threading.Thread(target=maintenance),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    # Verify found nothing to correct: no row landed on another's cells.
    assert controller.corrections_recorded == 0
    assert not device.health.retired
    for seg, data in payload.items():
        assert controller.read(seg * SEGMENT, SEGMENT) == data, seg


class _RacyMemoDevice(NVMDevice):
    """Another writer replaces the memoised row index right after every
    read of it — the worst interleaving of two unlocked threads."""

    @property
    def _last_rows(self):
        current = self.__dict__["_memo"]
        other = ((0,), (8,))
        self.__dict__["_memo"] = (other, np.arange(8, dtype=np.int64))
        return current

    @_last_rows.setter
    def _last_rows(self, value):
        self.__dict__["_memo"] = value


def test_row_index_memo_is_read_once():
    device = _RacyMemoDevice(capacity_bytes=4 * SEGMENT, segment_size=SEGMENT)
    rows = ([SEGMENT], [8])
    device._row_index(*rows)  # a miss: memoises this row's index
    np.testing.assert_array_equal(  # a hit, raced
        device._row_index(*rows), np.arange(SEGMENT, SEGMENT + 8)
    )
