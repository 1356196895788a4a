"""The engine's one place-and-write loop on verified (mortal) media.

``E2NVM.write_many`` claims a batch once and lands it with one controller
call; a row whose segment retires mid-batch is re-placed alone, and an
error that escapes un-claims every address the batch still holds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KVStore, WriteBatcher
from repro.core.config import fast_test_config
from repro.core.e2nvm import E2NVM
from repro.nvm import MemoryController, NVMDevice, WearOutConfig
from repro.testing import FaultInjector

SEGMENT = 64
N_SEGMENTS = 48


def _engine(wearout: WearOutConfig) -> E2NVM:
    device = NVMDevice(
        capacity_bytes=N_SEGMENTS * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=3,
        wearout=wearout,
    )
    engine = E2NVM(MemoryController(device), fast_test_config(n_clusters=3))
    engine.train()
    return engine


def _kill_byte(device: NVMDevice, addr: int, value: int) -> None:
    """Exhaust one byte's cells (endurance 2), leaving it stuck at
    ``value``."""
    device.program(addr, bytes([value ^ 0xFF]))
    device.program(addr, bytes([value]))
    assert device.stuck_mask(addr, 1)[0] == 0xFF


def test_failed_batch_leaks_no_claimed_segment():
    """A device error part-way through a batch un-claims every address
    the batch held — including those of values that already landed."""
    engine = _engine(WearOutConfig())
    assert engine.controller.verify_writes
    faults = FaultInjector()
    engine.faults = faults
    store = KVStore(engine)
    store.put(b"k0", b"v0" * 8)

    faults.arm("device.write", error=OSError("media"), after=1, times=1)
    with pytest.raises(OSError):
        store.put_many([(b"a", b"1" * 10), (b"b", b"2" * 10), (b"c", b"3" * 10)])
    assert len(store) == 1
    assert engine.allocated_count == 1
    assert store.get(b"k0") == b"v0" * 8

    # The batcher promises the same: a failed put_many changes nothing.
    batcher = WriteBatcher(engine)
    faults.arm("device.write", error=OSError("media"), after=1, times=1)
    with pytest.raises(OSError):
        batcher.put_many([bytes([i + 1]) * 40 for i in range(6)])
    assert engine.allocated_count == 1
    assert batcher.live_batches() == 0


def test_row_retiring_mid_batch_is_replaced_alone():
    engine = _engine(
        WearOutConfig(endurance_mean=2, endurance_sigma=0.0, ecp_entries=4)
    )
    device = engine.controller.device
    values = [bytes([0x11 * (i + 1)]) * SEGMENT for i in range(4)]
    claims: list[list[int]] = []
    old_content: dict[int, np.ndarray] = {}
    place_many = engine.place_many

    def place_and_doom_row_1(batch):
        addrs = place_many(batch)
        claims.append(list(addrs))
        for addr in addrs:
            old_content[addr] = device.peek(addr, SEGMENT)
        if len(claims) == 1:
            # Row 1's segment gets a byte stuck at the opposite of what
            # row 1 writes there: 8 failed bits > 4 ECP entries.
            _kill_byte(device, addrs[1], values[1][0] ^ 0xFF)
        return addrs

    engine.place_many = place_and_doom_row_1
    writes_before = device.segment_write_count.copy()

    placed = engine.write_many(values)

    first = claims[0]
    doomed = first[1] // SEGMENT
    assert len(claims) == 2 and len(claims[1]) == 1  # only row 1 re-placed
    assert [addr for addr, _ in placed] == [
        first[0], claims[1][0], first[2], first[3]
    ]
    assert claims[1][0] != first[1]
    assert doomed in device.health.retired
    assert first[1] in engine.dap.quarantined()
    # Every row landed exactly once (row 0 before the retirement); the
    # retired segment took the two killing pulses and the failed write.
    writes = device.segment_write_count - writes_before
    assert [writes[addr // SEGMENT] for addr, _ in placed] == [1, 1, 1, 1]
    assert writes[doomed] == 3
    assert engine.failed_writes == 1
    assert engine.allocated_count == len(placed)
    assert engine._allocated == {addr for addr, _ in placed}
    for (addr, result), value in zip(placed, values):
        assert engine.controller.read(addr, SEGMENT) == value
        # Each result belongs to its own row's landing: DCW flipped
        # exactly the bits that differed from that segment's old content.
        new = np.frombuffer(value, dtype=np.uint8)
        flipped = int(np.unpackbits(old_content[addr] ^ new).sum())
        assert result.bits_flipped == flipped
