"""A transaction is one ordered flush: rows, order and rollback.

With ``defer_flush`` a transaction stages every media row and lands them
at commit through a single ``MemoryController.write_many`` call.  The rows
must be exactly those a write-through transaction issues one by one, and
a segment retirement in the middle of the flush must leave the media and
the undo-log head exactly where the write-through path leaves them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KVStore
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice
from repro.nvm.device import WearOutConfig
from repro.nvm.health import SegmentRetiredError
from repro.pmem import PersistentCatalog, PersistentPool

SEGMENT = 64
LOG_SEGMENTS = 4
KEY_CAPACITY = 16
# Undo-record layout (see repro.pmem.pool): a 12-byte header
# [addr u64][len u32], the old data, a 4-byte CRC and a valid byte.
HEADER, TRAILER = 12, 5


def _spy(controller):
    """Record every write_many call's (address, length) rows."""
    calls = []
    inner = controller.write_many

    def write_many(addrs, values):
        calls.append([(int(a), len(v)) for a, v in zip(addrs, values)])
        return inner(addrs, values)

    controller.write_many = write_many
    return calls


def _log_rows(offset, length):
    """A log write at ``offset``, split at segment boundaries."""
    rows = []
    while length:
        take = min(length, SEGMENT - offset % SEGMENT)
        rows.append((offset, take))
        offset, length = offset + take, length - take
    return rows


def _expected_tx_rows(writes):
    """The rows a write-through transaction issues for ``writes`` — a
    list of (address, length) in-place writes — in issue order."""
    rows = [(16, HEADER), (0, 1)]  # TX_BEGIN: terminate header, flag
    head = 16
    for addr, length in writes:
        total = HEADER + length + TRAILER
        valid = head + HEADER + length + 4
        rows.append((valid, 1 + HEADER))  # pre-zero valid + next header
        rows += _log_rows(head, HEADER + length + 4)  # body + CRC
        rows.append((valid, 1))  # valid byte
        rows.append((addr, length))  # the in-place write
        head += total
    rows.append((0, 1))  # commit: flag clear
    return rows


def _durable_store(wearout=None):
    n_segments = 96
    meta = PersistentCatalog.meta_segments_for(
        n_segments, LOG_SEGMENTS, SEGMENT, KEY_CAPACITY
    )
    device = NVMDevice(
        capacity_bytes=n_segments * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=3,
        wearout=wearout,
    )
    pool = PersistentPool(
        MemoryController(device),
        log_segments=LOG_SEGMENTS,
        meta_segments=meta,
    )
    store = KVStore.create(
        pool, config=fast_test_config(n_clusters=3), key_capacity=KEY_CAPACITY
    )
    return store


def test_update_put_flushes_the_write_through_rows_in_one_call():
    store = _durable_store(
        WearOutConfig(immortal_prefix_segments=LOG_SEGMENTS + 2)
    )
    key = b"k" * KEY_CAPACITY
    old_addr = store.put(key, bytes(range(64)))
    calls = _spy(store.pool.controller)
    programs = []
    inner = store.pool.controller.device.program_many

    def program_many(addrs, *args, **kwargs):
        programs.append(len(addrs))
        return inner(addrs, *args, **kwargs)

    store.pool.controller.device.program_many = program_many
    new_addr = store.put(key, bytes(range(1, 65)))

    catalog, pool = store.catalog, store.pool
    record = catalog.record_size
    expected = _expected_tx_rows([
        (new_addr, 64),  # the value
        (catalog.record_address(pool.object_index(new_addr)), record),
        (catalog.record_address(pool.object_index(old_addr)), 1),  # flag
    ])
    assert len(expected) == 17
    assert calls == [expected]
    # Cut into runs of pairwise-disjoint rows: one program pass per run.
    assert programs == [3, 7, 4, 3]
    assert store.get(key) == bytes(range(1, 65))


def test_write_through_transaction_issues_the_same_rows():
    store = _durable_store()
    pool = store.pool
    addr = pool.object_address(0)
    calls = _spy(pool.controller)
    with pool.transaction() as tx:
        tx.write(addr, b"x" * 40)
        tx.write(addr + 40, b"y" * 8)
    flat = [row for call in calls for row in call]
    assert flat == _expected_tx_rows([(addr, 40), (addr + 40, 8)])
    assert len(calls) == 4  # begin, each write, commit


def test_reads_inside_a_deferred_transaction_see_staged_rows():
    store = _durable_store()
    pool = store.pool
    addr = pool.object_address(0)
    pool.write(addr, b"a" * 64)
    with pool.transaction(defer_flush=True) as tx:
        tx.write(addr, b"b" * 64)
        assert pool.read(addr, 4) == b"bbbb"
        tx.write(addr + 2, b"cc")  # logs the staged "bb" as old data
    assert pool.read(addr, 4) == b"bbcc"


def _retiring_pool(defer_flush):
    """A pool whose object segments are entirely stuck: any in-place write
    that must flip more bits than ECP can absorb retires its segment."""
    device = NVMDevice(
        capacity_bytes=16 * SEGMENT,
        segment_size=SEGMENT,
        initial_fill="random",
        seed=9,
        wearout=WearOutConfig(
            endurance_mean=5, seed=4, ecp_entries=2,
            immortal_prefix_segments=LOG_SEGMENTS + 1,
        ),
    )
    device.age(1_000)
    pool = PersistentPool(
        MemoryController(device), log_segments=LOG_SEGMENTS, meta_segments=1
    )
    pool.format()
    heads = []
    rollback = pool._log_rollback

    def spy_rollback():
        heads.append(pool._log_head)
        rollback()

    pool._log_rollback = spy_rollback
    meta = pool.meta_address(0)
    target = pool.object_address(2)
    with pytest.raises(SegmentRetiredError):
        with pool.transaction(defer_flush=defer_flush) as tx:
            tx.write(meta, b"A" * 8)  # immortal: lands
            tx.write(target, bytes(~device.peek(target, 16)))  # retires
            tx.write(meta + 8, b"B" * 8)  # never lands
    return device, pool, heads


def test_mid_flush_retire_rolls_back_like_write_through():
    seq_device, seq_pool, seq_heads = _retiring_pool(defer_flush=False)
    dev, pool, heads = _retiring_pool(defer_flush=True)
    # The retiring record's valid row landed before its data row, so the
    # rollback replays the first two records in both paths.
    assert heads == seq_heads
    assert heads[0] == 16 + 2 * HEADER + 8 + 16 + 2 * TRAILER
    np.testing.assert_array_equal(
        dev.peek(0, dev.capacity_bytes),
        seq_device.peek(0, seq_device.capacity_bytes),
    )
    for got, want in zip(dev.ecc.state_arrays(), seq_device.ecc.state_arrays()):
        np.testing.assert_array_equal(got, want)
    assert dev.health.retired == seq_device.health.retired == {2 + LOG_SEGMENTS + 1}
    assert pool.read(pool.meta_address(0), 16) == seq_pool.read(
        seq_pool.meta_address(0), 16
    )
    assert pool._log_head == seq_pool._log_head == 16
    assert not pool._tx_active
