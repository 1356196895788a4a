"""Persistent object pool over the simulated device (``pmemobj`` style).

Layout of the reserved log region (the pool's first ``log_segments``
segments)::

    [byte 0]         active flag (1 = a transaction's undo log is live)
    [bytes 16..]     undo records, one per transactional write:
                     [addr: 8B][length: 4B][old data: length B]
                     [crc32: 4B][valid: 1B]

The undo log holds one transaction at a time (records restart at offset 16
on every ``TX_BEGIN``), matching PMDK's per-transaction undo logs.  A
transaction *stages* its media rows — log header, undo records, in-place
data, flag clear — and lands them through ordered
:meth:`~repro.nvm.controller.MemoryController.write_many` flushes (one
per transaction with ``defer_flush``); the rows, their order and their
bytes are exactly those of writing each one through as it is issued, so
the log format and :meth:`recover` do not depend on the batching.  Each
record is guarded twice against tearing: the ``valid`` byte is pre-zeroed
*before* the record body is written and set to 1 only after the full body
and checksum have landed, and the CRC32 covers header plus old data, so a
record torn at any byte is never replayed.  :meth:`PersistentPool.recover`
rolls back a transaction that was active when the process died; it is
idempotent, so a crash *during* recovery is itself recoverable.

After the log the pool can reserve ``meta_segments`` further segments for
application metadata (the KV store keeps its persistent catalog there —
see :mod:`repro.pmem.catalog`); the remaining *object* segments are what
:meth:`alloc` hands out.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque

from repro.nvm.controller import MemoryController
from repro.nvm.health import SegmentRetiredError
from repro.pmem.transaction import Transaction

_LOG_HEADER_BYTES = 16
_RECORD_HEADER = struct.Struct("<QI")
_RECORD_CRC = struct.Struct("<I")
#: Bytes after the old data: the CRC32 plus the valid byte.
_RECORD_TRAILER = _RECORD_CRC.size + 1


class PersistentPool:
    """Segment-granularity allocator plus crash-consistent transactions.

    Args:
        controller: the NVM front-end backing the pool.
        log_segments: segments reserved for the undo-log region.
        recover: scan the log on construction and roll back a transaction
            left active by a crash (see :meth:`recover`).
        meta_segments: segments reserved (after the log) for application
            metadata such as the KV store's persistent catalog; they are
            addressable through :meth:`read`/:meth:`write`/transactions but
            never handed out by :meth:`alloc`.
        faults: optional :class:`repro.testing.faults.FaultInjector`.  When
            set, the pool fires the ``"tx.begin"``, ``"tx.log"``,
            ``"tx.write"``, ``"tx.commit"`` and ``"recover.rollback"``
            sites; the write-capable ones (``tx.log``, ``tx.write``,
            ``recover.rollback``) support torn-write injection.
    """

    def __init__(
        self,
        controller: MemoryController,
        log_segments: int = 2,
        recover: bool = False,
        meta_segments: int = 0,
        faults=None,
    ) -> None:
        if log_segments < 1:
            raise ValueError("log_segments must be at least 1")
        if meta_segments < 0:
            raise ValueError("meta_segments must be non-negative")
        if log_segments + meta_segments >= controller.n_segments:
            raise ValueError("log_segments must leave allocatable space")
        self.controller = controller
        self.log_segments = log_segments
        self.meta_segments = meta_segments
        self.faults = faults
        self._log_capacity = log_segments * controller.segment_size
        # ``_log_head`` covers flushed records only (what a rollback may
        # replay); ``_log_tail`` is where the next staged record goes.
        self._log_head = _LOG_HEADER_BYTES
        self._log_tail = _LOG_HEADER_BYTES
        self._tx_active = False
        # Rows of the open transaction not yet on the media, in issue
        # order: (address, bytes, fault site fired just before the row).
        self._staged: list[tuple[int, bytes, tuple | None]] = []
        # (staged index of a record's valid row, log offset after it).
        self._staged_records: list[tuple[int, int]] = []
        self._free: deque[int] = deque(
            controller.segment_address(i)
            for i in range(self.object_start_segment, controller.n_segments)
        )
        # Companion set for O(1) membership/removal; the deque preserves
        # FIFO hand-out order and is cleaned lazily in :meth:`alloc`.
        self._free_set: set[int] = set(self._free)
        self._allocated: set[int] = set()
        self._retired: set[int] = set()
        self.recovered_records = 0
        if recover:
            self.recover()

    @property
    def segment_size(self) -> int:
        """Object allocation granularity."""
        return self.controller.segment_size

    @property
    def object_start_segment(self) -> int:
        """Index of the first object segment (after log + metadata)."""
        return self.log_segments + self.meta_segments

    @property
    def capacity_objects(self) -> int:
        """Total allocatable segments in the pool."""
        return self.controller.n_segments - self.object_start_segment

    @property
    def log_capacity_bytes(self) -> int:
        """Undo-record bytes one transaction may log (header excluded)."""
        return self._log_capacity - _LOG_HEADER_BYTES

    @staticmethod
    def record_overhead_bytes() -> int:
        """Log bytes one transactional write of ``n`` bytes costs, minus
        ``n`` (header + checksum + valid byte)."""
        return _RECORD_HEADER.size + _RECORD_TRAILER

    def meta_address(self, index: int) -> int:
        """Byte address of reserved metadata segment ``index``."""
        if not 0 <= index < self.meta_segments:
            raise IndexError(f"metadata segment {index} out of range")
        return (self.log_segments + index) * self.segment_size

    def object_address(self, index: int) -> int:
        """Byte address of object segment ``index`` (0-based)."""
        if not 0 <= index < self.capacity_objects:
            raise IndexError(f"object segment {index} out of range")
        return (self.object_start_segment + index) * self.segment_size

    def object_index(self, addr: int) -> int:
        """Object-segment index of address ``addr`` (inverse of
        :meth:`object_address`)."""
        self._check_object_address(addr)
        return addr // self.segment_size - self.object_start_segment

    def alloc(self) -> int:
        """Claim one object segment; returns its address.

        Raises:
            RuntimeError: when the pool is exhausted.
        """
        while self._free:
            addr = self._free.popleft()
            if addr in self._free_set:  # skip entries removed out of band
                self._free_set.discard(addr)
                self._allocated.add(addr)
                return addr
        raise RuntimeError("persistent pool is out of space")

    def free(self, addr: int) -> None:
        """Return an object segment to the pool.

        Raises:
            ValueError: when ``addr`` is not an object segment of this pool
                (log/metadata region, unaligned, or out of range).
            KeyError: on a double free (the segment is already free).
        """
        if addr not in self._allocated:
            self._check_object_address(addr)
            if addr in self._free_set:
                raise KeyError(
                    f"double free: address {addr} is already free in this pool"
                )
            raise KeyError(f"address {addr} is not allocated from this pool")
        self._allocated.discard(addr)
        self._free.append(addr)
        self._free_set.add(addr)

    def retire(self, addr: int) -> None:
        """Permanently pull an object segment out of circulation (its media
        exhausted verify-after-write's ECP capacity).  Accepts the address
        whether currently free or allocated; idempotent."""
        self._check_object_address(addr)
        self._free_set.discard(addr)
        self._allocated.discard(addr)
        self._retired.add(addr)

    def retired_addresses(self) -> set[int]:
        """Every object address retired from this pool."""
        return set(self._retired)

    def mark_allocated(self, addr: int) -> None:
        """Re-register an address as live after recovery (allocator state is
        DRAM-resident; the application re-derives it from the persistent
        catalog or its own index).  O(1) per call."""
        if addr in self._allocated:
            return
        if addr not in self._free_set:
            raise KeyError(f"address {addr} is not a pool segment")
        self._free_set.discard(addr)
        self._allocated.add(addr)

    def free_addresses(self) -> list[int]:
        """Every free object address, in hand-out order."""
        return [a for a in self._free if a in self._free_set]

    def allocated_addresses(self) -> set[int]:
        """Every currently allocated object address."""
        return set(self._allocated)

    def read(self, addr: int, length: int) -> bytes:
        """Direct read; inside a transaction it sees the rows the
        transaction has staged but not yet flushed."""
        data = self.controller.read(addr, length)
        end = addr + length
        patched = None
        for row_addr, row, _ in self._staged:
            lo, hi = max(row_addr, addr), min(row_addr + len(row), end)
            if lo < hi:
                if patched is None:
                    patched = bytearray(data)
                patched[lo - addr : hi - addr] = row[lo - row_addr : hi - row_addr]
        return data if patched is None else bytes(patched)

    def write(self, addr: int, data: bytes) -> None:
        """Direct (non-transactional, non-failure-atomic) write.  Rows an
        open transaction has staged land first, keeping media order."""
        self._flush()
        self.controller.write(addr, data)

    def transaction(self, defer_flush: bool = False) -> Transaction:
        """Begin an undo-log transaction::

            with pool.transaction() as tx:
                tx.write(addr, new_bytes)

        ``defer_flush`` lands the whole transaction as one ordered flush
        at commit (see :class:`Transaction`).
        """
        return Transaction(self, defer_flush)

    def format(self) -> None:
        """Initialise the log header on fresh media.

        A brand-new (or randomly filled) device may carry a garbage active
        flag; formatting clears it so the first :meth:`recover` does not
        replay noise.  Call once when *creating* a pool on new media, never
        when re-opening existing data.
        """
        self.controller.write(0, b"\x00")
        self._log_head = self._log_tail = _LOG_HEADER_BYTES
        self._tx_active = False

    # ---------------------------------------------------------------- crash

    def recover(self) -> int:
        """Roll back a transaction left active by a crash.

        Scans the media-resident log: if the active flag is set, every
        *intact* undo record (valid byte set and CRC matching) is replayed
        in reverse order, then the log is cleared.  Returns the number of
        records rolled back.

        Idempotent: the active flag is cleared only after every record has
        been replayed, so a crash mid-recovery (even one tearing a rollback
        write) is repaired by simply recovering again.
        """
        self.recovered_records = 0
        self._tx_active = False
        flag = self.controller.read(0, 1)[0]
        if flag != 1:
            return 0
        records = []
        offset = _LOG_HEADER_BYTES
        while (
            offset + _RECORD_HEADER.size + _RECORD_TRAILER <= self._log_capacity
        ):
            header = self._log_read(offset, _RECORD_HEADER.size)
            addr, length = _RECORD_HEADER.unpack(header)
            if length == 0 or length > self._log_capacity:
                break  # end of records (or torn header)
            record_end = offset + _RECORD_HEADER.size + length
            if record_end + _RECORD_TRAILER > self._log_capacity:
                break
            # The valid byte is written only after the full record body and
            # checksum; a record torn by a crash never has it set.
            valid = self._log_read(record_end + _RECORD_CRC.size, 1)[0]
            if valid != 1:
                break
            old = self._log_read(offset + _RECORD_HEADER.size, length)
            (crc_stored,) = _RECORD_CRC.unpack(
                self._log_read(record_end, _RECORD_CRC.size)
            )
            if crc_stored != (zlib.crc32(header + old) & 0xFFFFFFFF):
                break  # torn record masquerading behind a stale valid byte
            records.append((addr, old))
            offset = record_end + _RECORD_TRAILER
        for addr, old in reversed(records):
            self._fire(
                "recover.rollback",
                payload_len=len(old),
                payload_writer=lambda n, a=addr, o=old: (
                    self.controller.torn_program(a, o[:n])
                ),
            )
            try:
                self.controller.write(addr, old)
            except SegmentRetiredError:
                # The rollback write itself exhausted the segment: it was
                # restoring a not-yet-committed value onto dying media.
                # Retirement already bars the segment from placement; the
                # rollback stays best-effort for it.
                pass
        self._log_finish()
        self.recovered_records = len(records)
        return len(records)

    # ------------------------------------------------- log-region internals

    def _fire(self, site: str, **kwargs) -> None:
        """Hit a fault site when an injector is attached."""
        if self.faults is not None:
            self.faults.fire(site, **kwargs)

    def _log_begin(self) -> None:
        """TX_BEGIN: reset the record cursor and stage the active flag."""
        if self._tx_active:
            raise RuntimeError(
                "a transaction is already active on this pool; the undo log "
                "holds one transaction at a time"
            )
        self._fire("tx.begin")
        self._tx_active = True
        self._staged.clear()  # leftovers of a crashed transaction
        self._staged_records.clear()
        self._log_head = self._log_tail = _LOG_HEADER_BYTES
        self._log_terminate(self._log_tail)
        self._stage(0, b"\x01")

    def _log_record(self, addr: int, old: bytes) -> None:
        """Stage one undo record and the row that marks it valid."""
        body = _RECORD_HEADER.pack(addr, len(old)) + old
        total = len(body) + _RECORD_TRAILER
        if self._log_tail + total > self._log_capacity:
            raise RuntimeError(
                "undo log full: transaction touches more data than the log "
                f"region holds ({self.log_capacity_bytes} B)"
            )
        head = self._log_tail
        valid_offset = head + len(body) + _RECORD_CRC.size
        # Pre-zero the valid byte: the log region is reused across
        # transactions, so the offset may hold a stale 1 from an earlier
        # record — a torn body write must never pair with it.  The next
        # record's header sits right after the valid byte, so zeroing it
        # (which terminates a recovery scan before any stale records) rides
        # in the same write.
        tail_zero = 1
        if head + total + _RECORD_HEADER.size + _RECORD_TRAILER <= (
            self._log_capacity
        ):
            tail_zero += _RECORD_HEADER.size
        self._log_stage(valid_offset, b"\x00" * tail_zero)
        payload = body + _RECORD_CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)
        site = None
        if self.faults is not None:
            site = ("tx.log", dict(
                payload_len=len(payload),
                payload_writer=lambda n: self._log_torn(head, payload[:n]),
            ))
        self._log_stage(head, payload, site)
        # The valid byte is persisted only after the body and checksum.
        self._stage(valid_offset, b"\x01")
        self._log_tail = head + total
        self._staged_records.append((len(self._staged) - 1, self._log_tail))

    def _log_commit(self) -> None:
        """Stage the flag clear behind ``tx.commit`` and flush the whole
        transaction; the log is then logically empty."""
        self._stage(0, b"\x00", site=("tx.commit", {}))
        self._flush()
        self._log_head = self._log_tail = _LOG_HEADER_BYTES
        self._tx_active = False

    def _log_terminate(self, offset: int) -> None:
        """Zero the next record header (length 0 ends the recovery scan)."""
        if offset + _RECORD_HEADER.size + _RECORD_TRAILER <= self._log_capacity:
            self._log_stage(offset, b"\x00" * _RECORD_HEADER.size)

    def _log_rollback(self) -> None:
        """Abort path: replay this transaction's flushed records in
        reverse (staged rows never reached the media)."""
        self._staged.clear()
        self._staged_records.clear()
        records = []
        offset = _LOG_HEADER_BYTES
        while offset < self._log_head:
            header = self._log_read(offset, _RECORD_HEADER.size)
            addr, length = _RECORD_HEADER.unpack(header)
            old = self._log_read(offset + _RECORD_HEADER.size, length)
            records.append((addr, old))
            offset += _RECORD_HEADER.size + length + _RECORD_TRAILER
        for addr, old in reversed(records):
            try:
                self.controller.write(addr, old)
            except SegmentRetiredError:
                pass  # best-effort restore onto just-retired media

    def _log_finish(self) -> None:
        """Clear the active flag; the log is logically empty."""
        self.controller.write(0, b"\x00")
        self._log_head = self._log_tail = _LOG_HEADER_BYTES
        self._tx_active = False

    def _stage(self, addr: int, data: bytes, site: tuple | None = None) -> None:
        """Queue one media row of the open transaction; ``site`` is a
        ``(name, kwargs)`` fault site that fires right before it lands."""
        self._staged.append((addr, data, site))

    def _flush(self) -> None:
        """Land every staged row, in order, as one ordered batch.

        Without an injector that is one ``write_many`` call.  With one,
        rows land one at a time behind their fault sites, so every crash
        point sits exactly where writing each row through would put it.
        A :class:`SegmentRetiredError` lands the rows before the failing
        one (and the failing row itself) and drops the rest; ``_log_head``
        then covers exactly the records whose valid row landed — what a
        rollback may replay.
        """
        staged, records = self._staged, self._staged_records
        if not staged:
            return
        self._staged, self._staged_records = [], []
        try:
            if self.faults is None:
                self.controller.write_many(
                    [addr for addr, _, _ in staged],
                    [data for _, data, _ in staged],
                )
            else:
                for row, (addr, data, site) in enumerate(staged):
                    if site is not None:
                        self._fire(site[0], **site[1])
                    try:
                        self.controller.write(addr, data)
                    except SegmentRetiredError as exc:
                        exc.row = row
                        raise
        except SegmentRetiredError as exc:
            for valid_row, end in records:
                if valid_row < exc.row:
                    self._log_head = end
            raise
        if records:
            self._log_head = records[-1][1]

    def _log_stage(
        self, offset: int, data: bytes, site: tuple | None = None
    ) -> None:
        """Stage a log-region write as segment-sized rows (``site`` fires
        before the first)."""
        for addr, chunk in self._log_chunks(offset, data):
            self._stage(addr, chunk, site)
            site = None

    def _log_torn(self, offset: int, data: bytes) -> None:
        """Crash-interrupted log write (torn-write payload writer): the
        segment-sized rows of ``data`` land without verify."""
        for addr, chunk in self._log_chunks(offset, data):
            self.controller.torn_program(addr, chunk)

    def _log_chunks(self, offset: int, data: bytes):
        """Split a log-region write at segment boundaries."""
        seg = self.controller.segment_size
        cursor = 0
        while cursor < len(data):
            room = seg - ((offset + cursor) % seg)
            chunk = data[cursor : cursor + room]
            yield offset + cursor, chunk
            cursor += len(chunk)

    def _log_read(self, offset: int, length: int) -> bytes:
        """Segment-chunked read inside the log region."""
        seg = self.controller.segment_size
        out = b""
        while len(out) < length:
            room = seg - ((offset + len(out)) % seg)
            take = min(room, length - len(out))
            out += self.controller.read(offset + len(out), take)
        return out

    def _check_object_address(self, addr: int) -> None:
        """Reject addresses that are not object segments of this pool."""
        start = self.object_start_segment * self.segment_size
        end = self.controller.n_segments * self.segment_size
        if addr % self.segment_size:
            raise ValueError(
                f"address {addr} is not segment-aligned "
                f"(segment size {self.segment_size})"
            )
        if not start <= addr < end:
            region = "log" if addr < self.log_segments * self.segment_size \
                else "metadata" if addr < start else "out-of-range"
            raise ValueError(
                f"address {addr} is in the pool's {region} region, not an "
                f"object segment (objects start at {start})"
            )
