"""Memory controller: write scheme + wear leveling over the raw device.

The controller is the boundary the paper draws in Figure 3 between software
(E2-NVM, the data index) and hardware (the NVM device with its proprietary
wear leveling).  Every access flows through:

1. logical→physical segment remapping (wear leveling);
2. the configured write scheme (DCW by default — real Optane controllers
   perform data-comparison writes at cache-line granularity);
3. the raw media (:class:`repro.nvm.NVMDevice`).

Accesses must stay within one segment, which matches how the storage layer
above allocates: one value per fixed-size segment.

When the device models wear-out (see
:class:`~repro.nvm.device.WearOutConfig`), the controller additionally runs
**verify-after-write**: every programmed range is read back (the verify
read is accounted in energy/latency stats like any other read), corrected
through the device's ECP table, and compared against the intended content.
Mismatching bits — stuck cells the program pulse silently failed on — are
recorded as ECP correction entries; a write needing more entries than the
segment has left retires the segment through the health manager and raises
:class:`~repro.nvm.health.SegmentRetiredError` for the placement layer to
quarantine and retry.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.baselines.base import WriteScheme
from repro.baselines.dcw import DCW
from repro.nvm.device import NVMDevice, WriteResult
from repro.nvm.health import HealthManager, SegmentRetiredError
from repro.nvm.wear_leveling import NoWearLeveling
from repro.util.bits import popcount_array


class MemoryController:
    """Front-end for all NVM accesses.

    Args:
        device: the raw simulated media.
        scheme: controller write scheme; defaults to :class:`DCW`.
        wear_leveling: segment remapping policy; defaults to none.
        verify_writes: read back and ECP-verify every write.  ``None``
            (default) enables it exactly when the device has a wear-out
            model; pass ``False`` to run a wear-out device *unprotected*
            (the corrupt-read baseline).  Verification composes only with
            the identity wear-leveling policy: an active remapper would
            move segments out from under their ECP entries.
    """

    def __init__(
        self,
        device: NVMDevice,
        scheme: WriteScheme | None = None,
        wear_leveling=None,
        verify_writes: bool | None = None,
    ) -> None:
        self.device = device
        self.scheme = scheme if scheme is not None else DCW()
        self.wear_leveling = wear_leveling or NoWearLeveling()
        self.wear_leveling.attach(device)
        if verify_writes is None:
            verify_writes = device.wearout is not None
        if verify_writes and device.ecc is None:
            raise ValueError(
                "verify_writes needs a device with a wearout model"
            )
        if verify_writes and not isinstance(
            self.wear_leveling, NoWearLeveling
        ):
            raise ValueError(
                "verify_writes cannot be combined with active wear "
                "leveling: remapping would detach segments from their "
                "ECP entries"
            )
        self.verify_writes = verify_writes
        self.ecc = device.ecc if verify_writes else None
        self.health_manager: HealthManager | None = (
            HealthManager(self) if verify_writes else None
        )
        self.verify_reads = 0
        self.corrections_recorded = 0

    @property
    def segment_size(self) -> int:
        """Placement granularity, forwarded from the device."""
        return self.device.segment_size

    @property
    def n_segments(self) -> int:
        """Logical segment count (wear leveling may reserve spares)."""
        if hasattr(self.wear_leveling, "logical_segments"):
            return self.wear_leveling.logical_segments
        return self.device.n_segments

    @property
    def stats(self):
        """The device's cumulative activity counters."""
        return self.device.stats

    def write(self, logical_addr: int, data: bytes | np.ndarray) -> WriteResult:
        """Write ``data`` at ``logical_addr`` through the scheme (a one-row
        :meth:`write_many`).

        Raises:
            SegmentRetiredError: verification needed more correction
                entries than the segment has left; the media write is
                void (stuck cells never change) and the caller must place
                the data elsewhere.
        """
        return self.write_many([logical_addr], [data])[0]

    def write_many(self, logical_addrs, values) -> list[WriteResult]:
        """Write an ordered list of rows — exactly a loop of one-row writes.

        Rows are ragged (any length within one segment) and may overlap.
        The list is cut into maximal *runs* of pairwise-disjoint rows; each
        run is one vectorised pass: read the old content, ECP-correct it,
        plan the scheme's masks, :meth:`NVMDevice.program_many`, then one
        verify read-back and compare.  Disjoint rows cannot see each
        other's writes, so a run is order-free except for what verify
        decides — and verify can fail only on cells that were stuck or
        drifted before the write.

        Three rules keep runs exact where state can change between rows;
        each writes the run one row at a time, which *is* the loop: under
        an active wear-leveling remapper (each write may remap segments),
        with a fault injector on the device (each row's verify must land
        before the next row's crash point), and, under verification, when
        the run touches a stuck or drifted cell (a row may then retire its
        segment, and no later row may land).  A retiring row raises
        :class:`SegmentRetiredError` carrying its batch index on ``.row``
        and the results of the rows before it on ``.results`` (only a
        one-row span can retire, so those are exactly the rows that
        landed).

        Raises:
            ValueError: a row crosses a segment boundary (checked for every
                row before anything is written).
            IndexError: a row's segment is out of range.
        """
        rows = [self._as_u8(v) for v in values]
        addrs = [int(a) for a in logical_addrs]
        if len(rows) != len(addrs):
            raise ValueError("logical_addrs length must match value count")
        n_segments = self.n_segments
        for addr, row in zip(addrs, rows):
            self._check_access(addr, row.size, n_segments)
        results: list[WriteResult] = []
        for lo, hi in self._runs(addrs, rows):
            if hi - lo > 1 and self._row_by_row(addrs[lo:hi], rows[lo:hi]):
                spans = [(i, i + 1) for i in range(lo, hi)]
            else:
                spans = [(lo, hi)]
            for start, end in spans:
                try:
                    results.extend(
                        self._write_run(addrs[start:end], rows[start:end])
                    )
                except SegmentRetiredError as exc:
                    exc.row += start  # run-relative -> batch index
                    exc.results = results
                    raise
        return results

    def _runs(self, addrs: list[int], rows: list[np.ndarray]):
        """Yield ``(start, end)`` of each maximal run of pairwise-disjoint
        rows."""
        start = 0
        spans: dict[int, list[tuple[int, int]]] = {}
        size = self.device.segment_size
        for i, addr in enumerate(addrs):
            end = addr + rows[i].size
            seg_spans = spans.get(addr // size)
            if seg_spans is not None and any(
                lo < end and addr < hi for lo, hi in seg_spans
            ):
                yield start, i
                start = i
                spans = {}
                seg_spans = None
            if seg_spans is None:
                spans[addr // size] = [(addr, end)]
            else:
                seg_spans.append((addr, end))
        if addrs:
            yield start, len(addrs)

    def _row_by_row(self, addrs: list[int], rows: list[np.ndarray]) -> bool:
        """Whether a run must be written one row at a time (the rules in
        :meth:`write_many`).  Asked as the run starts: earlier runs may
        have worn cells out.  Verification implies identity mapping, so
        logical addresses are physical ones."""
        if self.device.faults is not None or not isinstance(
            self.wear_leveling, NoWearLeveling
        ):
            return True
        return self.verify_writes and self.device.has_faulty_cells(
            addrs, [row.size for row in rows]
        )

    def _write_run(
        self, addrs: list[int], rows: list[np.ndarray]
    ) -> list[WriteResult]:
        """One vectorised pass over pairwise-disjoint rows.  Per-row
        geometry stays in Python lists; only per-byte work is numpy."""
        size = self.device.segment_size
        lengths = [row.size for row in rows]
        bounds = list(accumulate(lengths, initial=0))
        data = rows[0] if len(rows) == 1 else np.concatenate(rows)
        to_physical = self.wear_leveling.to_physical
        phys = [to_physical(a // size) * size + a % size for a in addrs]
        segments = [p // size for p in phys]
        offsets = [p % size for p in phys]
        old = self.device.read_rows(phys, lengths)
        if self.ecc is not None:
            self.ecc.correct_rows(segments, offsets, bounds, old)
        stored, masks, aux = self.scheme.prepare_many(addrs, old, data, bounds)
        expected = None
        if self.verify_writes:
            expected = (old & ~masks) | (stored & masks)
        results = self.device.program_many(
            phys, stored, masks, aux, lengths=lengths
        )
        if expected is not None:
            self._verify(phys, lengths, bounds, segments, offsets, expected)
        for addr in addrs:
            self.wear_leveling.after_write(self.device, addr // size)
        return results

    def _verify(self, phys, lengths, bounds, segments, offsets, expected) -> None:
        """Read back just-programmed rows, patch them through the ECP table
        and compare against the intended content, row by row in order:
        record fresh correction entries for any cell the program pulse
        failed on, retire a segment whose entries run out, and queue a
        segment at capacity for evacuation.

        Already-retired segments are exempt: undo-log rollback restores
        old data onto them best-effort (their surviving cells still hold
        it) and must not cascade into further retirement errors.
        """
        retired = self.device.health.retired
        checked = [i for i, seg in enumerate(segments) if seg not in retired]
        if len(checked) < len(segments):
            if not checked:
                return
            expected = np.concatenate(
                [expected[bounds[i] : bounds[i + 1]] for i in checked]
            )
            phys = [phys[i] for i in checked]
            lengths = [lengths[i] for i in checked]
            segments = [segments[i] for i in checked]
            offsets = [offsets[i] for i in checked]
            bounds = list(accumulate(lengths, initial=0))
        readback = self.device.read_rows(phys, lengths)
        self.verify_reads += len(checked)
        self.ecc.correct_rows(segments, offsets, bounds, readback)
        diff = readback ^ expected
        any_diff = diff.any()
        for j, seg in enumerate(segments):
            if any_diff:
                row_diff = diff[bounds[j] : bounds[j + 1]]
                if row_diff.any():
                    positions = np.flatnonzero(np.unpackbits(row_diff))
                    values = np.unpackbits(
                        expected[bounds[j] : bounds[j + 1]]
                    )[positions]
                    if not self.ecc.record(
                        seg, offsets[j] * 8 + positions, values
                    ):
                        self.health_manager.retire(seg)
                        raise SegmentRetiredError(seg, row=checked[j])
                    self.corrections_recorded += int(positions.size)
            if self.ecc.at_capacity(seg):
                self.health_manager.mark_retiring(seg)

    def torn_program(self, logical_addr: int, data: bytes | np.ndarray) -> None:
        """Program ``data`` as a crash-interrupted write.

        The media pulses land (stuck cells silently keep their value), but
        nothing that needs the controller to stay alive afterwards runs: no
        verify read-back, no ECP recording, no retirement, no wear-leveling
        bookkeeping.  Torn-write fault injection uses this as its payload
        writer — routing a tear through :meth:`write` would let
        verify-after-write retire a segment *during* the simulated crash,
        swallowing the crash error and making the replay diverge.
        """
        data = self._as_u8(data)
        phys_addr, _ = self._map(logical_addr, data.size)
        old_stored = self.device.read_array(phys_addr, data.size)
        old_stored = self._corrected(phys_addr, old_stored)
        plan = self.scheme.prepare(logical_addr, old_stored, data)
        self.device.program(
            phys_addr, plan.stored, plan.program_mask, plan.aux_bits
        )

    def read(self, logical_addr: int, length: int) -> bytes:
        """Read ``length`` logical bytes from ``logical_addr`` (patched
        through the ECP table when verification is enabled).

        ECP patching is *transient*: the stuck cells it papers over are
        physically unwritable, so there is nothing to persist back.  Drift
        damage, by contrast, IS repairable — :meth:`refresh` (used by the
        scrubber and the KV store's read-repair path) rewrites a range so
        corrections stick on the media instead of being re-paid per read.
        """
        phys_addr, _ = self._map(logical_addr, length)
        stored = self.device.read_array(phys_addr, length)
        stored = self._corrected(phys_addr, stored)
        return self.scheme.decode(logical_addr, stored).tobytes()

    def refresh(self, logical_addr: int, length: int) -> int:
        """Persistently heal a range: margin-read the true stored content
        past any resistance drift and rewrite it through the normal write
        path (scheme + verify + accounting — refresh is a real write and
        costs real energy/wear).

        Drifted cells sense flipped, so ``true = sensed XOR drift_mask``;
        ECP-patched stuck cells never drift, so the two corrections
        compose.  The rewrite force-pulses every drifted cell in range
        (see :meth:`NVMDevice.program`), clearing its drift and restarting
        its retention timer.  Returns the number of drifted cells healed.

        Raises:
            SegmentRetiredError: the verify path retired the segment
                mid-refresh; the caller must relocate the data instead.
        """
        phys_addr, _ = self._map(logical_addr, length)
        dmask = self.device.drift_mask(phys_addr, length)
        sensed = self.device.read_array(phys_addr, length)
        stored = np.bitwise_xor(sensed, dmask)
        stored = self._corrected(phys_addr, stored)
        logical = np.asarray(
            self.scheme.decode(logical_addr, stored), dtype=np.uint8
        )
        self.write(logical_addr, logical)
        return popcount_array(dmask)

    def drift_mask(self, logical_addr: int, length: int) -> np.ndarray:
        """Packed drifted-bit flags for a logical range (the device's
        margin read, remapped through wear leveling)."""
        phys_addr, _ = self._map(logical_addr, length)
        return self.device.drift_mask(phys_addr, length)

    def peek(self, logical_addr: int, length: int) -> np.ndarray:
        """Unaccounted decoded read (tooling/tests/model training snapshots)."""
        phys_addr, _ = self._map(logical_addr, length)
        stored = self.device.peek(phys_addr, length)
        stored = self._corrected(phys_addr, stored)
        return np.asarray(self.scheme.decode(logical_addr, stored), dtype=np.uint8)

    def _corrected(self, phys_addr: int, stored: np.ndarray) -> np.ndarray:
        if self.ecc is None:
            return stored
        size = self.device.segment_size
        return self.ecc.correct(
            phys_addr // size, stored, phys_addr % size
        )

    def segment_address(self, index: int) -> int:
        """Logical byte address of logical segment ``index``."""
        if not 0 <= index < self.n_segments:
            raise IndexError(f"logical segment {index} out of range")
        return index * self.device.segment_size

    def _map(self, logical_addr: int, length: int) -> tuple[int, int]:
        self._check_access(logical_addr, length, self.n_segments)
        size = self.device.segment_size
        segment = logical_addr // size
        phys_segment = self.wear_leveling.to_physical(segment)
        return phys_segment * size + logical_addr % size, segment

    def _check_access(
        self, logical_addr: int, length: int, n_segments: int
    ) -> None:
        size = self.device.segment_size
        segment = logical_addr // size
        offset = logical_addr % size
        if offset + length > size:
            raise ValueError(
                f"access of {length} bytes at offset {offset} crosses the "
                f"{size}-byte segment boundary"
            )
        if not 0 <= segment < n_segments:
            raise IndexError(f"logical segment {segment} out of range")

    @staticmethod
    def _as_u8(data: bytes | np.ndarray) -> np.ndarray:
        if isinstance(data, (bytes, bytearray, memoryview)):
            return np.frombuffer(bytes(data), dtype=np.uint8)
        arr = np.asarray(data)
        if arr.dtype != np.uint8:
            raise TypeError("controller data must be uint8 or bytes")
        return arr
