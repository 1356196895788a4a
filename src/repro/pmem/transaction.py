"""Undo-log transactions over the simulated NVM (PMDK ``tx`` style).

Each transactional write first persists an undo record — the target
address, length, and *old* content — into the pool's media-resident log
region, marks the record valid, and only then writes the new data in place.
Commit clears the log's active flag; abort (an exception inside the
``with`` block) replays the undo records in reverse.

The media rows are staged and land as ordered flushes (see
:mod:`repro.pmem.pool`): by default one per step (``TX_BEGIN``, each
write, commit), or — with ``defer_flush`` — one for the whole transaction
at commit.  Either way the rows, their order and their bytes are those of
writing each row through as it is issued, and every fault site fires at
its place between them, so the write-ahead order and the set of crash
points do not depend on the batching.  Reads through the pool inside the
transaction see the staged rows.  A deferred transaction abandoned before
commit (process death outside any fault site) has landed nothing, which
recovery treats like a crash before ``TX_BEGIN``.

Because the log lives on the simulated media, a *crash* mid-transaction
(abandoning the pool object) is recoverable: a new
:class:`~repro.pmem.pool.PersistentPool` constructed over the same device
with ``recover=True`` finds the active log and rolls the half-applied
transaction back — see ``tests/pmem/test_crash_recovery.py``.  A
:class:`~repro.testing.faults.CrashError` raised at a fault site inside the
``with`` block is treated as process death: the context manager performs
*no* rollback and no cleanup, leaving the media exactly as the crash left
it for a later recovery to repair.

All log traffic is real device writes, so transactional overhead shows up
in the energy/latency accounting, as it does on real Optane through PMDK.
"""

from __future__ import annotations

import numpy as np

from repro.testing.faults import CrashError


class TransactionAborted(Exception):
    """Raised by :meth:`Transaction.abort` to roll back explicitly."""


class Transaction:
    """One undo-log transaction; use as a context manager.

    Created by :meth:`repro.pmem.pool.PersistentPool.transaction`.  Only one
    transaction may be active per pool at a time (the log holds one
    transaction's records); beginning a second while one is active raises
    ``RuntimeError`` instead of silently corrupting the first transaction's
    undo records.  Transaction objects are single-use: re-entering one that
    already committed or rolled back also raises.

    Args:
        pool: the :class:`~repro.pmem.pool.PersistentPool` to log into.
        defer_flush: stage every row until commit and land the whole
            transaction as one ordered flush, instead of one flush per
            step.
    """

    def __init__(self, pool, defer_flush: bool = False) -> None:
        self._pool = pool
        self._defer_flush = defer_flush
        self._active = False
        self._finished = False

    def __enter__(self) -> "Transaction":
        if self._active:
            raise RuntimeError("transaction is already active")
        if self._finished:
            raise RuntimeError(
                "transaction objects are single-use; begin a new one with "
                "pool.transaction()"
            )
        self._pool._log_begin()
        self._active = True
        if not self._defer_flush:
            self._pool._flush()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and issubclass(exc_type, CrashError):
            # Simulated process death: nothing more touches the media.  The
            # active undo log stays behind for recover() to roll back.
            self._active = False
            self._finished = True
            return False
        try:
            if exc_type is None:
                self._pool._log_commit()
                self._active = False
                self._finished = True
                return False
            # The block raised: land what it staged (rows it would already
            # have written through), then roll back.
            self._pool._flush()
        except CrashError:
            self._active = False
            self._finished = True
            raise
        except BaseException:
            self._rollback()
            raise
        self._rollback()
        # Swallow only explicit aborts; real errors propagate.
        return exc_type is TransactionAborted

    def write(self, addr: int, data: bytes) -> None:
        """Log the old content of ``[addr, addr+len)``, then write in place
        (staged rows, landing in that order when the transaction
        flushes)."""
        if not self._active:
            raise RuntimeError("transaction is not active")
        pool = self._pool
        pool._log_record(addr, pool.read(addr, len(data)))
        # Once the undo record is persisted and valid, a crash (or torn
        # write) of the data row is rolled back from the log.
        site = None
        if pool.faults is not None:
            site = ("tx.write", dict(
                payload_len=len(data),
                payload_writer=lambda n: pool.controller.torn_program(
                    addr, data[:n]
                ),
            ))
        pool._stage(addr, bytes(data), site)
        if not self._defer_flush:
            pool._flush()

    def abort(self) -> None:
        """Roll back everything written so far and leave the ``with`` block."""
        raise TransactionAborted()

    def _rollback(self) -> None:
        self._pool._log_rollback()
        self._pool._log_finish()
        self._active = False
        self._finished = True


def as_bytes(data) -> bytes:
    """Normalise ``bytes``/``ndarray`` write payloads."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    return np.asarray(data, dtype=np.uint8).tobytes()
