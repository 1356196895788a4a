"""Interfaces shared by write schemes and placement strategies.

A :class:`WriteScheme` answers "given this address already holds X and I want
it to logically hold Y, which cells do I pulse and what do I store?".  A
:class:`Placer` answers "which free address should this value be written to?".
The two compose: E2-NVM (a placer) runs above DCW (a scheme), as do all the
baselines in Figure 10.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WritePlan:
    """The physical effect of one logical write.

    Attributes:
        stored: bytes to place on the media (possibly an encoded form of the
            logical data, e.g. bit-flipped words under FNW).
        program_mask: ``uint8`` mask of cells to pulse; ``None`` pulses all.
        aux_bits: metadata cells (flags/tags) programmed alongside the data.
    """

    stored: np.ndarray
    program_mask: np.ndarray | None
    aux_bits: int = 0


class WriteScheme(abc.ABC):
    """A controller-level data encoding that reduces programmed cells.

    Schemes may keep per-address decode metadata (the hardware keeps these in
    tag bits); metadata is keyed by logical address, so it survives wear-
    leveling remapping of physical segments.
    """

    name: str = "scheme"

    @abc.abstractmethod
    def prepare(
        self, logical_addr: int, old_stored: np.ndarray, new_logical: np.ndarray
    ) -> WritePlan:
        """Plan the media write for ``new_logical`` over ``old_stored``.

        Implementations must also update their decode metadata so that a
        subsequent :meth:`decode` at ``logical_addr`` recovers
        ``new_logical``.
        """

    def prepare_many(
        self,
        logical_addrs,
        old_stored: np.ndarray,
        new_logical: np.ndarray,
        bounds: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Plan a batch of ragged writes laid out flat.

        Args:
            logical_addrs: one logical address per row.
            old_stored: currently-stored bytes of every row, concatenated.
            new_logical: bytes to logically store, same layout.
            bounds: row ``i`` is ``[bounds[i], bounds[i + 1])`` of both.

        Returns ``(stored, program_masks, aux_bits)``: flat ``uint8``
        arrays in the same layout and a per-row ``int64`` vector.  The
        default implementation loops :meth:`prepare` row by row (preserving
        any per-address decode metadata updates, in batch order); schemes
        with content-independent plans override it with a vectorised
        version.
        """
        stored = np.empty_like(new_logical)
        masks = np.empty_like(new_logical)
        aux = np.zeros(len(logical_addrs), dtype=np.int64)
        for i, logical_addr in enumerate(logical_addrs):
            lo, hi = bounds[i], bounds[i + 1]
            plan = self.prepare(
                int(logical_addr), old_stored[lo:hi], new_logical[lo:hi]
            )
            stored[lo:hi] = plan.stored
            masks[lo:hi] = 0xFF if plan.program_mask is None else plan.program_mask
            aux[i] = plan.aux_bits
        return stored, masks, aux

    def decode(self, logical_addr: int, stored: np.ndarray) -> np.ndarray:
        """Recover the logical bytes from the stored (encoded) bytes."""
        return stored

    def reset(self) -> None:
        """Drop all decode metadata (e.g. when the device is re-initialised)."""


class Placer(abc.ABC):
    """A software strategy choosing which free segment receives a write."""

    name: str = "placer"

    @abc.abstractmethod
    def choose(self, value_bits: np.ndarray) -> int:
        """Pick and claim a free segment address for a value (bit vector).

        Raises:
            RuntimeError: when no free segment is available.
        """

    @abc.abstractmethod
    def release(self, addr: int, content_bits: np.ndarray) -> None:
        """Return segment ``addr`` (holding ``content_bits``) to the free set."""

    @abc.abstractmethod
    def free_count(self) -> int:
        """Number of free segments currently claimable."""
