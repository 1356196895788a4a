"""Bit-level primitives used throughout the simulator.

All NVM content is modelled as NumPy ``uint8`` arrays.  Counting flipped bits
between an old and a new byte string (the Hamming distance) is the single
hottest operation in the whole reproduction.  On NumPy >= 2.0 it uses the
native ``np.bitwise_count`` ufunc; older NumPy falls back to a 256-entry
popcount lookup table.
"""

from __future__ import annotations

import numpy as np

#: ``POPCOUNT_TABLE[b]`` is the number of set bits in byte value ``b``.
POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

#: Whether the running NumPy provides the native popcount ufunc (>= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount_array(values: np.ndarray) -> int:
    """Return the total number of set bits across a ``uint8`` array."""
    values = np.asarray(values, dtype=np.uint8)
    if HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(values).sum(dtype=np.int64))
    return int(POPCOUNT_TABLE[values].sum(dtype=np.int64))


def popcount_bytes(values: np.ndarray) -> np.ndarray:
    """Per-byte set-bit counts of a ``uint8`` array (same shape)."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(values)
    return POPCOUNT_TABLE[values]


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D ``uint8`` array, as ``int64``.

    The batched write path accounts a whole batch of segment writes with one
    call instead of one :func:`popcount_array` per write.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.uint8))
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    return POPCOUNT_TABLE[matrix].sum(axis=1, dtype=np.int64)


def hamming_bytes(a: np.ndarray, b: np.ndarray) -> int:
    """Return the Hamming distance (number of differing bits) between two
    equal-length ``uint8`` arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return popcount_array(np.bitwise_xor(a, b))


def hamming_distance(a: bytes, b: bytes) -> int:
    """Return the Hamming distance between two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return hamming_bytes(
        np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8)
    )


def bytes_to_bits(data: bytes | np.ndarray) -> np.ndarray:
    """Expand bytes into a ``float32`` 0/1 bit vector (MSB first).

    The ML models consume bit vectors, one feature per bit, exactly as the
    paper encodes memory segments (§3.2).
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = np.frombuffer(bytes(data), dtype=np.uint8)
    data = np.asarray(data, dtype=np.uint8)
    return np.unpackbits(data).astype(np.float32)


def bytes_to_bits_many(values: list[bytes]) -> list[np.ndarray]:
    """Bit-expand many byte strings with a single ``np.unpackbits`` call.

    Returns one ``float32`` 0/1 vector per input value (views into one shared
    expansion, so do not mutate them in place).  Mixed lengths are fine; this
    is the batched front end of :func:`bytes_to_bits`.
    """
    if not values:
        return []
    buffer = np.frombuffer(b"".join(bytes(v) for v in values), dtype=np.uint8)
    bits = np.unpackbits(buffer).astype(np.float32)
    out: list[np.ndarray] = []
    offset = 0
    for value in values:
        n_bits = len(value) * 8
        out.append(bits[offset : offset + n_bits])
        offset += n_bits
    return out


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Collapse a 0/1 bit vector (MSB first) back into bytes.

    The bit count must be a multiple of 8.  Values are thresholded at 0.5 so
    that model outputs (probabilities) can be passed directly.
    """
    bits = np.asarray(bits)
    if bits.size % 8:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    hard = (bits > 0.5).astype(np.uint8)
    return np.packbits(hard).tobytes()
