"""Bitset helpers. Subgroups and adjacency rows are plain Python ints;
array passes work on rows packed into uint64 words."""

from __future__ import annotations

from typing import Iterator

import numpy as np

# bound on the bytes of each temporary of a pass over blocks of rows
CHUNK_BYTES = 256 * 1024


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def bool_array_from_mask(mask: int, size: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def bool_rows(rows, size: int) -> np.ndarray:
    """The bitsets ``rows`` as a (len(rows), size) bool matrix."""
    nbytes = (size + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                        dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(raw, axis=1, count=size, bitorder="little").view(bool)


def rows_from_bool(matrix: np.ndarray) -> list[int]:
    """The rows of a 2-d bool matrix as bitsets; inverse of ``bool_rows``."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def words_from_bool(matrix: np.ndarray) -> np.ndarray:
    """The rows of a 2-d bool matrix packed into uint64 words, the last
    word padded with zeros: ANDs and popcounts of these rows are those of
    the bitsets, word by word."""
    packed = np.packbits(matrix, axis=1)
    words = np.zeros((len(packed), (packed.shape[1] + 7) // 8), dtype=np.uint64)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def row_blocks(count: int, row_size: int, limit: int):
    """Slices of ``range(count)`` whose rows, ``row_size`` each, stay
    within ``limit`` together (one row at least)."""
    step = max(1, limit // max(row_size, 1))
    for start in range(0, count, step):
        yield slice(start, start + step)
