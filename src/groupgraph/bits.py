"""Bitset helpers. Subgroups and adjacency rows are plain Python ints."""

from __future__ import annotations

from typing import Iterator

import numpy as np


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def mask_from_bool_array(arr: np.ndarray) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_from_mask(mask: int) -> list[int]:
    return list(iter_bits(mask))


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def bool_array_from_mask(mask: int, size: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)
