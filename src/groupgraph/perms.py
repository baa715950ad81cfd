"""Permutations on {0, ..., degree-1}, stored as tuples of images.

Composition convention: ``compose(p, q)`` applies ``p`` first, then ``q``.
The identity is the lexicographically smallest permutation of its degree,
so it always lands at index 0 of a sorted element table.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import GroupGraphError

Perm = tuple[int, ...]


class PermError(GroupGraphError):
    pass


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_permutation(images) -> bool:
    n = len(images)
    return sorted(images) == list(range(n))


def check_permutation(images) -> Perm:
    p = tuple(int(i) for i in images)
    if not is_permutation(p):
        raise PermError(f"not a permutation of 0..{len(p) - 1}: {p}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q: ``q`` read at the images of ``p``, in C. Degrees 0
    and 1 keep the tuple form, as ``itemgetter`` takes at least one index
    and returns a bare item for exactly one."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its smallest point, sorted."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def format_cycles(p: Perm) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse cycle notation like ``(0 1 2)(3 4)``; ``()`` is the identity.

    Points may be separated by spaces or commas. When degree is omitted it
    is inferred from the largest point mentioned.
    """
    stripped = text.strip()
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)*", stripped):
        raise PermError(f"malformed cycle notation: {text!r}")
    cyc_lists = []
    max_point = -1
    for m in _CYCLE_RE.finditer(stripped):
        body = m.group(1).strip()
        if not body:
            continue
        tokens = re.split(r"[,\s]+", body)
        if not all(tok.isdigit() for tok in tokens):
            raise PermError(f"non-numeric point in cycle: {m.group(0)}")
        pts = [int(tok) for tok in tokens]
        if len(set(pts)) != len(pts):
            raise PermError(f"repeated point in cycle: {m.group(0)}")
        cyc_lists.append(pts)
        max_point = max(max_point, max(pts))
    n = max_point + 1 if degree is None else degree
    if max_point >= n:
        raise PermError(f"point {max_point} out of range for degree {n}")
    images = list(range(n))
    moved = set()
    for pts in cyc_lists:
        for a in pts:
            if a in moved:
                raise PermError(f"point {a} appears in two cycles: {text!r}")
            moved.add(a)
        for a, b in zip(pts, pts[1:]):
            images[a] = b
        images[pts[-1]] = pts[0]
    return tuple(images)


def pad(p: Perm, degree: int) -> Perm:
    if len(p) > degree:
        raise PermError(f"cannot pad degree {len(p)} permutation to {degree}")
    return p + tuple(range(len(p), degree))


def shift(p: Perm, offset: int, degree: int) -> Perm:
    """Embed p acting on [offset, offset+len(p)) inside a larger point set."""
    images = list(range(degree))
    for i, j in enumerate(p):
        images[offset + i] = offset + j
    return tuple(images)
