"""Persistent lattice cache.

One text file per group, keyed by a content hash of the canonical element
table, so isomorphic groups with different presentations never collide
(they have different tables) while re-presentations of the same table hit.
Entries carry their own checksum, and their subgroups must run from the
trivial group to G in canonical order, each order field the popcount of
its mask and each generator hint generating its mask; anything that fails
validation is discarded and recomputed.
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path

from .errors import CacheError, CriteriaDisagreement
from .groups import FiniteGroup
from .lattice import Subgroup, SubgroupLattice, all_subgroups

log = logging.getLogger(__name__)

FORMAT_VERSION = "3"


def lattice_to_text(lat: SubgroupLattice) -> str:
    lines = [f"groupgraph-lattice-cache {FORMAT_VERSION}",
             f"group {lat.group.order} {lat.group.degree} {lat.group.table_digest}"]
    for s in lat.subgroups:
        hint = ",".join(str(i) for i in s.gen_hint) or "-"
        lines.append(f"sub {s.order} {s.mask:x} {hint}")
    lines.append("conj " + " ".join(str(c) for c in lat.conj_class_of))
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f"\nchecksum {digest}\n"


def lattice_from_text(group: FiniteGroup, text: str) -> SubgroupLattice:
    body, _, tail = text.rstrip("\n").rpartition("\n")
    if not tail.startswith("checksum "):
        raise CacheError("missing checksum line")
    if hashlib.sha256(body.encode()).hexdigest() != tail.split()[1]:
        raise CacheError("checksum mismatch")
    lines = body.splitlines()
    if lines[0] != f"groupgraph-lattice-cache {FORMAT_VERSION}":
        raise CacheError(f"unsupported cache version: {lines[0]!r}")
    _, order, degree, digest = lines[1].split()
    if (int(order), int(degree)) != (group.order, group.degree) \
            or digest != group.table_digest:
        raise CacheError("cache entry is for a different group")
    subgroups = []
    conj = None
    for line in lines[2:]:
        kind, _, rest = line.partition(" ")
        if kind == "sub":
            order_s, mask_hex, hint_s = rest.split()
            hint = () if hint_s == "-" else tuple(map(int, hint_s.split(",")))
            subgroups.append(Subgroup(int(mask_hex, 16), int(order_s), hint))
        elif kind == "conj":
            conj = [int(c) for c in rest.split()]
        else:
            raise CacheError(f"unknown record {kind!r}")
    if conj is None or len(conj) != len(subgroups):
        raise CacheError("incomplete cache entry")
    _check_structure(group, subgroups)
    try:
        return SubgroupLattice(group, subgroups, conj)
    except CriteriaDisagreement as exc:
        raise CacheError(str(exc)) from None


def _check_structure(group: FiniteGroup, subgroups: list[Subgroup]) -> None:
    """Raise CacheError unless the subgroups run from the trivial group to
    G in strictly increasing (order, mask) order, each order field being
    its mask's popcount and each hint index an element: what the
    canonical order promises, and cheap to check on every load. The
    lattice then checks that each hint generates its subgroup."""
    if not subgroups or (subgroups[0].mask, subgroups[0].order) != (1, 1):
        raise CacheError("the first subgroup is not the trivial group")
    if (subgroups[-1].mask, subgroups[-1].order) \
            != ((1 << group.order) - 1, group.order):
        raise CacheError("the last subgroup is not the whole group")
    for s in subgroups:
        if s.mask.bit_count() != s.order:
            raise CacheError(f"subgroup {s.mask:x} has order field {s.order}, "
                             f"but {s.mask.bit_count()} members")
        if min(s.gen_hint, default=0) < 0:  # the lattice rejects the rest
            raise CacheError(f"subgroup {s.mask:x} has a hint index out of "
                             f"range: {s.gen_hint}")
    keys = [(s.order, s.mask) for s in subgroups]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CacheError("subgroups are not in strictly increasing "
                         "(order, mask) order")


def cache_path(cache_dir: str | Path, group: FiniteGroup) -> Path:
    return Path(cache_dir) / f"{group.table_digest}.lattice"


def load_or_compute(group: FiniteGroup, cache_dir: str | Path | None = None
                    ) -> tuple[SubgroupLattice, bool]:
    """Return (lattice, was_cache_hit); persist fresh computations."""
    if cache_dir is None:
        return all_subgroups(group), False
    path = cache_path(cache_dir, group)
    if path.exists():
        try:
            return lattice_from_text(group, path.read_text()), True
        except (CacheError, ValueError, IndexError, KeyError) as exc:
            log.warning("discarding bad cache entry %s: %s", path, exc)
    lat = all_subgroups(group)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(lattice_to_text(lat))
    os.replace(tmp, path)
    return lat, False
