"""Complete subgroup lattices of finite groups.

Enumeration is Neubüser's cyclic extension up to conjugacy (the method
behind GAP's ``LatticeByCyclicExtension``). A zuppo is a cyclic subgroup
of prime-power order. Starting from the trivial subgroup, one
representative H of each conjugacy class found so far is joined with
zuppos <z> that are not inside H but whose p-th power z^p is (p the prime
dividing the order of z), in increasing order of their least generator.
Each new join brings in its whole conjugacy class at once, with
conjugated ``gen_hint``s: g U g^-1 depends only on the coset g·N(U), so
the class is walked on the cosets of U's normalizer and its members are
scattered from one ``conj`` gather at U's members. The joins are array
passes over all the candidates of H:

- One join per N(H)-orbit. The candidate zuppos are permuted by the
  normalizer N(H), and <H, z^n> = <H, z>^n for n in N(H), a conjugate of
  <H, z> that arrives with its class. So only the least candidate of each
  N(H)-orbit is joined. N(H) is computed once, when H's class is walked,
  from H's ``gen_hint``: conjugation by g is an automorphism, so g
  normalizes H exactly when it maps each hint generator into H, one
  gather of ``conj`` at the hint. It is kept until H is extended.
- One join per right coset. <H, h·z> = <H, z> for h in H, so the
  candidates in one right coset H·z have the same join, and only the
  least of them is joined. The cosets are told apart by their least
  elements, one ``mul`` gather for all candidates.
- Product sets. When z normalizes H, <H, z> is the set H·<z>: the union
  of the cosets H·z^i for i < p, as z^p lies in H. The rows are read off
  ``mul`` in one gather per prime. In an abelian group every candidate
  normalizes H and every orbit is a single zuppo, so no orbit is worked
  out.
- One batch of closures, one closure row per right coset. The other
  coset leaders go to ``FiniteGroup.closure_masks`` together, with H as
  the known subgroup: Dimino's coset-wise closure (Holt, Eick & O'Brien,
  *Handbook of Computational Group Theory*, 2005), all closures in
  lock-step. The loop then reads every candidate's join once, in order,
  from its coset's leader.

Completeness. Every element is the product of commuting prime-power
powers of itself, so a subgroup K is generated by the zuppos inside it.
Adjoin them to the trivial subgroup in order of increasing order: when
<z> is adjoined, the smaller zuppo <z^p> came earlier, so z^p already lies
in the subgroup built so far. Every subgroup is therefore reached by a
chain of the joins described above. Conjugation permutes the lattice and
maps such a chain to another one, so extending one representative per
class loses no class, and adding whole classes loses no subgroup. A
candidate left out as not the least of its N(H)-orbit has a join
conjugate to the least one's, so its class is found as well.

Same output as the unpruned loop. The loop meets zuppos in increasing
order. The first zuppo whose join lies in a class not found yet is the
least of its N(H)-orbit: the join of a smaller orbit member is conjugate
to it, so that member would have found the class first. The zuppos left
out only give joins in classes already found. The unpruned loop also
skips the zuppos y inside an earlier join U of prime index over H; that
skip changes nothing, as <H, y> = U (Lagrange), which is already found.
So each class is first found by the same representative, zuppo and
``gen_hint``. The walk over a class on cosets meets its members in the
order of a walk over their masks, each from the same member by the same
conjugator, so the conjugated hints agree too. The masks, hints and
class labels are therefore those of the unpruned loop, which the test
suite keeps as an oracle and cross-checks against a brute-force
enumeration for small groups.

Subgroups are bitsets over the parent group's element table, canonically
ordered by (order, bitset value), so ids are stable across runs and safe
to cache.

Inclusion from generators. ``contains[x]`` is the bitset of the ids of the
subgroups holding the element x. H lies in K exactly when K holds H's
``gen_hint``, so H's supersets are the AND of ``contains`` over it. Ids
are sorted by order, so its lowest bit is the smallest subgroup holding
the hint, in a complete lattice the one it generates: it must be H, or
CriteriaDisagreement is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import (CHUNK_BYTES, bool_array_from_mask, bool_rows, iter_bits,
                   lowest_bit, row_blocks, rows_from_bool, words_from_bool)
from .errors import CapExceeded, CriteriaDisagreement
from .groups import FiniteGroup, is_abelian
from .primes import factorize

SUBGROUP_CAP = 100_000


@dataclass
class Subgroup:
    mask: int
    order: int
    gen_hint: tuple[int, ...]  # element indices; small generating set

    def member_indices(self) -> list[int]:
        return list(iter_bits(self.mask))


class SubgroupLattice:
    """All subgroups of a group, with inclusion and structural annotations."""

    def __init__(self, group: FiniteGroup, subgroups: list[Subgroup],
                 conj_class_of: list[int]):
        self.group = group
        self.subgroups = subgroups
        self.index_of = {s.mask: i for i, s in enumerate(subgroups)}
        self.trivial_id = 0
        self.full_id = len(subgroups) - 1
        # each subgroup's packed uint64 member words, by id
        self.member_words = np.empty((0, 0), dtype=np.uint64)
        # per element: the bitset of the ids of the subgroups holding it
        self.contains: list[int] = []
        self.supersets: list[int] = []
        # class labels number the classes in order of their lowest id
        self.conj_class_of: list[int] = list(conj_class_of)
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(self.conj_class_of):
            classes.setdefault(c, []).append(i)
        self.conj_classes: list[tuple[int, ...]] = [
            tuple(classes[c]) for c in sorted(classes)]
        self.is_normal: list[bool] = []
        self.is_maximal: list[bool] = []
        self.sylow_index: dict[int, tuple[int, ...]] = {}
        self.frattini_id: int = -1
        self._annotate()

    # -- construction ---------------------------------------------------

    def _annotate(self) -> None:
        # every annotation is cheap and fully determined by the masks and
        # the classes, so it is recomputed even on cache loads
        self._compute_inclusion()
        self._compute_sylow()
        n = len(self.subgroups)
        self.is_normal = [len(self.conj_classes[self.conj_class_of[i]]) == 1
                          for i in range(n)]
        full_bit = 1 << self.full_id
        self.is_maximal = [
            i != self.full_id and self.supersets[i] == (1 << i) | full_bit
            for i in range(n)]
        maximal_ids = [i for i in range(n) if self.is_maximal[i]]
        if maximal_ids:
            frat = self.subgroups[self.full_id].mask
            for i in maximal_ids:
                frat &= self.subgroups[i].mask
            self.frattini_id = self.index_of[frat]
        else:
            self.frattini_id = self.full_id

    def _compute_inclusion(self) -> None:
        """Member words, ``contains`` (the membership matrix's columns,
        packed by blocks within CHUNK_BYTES) and hint-checked supersets."""
        member = bool_rows([s.mask for s in self.subgroups], self.group.order)
        self.member_words = words_from_bool(member)
        contains = self.contains = []
        for cols in row_blocks(self.group.order, len(member), CHUNK_BYTES):
            contains.extend(rows_from_bool(member[:, cols].T.copy()))
        del member
        self.supersets = []
        for sid, s in enumerate(self.subgroups):
            above = contains[0]
            try:
                for x in s.gen_hint:
                    above &= contains[x]
            except IndexError:  # no subgroup holds an index past the end
                above = 0
            if lowest_bit(above) != sid:
                raise CriteriaDisagreement(
                    f"the hint {s.gen_hint} does not generate subgroup {sid}")
            self.supersets.append(above)

    def _compute_sylow(self) -> None:
        self.sylow_index = {
            p: tuple(i for i, s in enumerate(self.subgroups)
                     if s.order == p ** e)
            for p, e in factorize(self.group.order).items()}

    # -- queries ----------------------------------------------------------

    def order_of(self, sid: int) -> int:
        return self.subgroups[sid].order

    def mask_of(self, sid: int) -> int:
        return self.subgroups[sid].mask

    def join(self, h: int, k: int) -> int:
        """Smallest subgroup containing both; ids are order-sorted, so the
        lowest common superset id is the join."""
        return lowest_bit(self.supersets[h] & self.supersets[k])

    def smallest_holding(self, subgroups, lift, over: int = 0) -> list[int]:
        """For each subgroup S (of any group), the id of the smallest
        subgroup holding the subgroup ``over`` and S's hint mapped by
        ``lift`` (S's element indices -> G's): the lowest bit of the AND
        of their ``contains`` and the supersets of ``over``. Finding one of
        an order other than |over||S| means a subgroup is missing from the
        lattice, and raises CriteriaDisagreement."""
        ids, size = [], self.subgroups[over].order
        for s in subgroups:
            above = self.supersets[over]
            for x in s.gen_hint:
                above &= self.contains[lift[x]]
            ids.append(lowest_bit(above))
            if self.subgroups[ids[-1]].order != size * s.order:
                raise CriteriaDisagreement(
                    f"no subgroup of order {size * s.order} holds subgroup "
                    f"{over} and the image of the hint {s.gen_hint}")
        return ids

    def product_size(self, h: int, k: int) -> int:
        meet = (self.subgroups[h].mask & self.subgroups[k].mask).bit_count()
        return self.subgroups[h].order * self.subgroups[k].order // meet

    def is_permutable_pair(self, h: int, k: int) -> bool:
        """HK = KH, equivalently |HK| = |<H, K>|."""
        return self.product_size(h, k) == self.subgroups[self.join(h, k)].order

    def conjugates(self, sid: int) -> tuple[int, ...]:
        return self.conj_classes[self.conj_class_of[sid]]

    def maximal_subgroups(self) -> list[int]:
        return [i for i, flag in enumerate(self.is_maximal) if flag]

    def frattini(self) -> int:
        return self.frattini_id

    def nontrivial_proper_ids(self) -> list[int]:
        return [i for i in range(len(self.subgroups))
                if i != self.trivial_id and i != self.full_id]

    def is_cyclic_subgroup(self, sid: int) -> bool:
        """Does some member's order equal the subgroup's order?"""
        sub = self.subgroups[sid]
        member = bool_array_from_mask(sub.mask, self.group.order)
        return int(self.group.element_orders[member].max()) == sub.order

    def subgroup_count(self) -> int:
        return len(self.subgroups)


def _zuppos(group: FiniteGroup):
    """The cyclic subgroups of prime-power order, numbered by least generator.

    Returns four parallel lists: each zuppo's least generator z, the prime
    p dividing the order of z, the index of z^p and the member indices
    (the powers z, z^2, ..., ending at the identity). The fifth value,
    ``zuppo_of``, maps each element to the number of the zuppo it
    generates, and every other element to a value above every number; it
    has ``mul``'s dtype.
    """
    mul = group.mul
    orders = group.element_orders
    prime_of = {}
    for o in set(orders.tolist()):
        factors = factorize(o)
        if len(factors) == 1:
            prime_of[o] = next(iter(factors))
    zuppo_of = np.full(group.order, np.iinfo(mul.dtype).max, dtype=mul.dtype)
    gens: list[int] = []
    primes: list[int] = []
    pth_powers: list[int] = []
    members: list[np.ndarray] = []
    for z in range(1, group.order):
        p = prime_of.get(int(orders[z]))
        if p is None or zuppo_of[z] < len(gens):
            continue
        powers = [z]  # powers[k] = z^(k + 1)
        while powers[-1] != 0:
            powers.append(int(mul[powers[-1], z]))
        power_idx = np.array(powers, dtype=np.int64)
        # the generators of <z> are its elements of z's order
        zuppo_of[power_idx[orders[power_idx] == orders[z]]] = len(gens)
        gens.append(z)
        primes.append(p)
        pth_powers.append(powers[p - 1])
        members.append(power_idx)
    return gens, primes, pth_powers, members, zuppo_of


def _conjugacy_class(group: FiniteGroup, conjugators: list[int],
                     sub: Subgroup, in_normalizer) -> list[Subgroup]:
    """The orbit of sub under conjugation by the conjugators, each member
    with the conjugate of sub's gen_hint. ``in_normalizer`` is the bool
    row of N(sub); with no conjugators it is not read.

    g H g^-1 depends only on the coset g·N(H), so the walk runs on cosets,
    each named by its least element: conjugating the member of coset a by
    c gives the member of coset c·a. The depth-first walk takes the
    conjugators in order off one stack and conjugates the hints on the
    way. The member of coset a is {a h a^-1 : h in H}: all members are
    scattered from ``conj`` gathered at H's members, by blocks of rows."""
    if not conjugators:
        return [sub]
    n = group.order
    mul, conj = group.mul, group.conj
    normalizer = np.flatnonzero(in_normalizer)
    if normalizer.size == n:
        return [sub]
    label = group.left_coset_labels(normalizer)
    leaders = np.flatnonzero(label == np.arange(n))
    # the coset of c·a for each coset a and conjugator c, in one gather
    step = dict(zip(leaders.tolist(), label[
        mul[np.asarray(conjugators)[None], leaders[:, None]]].tolist()))
    hints = {0: sub.gen_hint}
    stack = [0]
    while stack:
        a = stack.pop()
        for c, b in zip(conjugators, step[a]):
            if b not in hints:
                hints[b] = tuple(int(conj[c, i]) for i in hints[a])
                stack.append(b)
    cosets = np.fromiter(hints, dtype=np.int64, count=len(hints))
    members = np.flatnonzero(bool_array_from_mask(sub.mask, n))
    masks: list[int] = []
    # per row: the bool row, and the gathered indices and their intp copy
    for rows in row_blocks(cosets.size, n + 16 * members.size, CHUNK_BYTES):
        block = np.zeros((len(cosets[rows]), n), dtype=bool)
        np.put_along_axis(block, conj[cosets[rows, None], members], True, 1)
        masks.extend(rows_from_bool(block))
    return [Subgroup(mask, sub.order, hint)
            for mask, hint in zip(masks, hints.values())]


def _right_coset_leads(group: FiniteGroup, members: np.ndarray,
                       elements: np.ndarray) -> np.ndarray:
    """For each of the listed elements z, the position of the first listed
    element in its right coset H·z of the subgroup H with the member
    indices ``members``. Distinct right cosets are disjoint, so their
    least elements tell them apart: one ``mul`` gather for all elements,
    and a scatter of the least position per least element."""
    least = group.mul[members[:, None], elements].min(axis=0)
    first = np.full(group.order, elements.size)
    np.minimum.at(first, least, np.arange(elements.size))
    return first[least]


def _product_sets(group: FiniteGroup, inside: np.ndarray,
                  zuppos: np.ndarray, primes, zmembers) -> dict[int, int]:
    """H·<z> for each listed zuppo z that normalizes H (given by its bool
    ``inside`` row), as bitsets keyed by zuppo number. z^p lies in H, so
    H·<z> is the union of the cosets H·z^i for i < p: one ``mul`` gather
    for all the rows of the same prime.
    """
    members = np.flatnonzero(inside)
    zuppos = zuppos.tolist()
    products: dict[int, int] = {}
    for p in sorted({primes[z] for z in zuppos}):
        same = [z for z in zuppos if primes[z] == p]
        # z, z^2, ..., z^(p-1) for each zuppo, one row each
        powers = np.array([zmembers[z][:p - 1] for z in same], dtype=np.int64)
        cosets = group.mul[members[:, None, None], powers[None]]
        rows = np.repeat(inside[None], len(same), axis=0)
        rows[np.arange(len(same))[None, :, None], cosets] = True
        products.update(zip(same, rows_from_bool(rows)))
    return products


def all_subgroups(group: FiniteGroup,
                  subgroup_cap: int = SUBGROUP_CAP) -> SubgroupLattice:
    """Enumerate every subgroup by cyclic extension up to conjugacy and
    annotate the lattice."""
    n = group.order
    full_mask = (1 << n) - 1
    zgens, zprimes, zpowers, zmembers, zuppo_of = _zuppos(group)
    zgen_idx = np.array(zgens, dtype=np.int64)
    zpow_idx = np.array(zpowers, dtype=np.int64)
    abelian = is_abelian(group)
    conjugators = [] if abelian else group.generator_indices()
    trivial = Subgroup(1, 1, ())
    found = {trivial.mask: trivial}
    class_of = {trivial.mask: 0}  # mask -> representative's position
    reps = [trivial]  # one per conjugacy class; grows while it is walked
    # representative's position -> its normalizer's bool row, computed
    # once when its class is walked and dropped once it is extended
    normalizers = {0: np.ones(n, dtype=bool)}
    for pos, rep in enumerate(reps):
        in_normalizer = normalizers.pop(pos, None)
        if rep.mask == full_mask:
            continue
        inside = bool_array_from_mask(rep.mask, n)
        members = np.flatnonzero(inside)
        # extend only by zuppos <z> outside rep with z^p inside it
        candidates = np.flatnonzero(~inside[zgen_idx] & inside[zpow_idx])
        if abelian:
            normalizes = np.ones(len(candidates), dtype=bool)
        else:
            # one zuppo per N(rep)-orbit: the least, which the loop reaches
            # first; its join's conjugates come with the join's class
            least = zuppo_of[group.conj[np.flatnonzero(in_normalizer)[:, None],
                                        zgen_idx[candidates]]].min(axis=0)
            candidates = candidates[least == candidates]
            normalizes = in_normalizer[zgen_idx[candidates]]
        # <H, h·z> = <H, z>: the least candidate of each right coset H·z
        # is joined for all of them
        lead = _right_coset_leads(group, members, zgen_idx[candidates])
        leading = lead == np.arange(candidates.size)
        products = candidates[normalizes & leading]
        joins = {}
        if products.size:
            joins = _product_sets(group, inside, products, zprimes, zmembers)
        # the other joins are closed together, H being the known subgroup
        closing = candidates[leading & ~normalizes].tolist()
        if closing:
            joins.update(zip(closing, group.closure_masks(
                [zmembers[z] for z in closing],
                [rep.gen_hint + (zgens[z],) for z in closing], members)))
        for z, leader in zip(candidates.tolist(), candidates[lead].tolist()):
            joined = joins[leader]
            if joined not in found:
                new = Subgroup(joined, joined.bit_count(),
                               rep.gen_hint + (zgens[z],))
                in_new = None if abelian else group.normalizer_row(
                    bool_array_from_mask(joined, n), new.gen_hint)
                normalizers[len(reps)] = in_new
                for s in _conjugacy_class(group, conjugators, new, in_new):
                    if len(found) >= subgroup_cap:
                        raise CapExceeded(
                            f"subgroup enumeration exceeded cap {subgroup_cap}")
                    found[s.mask] = s
                    class_of[s.mask] = len(reps)
                reps.append(new)
    ordered = sorted(found.values(), key=lambda s: (s.order, s.mask))
    labels: dict[int, int] = {}
    return SubgroupLattice(
        group, ordered,
        [labels.setdefault(class_of[s.mask], len(labels)) for s in ordered])
