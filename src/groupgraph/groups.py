"""Concrete finite groups as full permutation element tables.

Everything downstream (lattices, graphs, the verification harness) works on
element indices into the canonical sorted table, so a FiniteGroup also owns
the numpy index tables for multiplication, inversion and conjugation.

The multiplication table is the regular representation built from the
generators. Only the m generator rows (g followed by every element) are
composed from permutations, and each of those m·n products is looked up
in ``element_index``, the dict from permutation to index. Every other row
comes from two known rows by associativity: (a b) x = a (b x), so the row
of a b is the row of a gathered at the row of b. No other entry is looked
up: it is an index of the table by construction, and exact because the
generator rows are. Inverses and conjugation are gathers of that table.

The element table is a breadth-first closure of the generators, and
``stabilizer_chain_order`` certifies its size with Sims' chain: per level
it composes a transversal element, a generator and the inverse (taken once
per level) of the transversal element at the image point, and keeps every
such Schreier generator but the identity, the textbook generator sets.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

import numpy as np

from . import perms
from .bits import (CHUNK_BYTES, bool_rows, iter_bits, row_blocks,
                   rows_from_bool)
from .errors import (CacheError, CapExceeded, GroupGraphError, NotNormal,
                     RealizeError)
from .perms import Perm

DEFAULT_ORDER_CAP = 20_000
# n x n index tables above this order would not fit in memory; every group
# the toolkit analyses in depth is far below it (largest corpus group: 1092).
TABLE_CAP = 8_192
# mul's rows are gathered this many entries at a time, so building the
# table needs little memory beside the table itself
_MUL_BLOCK = 1 << 15


class TableError(GroupGraphError):
    """The generators do not give the element table: a product of a
    generator and an element is missing from it, or they generate less."""


def enumerate_elements(generators, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[Perm, ...]:
    """Breadth-first closure of the generators, sorted lexicographically."""
    gens = [perms.check_permutation(g) for g in generators]
    if not gens:
        raise RealizeError("empty generator list")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise RealizeError("generators have mixed degrees")
    ident = perms.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perms.compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > order_cap:
                        raise CapExceeded(
                            f"element table exceeds order cap {order_cap}")
        frontier = nxt
    return tuple(sorted(seen))


def stabilizer_chain_order(generators) -> int:
    """Group order via a base-and-strong-generators style chain.

    Independent certificate for the closure count: at each level, compute the
    orbit of the first moved point with coset representatives, form Schreier
    generators for the stabilizer, and recurse. Deduplication keeps the
    generator sets small at this scale.
    """
    gens = {perms.check_permutation(g) for g in generators}
    degree = len(next(iter(gens)))
    ident = perms.identity(degree)
    gens.discard(ident)
    order = 1
    while gens:
        base = min(i for g in gens for i in range(degree) if g[i] != i)
        transversal = {base: ident}
        frontier = [base]
        gen_list = sorted(gens)
        while frontier:
            nxt = []
            for pt in frontier:
                rep = transversal[pt]
                for g in gen_list:
                    img = g[pt]
                    if img not in transversal:
                        transversal[img] = perms.compose(rep, g)
                        nxt.append(img)
            frontier = nxt
        order *= len(transversal)
        inverse = {pt: perms.inverse(rep) for pt, rep in transversal.items()}
        stab_gens = set()
        for pt, rep in transversal.items():
            for g in gen_list:
                schreier = perms.compose(perms.compose(rep, g), inverse[g[pt]])
                if schreier != ident:
                    stab_gens.add(schreier)
        gens = stab_gens
    return order


class FiniteGroup:
    """A finite permutation group with a complete canonical element table."""

    def __init__(self, generators, *, spec_label: str = "",
                 order_cap: int = DEFAULT_ORDER_CAP, elements=None):
        self.generators: tuple[Perm, ...] = tuple(
            perms.check_permutation(g) for g in generators)
        if not self.generators:
            raise RealizeError("a group needs at least one generator")
        self.degree: int = len(self.generators[0])
        if elements is None:
            elements = enumerate_elements(self.generators, order_cap)
        self.elements: tuple[Perm, ...] = tuple(elements)
        self.order: int = len(self.elements)
        self.element_index: dict[Perm, int] = {
            p: i for i, p in enumerate(self.elements)}
        self.spec_label = spec_label
        # set by the semidirect constructor; element masks over this table
        self.semidirect_normal_mask: int | None = None
        self.semidirect_complement_mask: int | None = None
        if self.elements[0] != perms.identity(self.degree):
            raise RealizeError(
                "the element table does not start with the identity")

    def __repr__(self):
        label = self.spec_label or "<raw>"
        return f"FiniteGroup({label}, order={self.order}, degree={self.degree})"

    def generator_indices(self) -> list[int]:
        return [self.element_index[g] for g in self.generators]

    @cached_property
    def mul(self) -> np.ndarray:
        """mul[i, j] = index of elements[i] followed by elements[j].

        Only the generators' rows are composed from permutations: row g
        holds g followed by each element, m·n products for m generators.
        Each product is looked up in ``element_index``; a product missing
        from it raises TableError. The identity's row is ``arange(n)``.

        Every other row follows by associativity: when c is a followed by
        b, c followed by x is a followed by (b followed by x), so row c is
        row a gathered at row b. Each round takes the products of all
        pairs of known rows, a block of rows at a time until every row is
        known, and fills the rows of the new ones; the known words in the
        generators double in length per round. These rows are exact with
        no lookup, as the generator rows they come from are. A round that
        finds nothing new means the generators do not generate the table,
        which raises TableError.

        Both gathers are flat ``take``s from the raveled table, at
        a·n + b for the entry (a, b): the products of a block of known
        rows, and each new row from row a at the entries of row b.
        """
        if self.order > TABLE_CAP:
            raise CapExceeded(
                f"order {self.order} exceeds index-table cap {TABLE_CAP}")
        n = self.order
        try:
            gen_rows = np.array(
                [[self.element_index[perms.compose(g, x)]
                  for x in self.elements] for g in self.generators],
                dtype=np.int64)
        except KeyError:
            raise TableError(
                f"{self.spec_label or 'group'}: a product of two elements "
                "is missing from the element table") from None
        table = np.empty((n, n), dtype=np.uint16 if n <= 65535 else np.uint32)
        table[0] = np.arange(n)
        table[gen_rows[:, 0]] = gen_rows  # g followed by the identity is g
        flat = table.reshape(-1)
        known = np.zeros(n, dtype=bool)
        known[0] = known[gen_rows[:, 0]] = True
        while not known.all():
            ks = np.flatnonzero(known)
            for part in row_blocks(ks.size, ks.size, _MUL_BLOCK):
                products = flat.take((ks[part, None] * n + ks).ravel())
                # source[c] = position in products of some a, b with c = ab
                source = np.full(n, products.size)
                source[products] = np.arange(products.size)
                new = np.flatnonzero(~known & (source < products.size))
                a, b = np.divmod(source[new], ks.size)
                a, b = ks[part][a], ks[b]
                for rows in row_blocks(new.size, n, _MUL_BLOCK):
                    table[new[rows]] = flat.take(
                        a[rows, None] * n + table.take(b[rows], axis=0))
                known[new] = True
                if known.all():
                    break
            if np.count_nonzero(known) == ks.size:
                raise TableError(
                    f"{self.spec_label or 'group'}: the generators do not "
                    "generate the element table")
        return table

    @cached_property
    def inv(self) -> np.ndarray:
        """inv[g] = index of g^-1: the column of the identity in row g."""
        return np.argmin(self.mul, axis=1)

    @cached_property
    def conj(self) -> np.ndarray:
        """conj[g, x] = index of g x g^-1."""
        return self.mul[self.mul, self.inv[:, None]]

    @cached_property
    def element_orders(self) -> np.ndarray:
        """The order of each element: the first k with x^k the identity,
        the elements not there yet stepped through their powers together."""
        orders = np.zeros(self.order, dtype=np.int64)
        pending = np.arange(self.order)
        power, k = pending, 1
        while pending.size:
            done = power == 0
            orders[pending[done]] = k
            pending, power = pending[~done], power[~done]
            power = self.mul[power, pending]
            k += 1
        return orders

    def normalizer_row(self, member: np.ndarray, generators) -> np.ndarray:
        """The normalizer N(H) of the subgroup H with the bool membership
        row ``member``, generated by the element indices ``generators``, as
        a bool row. Conjugation by g is an automorphism, so g H g^-1 is the
        subgroup generated by the g h g^-1, and g lies in N(H) exactly when
        each g h g^-1 lies in H for the generators h: one gather of
        ``conj`` at the generators' columns."""
        return member[self.conj[:, list(generators)]].all(axis=1)

    def left_coset_labels(self, members: np.ndarray) -> np.ndarray:
        """The least element of each left coset x·H, for every element x,
        of the subgroup H with the member indices ``members``: the minimum
        of ``mul[x, members]``, a block of rows at a time, so that each
        temporary stays within CHUNK_BYTES."""
        mul = self.mul
        labels = np.empty(self.order, dtype=np.int64)
        for rows in row_blocks(self.order, members.size * mul.itemsize,
                               CHUNK_BYTES):
            labels[rows] = mul[rows, members].min(axis=1)
        return labels

    def closure_masks(self, seeds, gens, subgroup=None) -> list[int]:
        """The subgroups generated by the rows of ``gens``, all closed
        together by Dimino's coset-wise method.

        ``gens`` is a (k, m) array of generator indices, row r for closure
        r, and ``seeds`` a list of k lists of indices. Every index in
        ``seeds[r]`` must lie in closure r, and so must
        ``subgroup``: the member indices of a known subgroup H, shared by
        all rows, whose own generators must be among each row's. Each
        closure grows by whole right cosets H·x, one element at a time when
        H is not given. It starts from the product set H·seeds, one table
        lookup; when the seeds are a cyclic subgroup whose generator
        normalizes H, that product set is the answer and a single pass over
        the coset representatives confirms it.

        The k closures run in lock-step on a (k, n) ``visited`` matrix,
        and the frontier holds (closure, element) pairs as flat indices
        into it. Each round takes one fresh element per new coset for all
        closures at once, by one scatter keyed by closure·n + the coset's
        least element. A closure that reaches more than half the elements
        is the full group (a proper subgroup has index at least 2) and
        stops there. Rows are taken in blocks whose scatter array, 8 bytes
        per (closure, element) pair, stays within CHUNK_BYTES.

        Returns the member bitsets, in row order.
        """
        n = self.order
        gens = np.asarray(gens, dtype=np.int64)
        base = np.asarray([0] if subgroup is None else subgroup,
                          dtype=np.int64)
        masks: list[int] = []
        for part in row_blocks(len(seeds), 8 * n, CHUNK_BYTES):
            masks.extend(self._close_rows(seeds[part], gens[part], base))
        return masks

    def _close_rows(self, seeds, gens, base) -> list[int]:
        """One block of rows of ``closure_masks``."""
        n, k = self.order, len(seeds)
        mul = self.mul
        # closure r's elements are entries r·n to r·n + n - 1, and a
        # (closure, element) pair is the entry's index
        visited = np.zeros(k * n, dtype=bool)
        rows = visited.reshape(k, n)
        rows[:, base] = True
        frontier = np.arange(0, k * n, n)  # H itself, as the coset H·1
        fresh = np.concatenate([np.asarray(s, dtype=np.int64) + r * n
                                for r, s in enumerate(seeds)])
        # a row is the full group once more than half of it is visited, and
        # none can be before the rows together have more than that many
        total, half = k * base.size, n // 2
        base = base[:, None]
        # distinct right cosets are disjoint, so their minima tell them
        # apart: any one fresh element per (closure, minimum) wins a scatter
        slot = np.empty(k * n, dtype=np.int64)
        while True:
            fresh = fresh[~visited[fresh]]
            if fresh.size:
                element = fresh % n
                cosets = (fresh - element) + mul[base, element]
                keys = cosets.min(axis=0)
                pick = np.arange(fresh.size)
                slot[keys] = pick
                first = np.flatnonzero(slot[keys] == pick)
                visited[cosets[:, first]] = True
                frontier = np.concatenate((frontier, fresh[first]))
                total += base.size * first.size
                if total > half:
                    full = np.count_nonzero(rows, axis=1) > half
                    rows[full] = True
                    frontier = frontier[~full[frontier // n]]
            if not frontier.size:
                return rows_from_bool(rows)
            element = frontier % n
            offset = frontier - element
            fresh = (offset[:, None] + mul[element[:, None],
                                           gens[offset // n]]).ravel()
            frontier = frontier[:0]

    def closure_mask(self, seed_indices, generator_indices,
                     subgroup=None) -> int:
        """The subgroup generated by the generator indices, seeded with
        known members: ``closure_masks`` with one row."""
        return self.closure_masks([list(seed_indices)],
                                  [list(generator_indices)], subgroup)[0]

    def table_bytes(self) -> bytes:
        """Canonical byte encoding of the element table (cache key material):
        degree and order, then every point as a 16-bit little-endian number."""
        if self.degree > 1 << 16:
            raise CacheError(
                f"cannot key a group of degree {self.degree}: the element "
                "table encoding holds points below 65536 only")
        head = self.degree.to_bytes(4, "little") + self.order.to_bytes(4, "little")
        return head + np.asarray(self.elements, dtype="<u2").tobytes()

    @cached_property
    def table_digest(self) -> str:
        """SHA-256 of ``table_bytes`` in hex. The element tuple is
        immutable, so the table is encoded once; only the digest is kept,
        and a table that cannot be encoded raises on every call."""
        return hashlib.sha256(self.table_bytes()).hexdigest()


def is_abelian(group: FiniteGroup) -> bool:
    gens = group.generator_indices()
    mul = group.mul
    return all(mul[a, b] == mul[b, a] for a in gens for b in gens)


def subgroup_group(parent: FiniteGroup, mask: int, gen_hint) -> FiniteGroup:
    """Materialize a subgroup (given as an element bitset) as its own group,
    generated by the parent's elements at the indices ``gen_hint``, or by
    the identity when it is empty. A hint that does not generate the
    subgroup makes ``mul`` raise TableError."""
    elements = sorted(parent.elements[i] for i in iter_bits(mask))
    return FiniteGroup([parent.elements[i] for i in gen_hint or (0,)],
                       spec_label=f"subgroup[{len(elements)}]",
                       elements=elements)


def quotients(group: FiniteGroup, normal_masks
              ) -> list[tuple[FiniteGroup, np.ndarray]]:
    """The quotients G/N by the subgroups with the given masks, each as
    the action of G on the left cosets of N (its degree is the index
    [G : N]), with the projection map G -> G/N.

    One pass over the (k, n) membership matrix does every N together. Its
    member indices are padded with the identity to the largest order M,
    and one gather of ``mul`` takes the products x·h of each element x
    with the members h of each N, a block of elements at a time, so that
    each temporary stays within CHUNK_BYTES. Their minimum names x·N by
    its least element. N is a subgroup when it holds the identity and the
    products of its own members lie in it. It is normal when h·g lies in
    g·N for each member h and generator g: one gather of the labels.
    A mask that fails either test raises NotNormal.

    Cosets x·N are numbered by their least element, in index order: an
    element that labels its own coset leads it, and the running count of
    leaders numbers the cosets. Coset r's leader acts on the cosets as
    row r of ``coset_id[mul[reps, reps]]``; that row sends coset 0 (N
    itself) to coset r, so the rows are distinct, already sorted, and are
    the quotient's element table. The projection is therefore
    ``coset_id``.
    """
    if not normal_masks:
        return []
    n, mul = group.order, group.mul
    member = bool_rows(normal_masks, n)
    k = len(member)
    sizes = np.count_nonzero(member, axis=1)
    if not member[:, 0].all():
        raise NotNormal("quotient modulus is not a subgroup")
    width = int(sizes.max())
    # each row's members in index order, then the identity as padding
    idx = np.where(np.arange(width) < sizes[:, None],
                   np.argsort(~member, axis=1, kind="stable")[:, :width], 0)
    labels = np.empty((k, n), dtype=np.int64)
    closed = np.ones(k, dtype=bool)
    rows_of = np.arange(k)[None, :, None]
    # per (element, N, member): the product, its intp copy and its test
    for block in row_blocks(n, k * width * (mul.itemsize + 9), CHUNK_BYTES):
        products = mul[block][:, idx]
        labels[:, block] = products.min(axis=2).T
        held = member[rows_of, products].all(axis=2)
        closed &= (held | ~member[:, block].T).all(axis=0)
    if not closed.all():
        raise NotNormal("quotient modulus is not a subgroup")
    gens = group.generator_indices()
    # the label of h·g for each N, member h and generator g
    moved = labels[np.arange(k)[:, None, None], mul[idx[..., None], gens]]
    if not (moved == labels[:, None, gens]).all():
        raise NotNormal("quotient modulus is not normal")
    leads = labels == np.arange(n)
    coset_ids = np.take_along_axis(np.cumsum(leads, axis=1) - 1, labels, 1)
    out = []
    for coset_id, lead, size in zip(coset_ids, leads, sizes.tolist()):
        reps = np.flatnonzero(lead)
        if reps.size != n // size:
            raise RealizeError(
                f"quotient order {reps.size} != index {n // size}")
        rows = [tuple(r) for r in coset_id[mul[reps[:, None], reps]].tolist()]
        out.append((FiniteGroup([rows[coset_id[g]] for g in gens],
                                spec_label=f"{group.spec_label}/N[{size}]",
                                elements=rows), coset_id))
    return out
