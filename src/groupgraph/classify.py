"""Group-theoretic predicates: abelian, Dedekind, Iwasawa, nilpotent,
solvable, supersolvable, simple, p-group.

The hard predicates (nilpotent, supersolvable) are each decided by two
independent characterizations that must agree; a disagreement raises
rather than returning a guess, since it means the lattice is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import bool_array_from_mask
from .errors import CriteriaDisagreement, GroupGraphError
from .groups import FiniteGroup, is_abelian
from .lattice import SubgroupLattice
from .primes import factorize, is_prime


@dataclass
class GroupClassification:
    abelian: bool
    p_group: int | None
    dedekind: bool
    iwasawa: bool
    nilpotent: bool
    solvable: bool
    supersolvable: bool
    simple: bool
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "abelian": self.abelian,
            "dedekind": self.dedekind,
            "iwasawa": self.iwasawa,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
            "supersolvable": self.supersolvable,
            "simple": self.simple,
            "p_group": self.p_group if self.p_group is not None else False,
        }


def p_group_prime(group: FiniteGroup) -> int | None:
    factors = factorize(group.order)
    return next(iter(factors)) if len(factors) == 1 else None


def is_dedekind(group: FiniteGroup, lat: SubgroupLattice) -> bool:
    return all(lat.is_normal)


def _iwasawa_witness(lat: SubgroupLattice) -> tuple[int, int] | None:
    n = lat.subgroup_count()
    for h in range(n):
        for k in range(h + 1, n):
            if not lat.is_permutable_pair(h, k):
                return (h, k)
    return None


def is_nilpotent(group: FiniteGroup, lat: SubgroupLattice) -> bool:
    sylow_normal = all(len(ids) == 1 and lat.is_normal[ids[0]]
                       for ids in lat.sylow_index.values())
    maximal_normal = all(lat.is_normal[m] for m in lat.maximal_subgroups())
    if sylow_normal != maximal_normal:
        raise CriteriaDisagreement(
            f"{group.spec_label}: Sylow-normality says nilpotent={sylow_normal} "
            f"but maximal-normality says {maximal_normal}")
    return sylow_normal


def derived_subgroup(group: FiniteGroup, gens) -> tuple[int, list[int]]:
    """The commutator subgroup H' of H = <gens> (element indices), and the
    element indices it was closed from.

    H' is the normal closure in H of the commutators x^-1 y^-1 x y of H's
    generators (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005). The commutators are closed, then the conjugates of
    the elements used by H's generators that fall outside the closure are
    added and the closure is grown over it, until none falls outside. No
    |H| x |H| table is built.
    """
    gens = np.asarray(gens, dtype=np.int64)
    mul, inv = group.mul, group.inv
    x, y = gens[:, None], gens[None, :]
    # the distinct elements found, told apart by a scatter over elements
    found = np.zeros(group.order, dtype=bool)
    found[mul[mul[mul[inv[x], inv[y]], x], y]] = True
    found[0] = False  # the identity
    used = np.flatnonzero(found)
    if not used.size:
        return 1, []
    mask = group.closure_mask(used, used)
    while True:
        member = bool_array_from_mask(mask, group.order)
        found[group.conj[np.ix_(gens, used)]] = True
        outside = np.flatnonzero(found & ~member)
        if not outside.size:
            return mask, used.tolist()
        used = np.concatenate((used, outside))
        mask = group.closure_mask(outside, used, np.flatnonzero(member))


def derived_series_orders(group: FiniteGroup) -> list[int]:
    """The orders down the derived series; each term's generators are the
    elements its derived subgroup was closed from."""
    mask, gens = (1 << group.order) - 1, group.generator_indices()
    orders = [group.order]
    while True:
        nxt, gens = derived_subgroup(group, gens)
        if nxt == mask:
            return orders
        mask = nxt
        orders.append(mask.bit_count())
        if mask == 1:
            return orders


def _prime_chain_to_full(lat: SubgroupLattice) -> list[int] | None:
    """A chain of subgroups, each normal in G, with prime indices between
    consecutive entries, from the trivial subgroup to G. None if there is
    no such chain.

    A normal series with cyclic factors refines to one with prime-index
    steps (subgroups of a cyclic quotient are characteristic, so their
    preimages are again normal in G), so this decides supersolvability.
    """
    normals = [i for i in range(lat.subgroup_count()) if lat.is_normal[i]]
    normals.sort(key=lambda i: lat.order_of(i))
    parent: dict[int, int] = {lat.trivial_id: -1}
    by_order: dict[int, list[int]] = {}
    for i in normals:
        by_order.setdefault(lat.order_of(i), []).append(i)
    for i in normals:
        if i in parent:
            continue
        o = lat.order_of(i)
        for q in factorize(o):
            below = o // q
            for m in by_order.get(below, ()):
                if m in parent and lat.supersets[m] >> i & 1:
                    parent[i] = m
                    break
            if i in parent:
                break
    if lat.full_id not in parent:
        return None
    chain = [lat.full_id]
    while chain[-1] != lat.trivial_id:
        chain.append(parent[chain[-1]])
    return list(reversed(chain))


def _verify_cyclic_factors(lat: SubgroupLattice, chain: list[int]) -> None:
    """Check each factor above/below of a chain is cyclic, on G's tables.

    ``below`` must lie in ``above``, be normalized by ``above``'s
    generators, and some element of ``above`` outside it must have order
    exactly the index |above : below| modulo ``below``. A generator g of
    ``above`` normalizes ``below`` exactly when it conjugates each of
    ``below``'s hint generators into ``below``, as conjugation by g is an
    automorphism: one gather of ``conj`` at the two hints.
    """
    group = lat.group
    for below, above in zip(chain, chain[1:]):
        below_mask, above_mask = lat.mask_of(below), lat.mask_of(above)
        if below_mask & ~above_mask:
            raise GroupGraphError(
                "normal chain step is not a subgroup of the next one; "
                "chain search is broken")
        in_below = bool_array_from_mask(below_mask, group.order)
        conjugates = group.conj[np.ix_(lat.subgroups[above].gen_hint,
                                       lat.subgroups[below].gen_hint)]
        if not in_below[conjugates].all():
            raise GroupGraphError(
                "normal chain step is not normal in the next one; "
                "chain search is broken")
        index = lat.order_of(above) // lat.order_of(below)
        outside = np.flatnonzero(
            bool_array_from_mask(above_mask & ~below_mask, group.order))
        power = outside
        # an element's order modulo below is its least k with x^k in below
        reached = np.zeros(outside.size, dtype=bool)
        for _ in range(index - 1):
            reached |= in_below[power]
            power = group.mul[power, outside]
        if not (in_below[power] & ~reached).any():
            raise GroupGraphError(
                "normal chain factor is not cyclic; chain search is broken")


def is_supersolvable(group: FiniteGroup, lat: SubgroupLattice) -> bool:
    """Primary: every maximal subgroup has prime index (Huppert's criterion
    for finite groups). Cross-check: a G-normal chain with cyclic factors."""
    order = group.order
    huppert = all(is_prime(order // lat.order_of(m))
                  for m in lat.maximal_subgroups())
    chain = _prime_chain_to_full(lat)
    if chain is not None:
        _verify_cyclic_factors(lat, chain)
    if huppert != (chain is not None):
        raise CriteriaDisagreement(
            f"{group.spec_label}: Huppert says supersolvable={huppert} but the "
            f"normal-cyclic-chain search says {chain is not None}")
    return huppert


def is_simple(group: FiniteGroup, lat: SubgroupLattice) -> bool:
    """No normal subgroup strictly between the trivial one and G. The
    trivial group itself does not count as simple."""
    if group.order == 1:
        return False
    return not any(
        lat.is_normal[i] for i in lat.nontrivial_proper_ids())


def classify(group: FiniteGroup, lat: SubgroupLattice) -> GroupClassification:
    witnesses: dict = {}
    abelian = is_abelian(group)
    p = p_group_prime(group)
    dedekind = is_dedekind(group, lat)
    iwasawa = True
    if not dedekind:
        witnesses["non_normal_subgroup"] = next(
            i for i, flag in enumerate(lat.is_normal) if not flag)
        pair = _iwasawa_witness(lat)
        iwasawa = pair is None
        if pair:
            witnesses["non_permutable_pair"] = pair
    nilpotent = is_nilpotent(group, lat)
    if not nilpotent:
        witnesses["non_normal_sylow"] = next(
            ids[0] for ids in lat.sylow_index.values()
            if not (len(ids) == 1 and lat.is_normal[ids[0]]))
    series = derived_series_orders(group)
    solvable = series[-1] == 1
    witnesses["derived_series_orders"] = tuple(series)
    supersolvable = is_supersolvable(group, lat)
    if not supersolvable:
        witnesses["non_prime_index_maximal"] = next(
            m for m in lat.maximal_subgroups()
            if not is_prime(group.order // lat.order_of(m)))
    simple = is_simple(group, lat)
    result = GroupClassification(
        abelian=abelian, p_group=p, dedekind=dedekind, iwasawa=iwasawa,
        nilpotent=nilpotent, solvable=solvable, supersolvable=supersolvable,
        simple=simple, witnesses=witnesses)
    _assert_implications(group, result)
    return result


def _assert_implications(group: FiniteGroup, c: GroupClassification) -> None:
    chain = [
        (c.abelian, c.dedekind, "abelian => dedekind"),
        (c.dedekind, c.iwasawa, "dedekind => iwasawa"),
        (c.abelian, c.nilpotent, "abelian => nilpotent"),
        (c.nilpotent, c.supersolvable, "nilpotent => supersolvable"),
        (c.supersolvable, c.solvable, "supersolvable => solvable"),
        (c.p_group is not None, c.nilpotent, "p-group => nilpotent"),
    ]
    for premise, conclusion, name in chain:
        if premise and not conclusion:
            raise GroupGraphError(
                f"{group.spec_label}: classification violates {name}")
