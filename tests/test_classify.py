import tracemalloc

import pytest

from groupgraph import classify, graphs, realize
from groupgraph.bits import bool_array_from_mask
from groupgraph.cache import load_or_compute
from groupgraph.classify import (_verify_cyclic_factors,
                                 derived_series_orders, is_abelian,
                                 is_dedekind, is_nilpotent, is_simple,
                                 is_supersolvable)
from groupgraph.corpus import tier_allows
from groupgraph.errors import GroupGraphError
from oracles import (commutator_table_derived_mask, derived_subgroup_mask,
                     is_iwasawa, is_solvable, normalizes)


@pytest.mark.parametrize("text,expected", [
    ("cyclic(6)", True), ("dihedral(3)", False), ("dicyclic(2)", False),
])
def test_is_abelian(make, text, expected):
    g, _ = make(text)
    assert is_abelian(g) == expected


@pytest.mark.parametrize("text,expected", [
    ("dicyclic(2)", True), ("dihedral(4)", False), ("cyclic(30)", True),
    ("elem_abelian(2,3)", True),
])
def test_is_dedekind(make, text, expected):
    g, lat = make(text)
    assert is_dedekind(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("dicyclic(2)", True),
    ("direct(cyclic(4), dicyclic(2))", False),   # the classic non-Iwasawa case
    ("dihedral(3)", False),
])
def test_is_iwasawa(make, text, expected):
    g, lat = make(text)
    assert is_iwasawa(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("dihedral(4)", True), ("dihedral(3)", False),
    ("direct(cyclic(4), dicyclic(2))", True),
])
def test_is_nilpotent(make, text, expected):
    g, lat = make(text)
    assert is_nilpotent(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("symmetric(4)", True), ("alternating(5)", False), ("dicyclic(4)", True),
    ("elem_abelian(3,3)", True), ("psl2(7)", False),
])
def test_is_solvable(make, text, expected):
    g, lat = make(text)
    assert is_solvable(g, lat) == expected


def test_derived_subgroup_matches_the_commutator_table_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    """The derived subgroup of every subgroup of every fast-tier lattice."""
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        for s in load_or_compute(group, shared_cache)[0].subgroups:
            assert derived_subgroup_mask(group, s.mask, s.gen_hint) \
                == commutator_table_derived_mask(group, s.mask), entry.label
        checked += 1
    assert checked == len(fast_report.labels)


def test_derived_subgroup_memory_stays_near_the_chunk_bound():
    """psl2(8) is perfect, and its 504² commutators as whole tables of
    products peak at 1.15 MB."""
    group = realize("psl2(8)")
    group.mul, group.inv
    tracemalloc.start()
    try:
        derived = derived_subgroup_mask(group, (1 << group.order) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert derived == (1 << group.order) - 1
    assert peak <= 4 * graphs.CHUNK_BYTES


def test_derived_series_of_s4():
    from groupgraph import realize
    assert derived_series_orders(realize("symmetric(4)")) == [24, 12, 4, 1]
    assert derived_series_orders(realize("alternating(5)")) == [60]


@pytest.mark.parametrize("text,expected", [
    ("dihedral(3)", True), ("alternating(4)", False), ("symmetric(4)", False),
    ("dihedral(6)", True), ("semidirect(cyclic(5), cyclic(8), z5_by_doubling)", True),
])
def test_is_supersolvable(make, text, expected):
    g, lat = make(text)
    assert is_supersolvable(g, lat) == expected


@pytest.mark.parametrize("text,expected", [
    ("alternating(5)", True), ("cyclic(7)", True), ("symmetric(4)", False),
    ("psl2(7)", True), ("cyclic(1)", False), ("cyclic(4)", False),
])
def test_is_simple(make, text, expected):
    g, lat = make(text)
    assert is_simple(g, lat) == expected


@pytest.mark.parametrize("text", [
    "cyclic(16)", "dihedral(5)", "dicyclic(2)", "symmetric(4)",
    "alternating(4)", "alternating(5)", "direct(cyclic(4), dicyclic(2))",
    "semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)",
    "semidirect(elem_abelian(2,3), elem_abelian(2,2), gap3249)",
    "psl2(5)",
])
def test_implication_chain_holds(make, text):
    g, lat = make(text)
    c = classify(g, lat)   # classify() itself asserts the chain
    assert c.dedekind == is_dedekind(g, lat)
    assert c.iwasawa == is_iwasawa(g, lat)
    if c.abelian:
        assert c.dedekind and c.nilpotent
    if c.dedekind:
        assert c.iwasawa
    if c.nilpotent:
        assert c.supersolvable
    if c.supersolvable:
        assert c.solvable
    if c.p_group is not None:
        assert c.nilpotent


def test_p_group_detection(make):
    g, lat = make("dicyclic(4)")
    assert classify(g, lat).p_group == 2
    g, lat = make("cyclic(6)")
    assert classify(g, lat).p_group is None


def test_witnesses_present(make):
    g, lat = make("dihedral(3)")
    c = classify(g, lat)
    assert "non_normal_subgroup" in c.witnesses
    assert "non_normal_sylow" in c.witnesses
    assert "non_permutable_pair" in c.witnesses
    assert c.witnesses["derived_series_orders"] == (6, 3, 1)


def test_json_keys(make):
    g, lat = make("cyclic(6)")
    keys = set(classify(g, lat).to_json_dict())
    assert keys == {"abelian", "dedekind", "iwasawa", "nilpotent", "solvable",
                    "supersolvable", "simple", "p_group"}


def _ids_of_order(lat, order):
    return [i for i in range(lat.subgroup_count()) if lat.order_of(i) == order]


def test_cyclic_factor_check_passes_a_cyclic_chain(make):
    _, lat = make("cyclic(8)")
    chain = [_ids_of_order(lat, k)[0] for k in (1, 2, 4, 8)]
    _verify_cyclic_factors(lat, chain)


def test_cyclic_factor_check_rejects_a_klein_four_factor(make):
    _, lat = make("elem_abelian(2,2)")
    with pytest.raises(GroupGraphError, match="not cyclic"):
        _verify_cyclic_factors(lat, [lat.trivial_id, lat.full_id])


def test_cyclic_factor_check_rejects_a_non_normal_step(make):
    _, lat = make("dihedral(3)")   # a Z2 in S3, index 3
    z2 = _ids_of_order(lat, 2)[0]
    with pytest.raises(GroupGraphError, match="not normal"):
        _verify_cyclic_factors(lat, [z2, lat.full_id])


@pytest.mark.parametrize("text", ["symmetric(4)", "dihedral(6)",
                                  "alternating(5)"])
def test_cyclic_factor_check_tests_normality_as_the_member_wide_gather(
        make, text):
    """Every step below < above of the lattice is rejected as not normal
    exactly when conjugation by above's hint does not map every member of
    below into below."""
    g, lat = make(text)
    rejected = 0
    for above, s in enumerate(lat.subgroups):
        for below in range(above):
            if lat.mask_of(below) & ~s.mask:
                continue
            member = bool_array_from_mask(lat.mask_of(below), g.order)
            normal = normalizes(g, list(s.gen_hint), member)
            try:
                _verify_cyclic_factors(lat, [below, above])
            except GroupGraphError as exc:
                assert normal == ("not normal" not in str(exc))
                rejected += not normal
            else:
                assert normal
    assert rejected


def test_cyclic_factor_check_rejects_a_step_outside_the_next(make):
    _, lat = make("direct(cyclic(4), cyclic(2))")
    above = next(i for i in _ids_of_order(lat, 4) if lat.is_cyclic_subgroup(i))
    below = next(i for i in _ids_of_order(lat, 2)
                 if lat.mask_of(i) & ~lat.mask_of(above))
    with pytest.raises(GroupGraphError, match="not a subgroup"):
        _verify_cyclic_factors(lat, [lat.trivial_id, below, above,
                                     lat.full_id])


def test_classify_agrees_with_sympy_on_the_fast_tier(corpus, fast_report,
                                                     shared_cache):
    """Order, abelian, nilpotent, solvable and the derived series against
    sympy's permutation groups; lattices come from the fast-tier cache."""
    from sympy.combinatorics import Permutation, PermutationGroup
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        c = classify(group, load_or_compute(group, shared_cache)[0])
        ref = PermutationGroup([Permutation(list(g)) for g in group.generators])
        assert ref.order() == group.order, entry.label
        assert (c.abelian, c.nilpotent, c.solvable) == (
            ref.is_abelian, ref.is_nilpotent, ref.is_solvable), entry.label
        assert list(c.witnesses["derived_series_orders"]) == [
            h.order() for h in ref.derived_series()], entry.label
        checked += 1
    assert checked == len(fast_report.labels)
