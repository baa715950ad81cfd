import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupgraph import all_subgroups, realize
from groupgraph.bits import CHUNK_BYTES, bool_rows, rows_from_bool
from groupgraph.cache import load_or_compute
from groupgraph.corpus import tier_allows
from groupgraph.errors import CapExceeded, GroupGraphError
from groupgraph.graphs import conjugation_vertex_map
from groupgraph.groups import FiniteGroup, quotient_group
from groupgraph.lattice import SubgroupLattice
from groupgraph.perms import format_cycles, parse_cycles
from oracles import (brute_force_subgroup_masks, conjugate_mask,
                     conjugate_mask_by_bits, cyclic_extension_lattice,
                     inclusion_by_rows, pair_loop_mismatches, sylow_subgroups)


@pytest.mark.parametrize("text,count", [
    ("symmetric(4)", 30),       # Sub(S4) = 30
    ("dicyclic(2)", 6),         # Sub(Q8) = 6
    ("alternating(5)", 59),     # 57 nontrivial proper subgroups
    ("dihedral(4)", 10),
    ("alternating(4)", 10),
    ("cyclic(12)", 6),
    ("elem_abelian(3,2)", 6),
])
def test_subgroup_counts(make, text, count):
    _, lat = make(text)
    assert lat.subgroup_count() == count


def test_a5_has_57_nontrivial_proper(make):
    _, lat = make("alternating(5)")
    assert len(lat.nontrivial_proper_ids()) == 57


def test_lagrange(make):
    for text in ["symmetric(4)", "dicyclic(3)", "psl2(5)"]:
        g, lat = make(text)
        assert all(g.order % s.order == 0 for s in lat.subgroups)


def _id_of(lat, *cycle_texts):
    g = lat.group
    gens = [g.element_index[parse_cycles(t, g.degree)] for t in cycle_texts]
    return lat.index_of[g.subgroup_generated(gens)]


def test_join_examples_in_d4(make):
    g, lat = make("dihedral(4)")
    s = _id_of(lat, "(1 3)")       # reflection fixing 0 and 2
    rs = _id_of(lat, "(0 1)(2 3)")
    assert lat.order_of(lat.join(s, rs)) == 8
    assert lat.join(s, s) == s
    assert lat.join(s, lat.trivial_id) == s
    assert lat.product_size(s, rs) == 4
    assert lat.product_size(s, s) == lat.order_of(s)


def test_product_size_v4_z3_in_a4(make):
    _, lat = make("alternating(4)")
    v4 = sylow_subgroups(lat, 2)[0]
    z3 = sylow_subgroups(lat, 3)[0]
    assert lat.product_size(v4, z3) == 12


def test_product_size_symmetric(make):
    _, lat = make("symmetric(4)")
    n = lat.subgroup_count()
    for h in range(0, n, 5):
        for k in range(0, n, 7):
            assert lat.product_size(h, k) == lat.product_size(k, h)


def test_normalizer_examples(make):
    _, lat = make("dihedral(4)")
    s = _id_of(lat, "(1 3)")
    assert lat.order_of(lat.normalizer(s)) == 4
    for sid in range(lat.subgroup_count()):
        if lat.is_normal[sid]:
            assert lat.normalizer(sid) == lat.full_id
    _, lat3 = make("dihedral(3)")
    syl2 = sylow_subgroups(lat3, 2)[0]
    assert lat3.normalizer(syl2) == syl2   # self-normalizing


def test_conjugates(make):
    _, lat = make("dihedral(4)")
    s = _id_of(lat, "(1 3)")
    assert len(lat.conjugates(s)) == 2
    for sid in range(lat.subgroup_count()):
        if lat.is_normal[sid]:
            assert lat.conjugates(sid) == (sid,)
    _, lat3 = make("dihedral(3)")
    assert len(lat3.conjugates(sylow_subgroups(lat3, 2)[0])) == 3


def test_maximal_subgroups(make):
    _, a4 = make("alternating(4)")
    assert sorted(a4.order_of(m) for m in a4.maximal_subgroups()) == [3, 3, 3, 3, 4]
    _, z9 = make("cyclic(9)")
    assert [z9.order_of(m) for m in z9.maximal_subgroups()] == [3]
    _, d4 = make("dihedral(4)")
    assert [d4.order_of(m) for m in d4.maximal_subgroups()] == [4, 4, 4]


def test_sylow(make):
    _, s3 = make("dihedral(3)")
    assert len(sylow_subgroups(s3, 2)) == 3
    _, z12 = make("cyclic(12)")
    (syl,) = sylow_subgroups(z12, 2)
    assert z12.order_of(syl) == 4
    _, a4 = make("alternating(4)")
    assert len(sylow_subgroups(a4, 2)) == 1
    with pytest.raises(GroupGraphError):
        sylow_subgroups(s3, 5)


def test_sylow_counting_theorem(make):
    for text in ["symmetric(4)", "alternating(5)", "dicyclic(3)", "psl2(5)"]:
        g, lat = make(text)
        for p, ids in lat.sylow_index.items():
            assert len(ids) % p == 1
            classes = {lat.conj_class_of[i] for i in ids}
            assert len(classes) == 1  # all conjugate


def test_frattini(make):
    _, q8 = make("dicyclic(2)")
    assert q8.order_of(q8.frattini()) == 2
    _, ea = make("elem_abelian(3,2)")
    assert ea.frattini() == ea.trivial_id
    _, z9 = make("cyclic(9)")
    assert z9.order_of(z9.frattini()) == 3


def test_conjugation_permutes_lattice(make):
    g, lat = make("symmetric(4)")
    masks = {s.mask for s in lat.subgroups}
    for e in range(0, g.order, 3):
        images = {conjugate_mask(g, s.mask, e) for s in lat.subgroups}
        assert images == masks
    # and preserves inclusion
    for e in (1, 5, 11):
        mapped = [lat.index_of[conjugate_mask(g, s.mask, e)]
                  for s in lat.subgroups]
        for i in range(lat.subgroup_count()):
            for j in range(lat.subgroup_count()):
                inc = lat.supersets[i] >> j & 1
                inc_img = lat.supersets[mapped[i]] >> mapped[j] & 1
                assert inc == inc_img


def test_conjugation_pull_back_matches_the_per_bit_loop_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    """Every subgroup of every fast-tier lattice, read from the cache the
    fast-tier report filled, conjugated by every generator: the pull-back
    rows, ``conjugate_mask`` and the vertex map of T-2.2c against the
    loop over members."""
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat = load_or_compute(group, shared_cache)[0]
        masks = [s.mask for s in lat.subgroups]
        members = bool_rows(masks, group.order)
        for g in group.generator_indices():
            expected = [conjugate_mask_by_bits(group, m, g) for m in masks]
            assert rows_from_bool(group.conjugate_rows(members, g)) \
                == expected, entry.label
            assert [conjugate_mask(group, m, g) for m in masks] == expected
            assert conjugation_vertex_map(lat, g) == [
                lat.index_of[expected[sid]] - 1
                for sid in lat.nontrivial_proper_ids()], entry.label
        checked += 1
    assert checked == len(fast_report.labels)


def inclusion_mismatches(lat) -> list[str]:
    """The fields of ``lat`` that differ from the per-row construction."""
    members, words, supersets = inclusion_by_rows(lat)
    checks = {
        "_members": len(lat._members) == len(members) and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(lat._members, members)),
        "member_words": lat.member_words.dtype == words.dtype
        and np.array_equal(lat.member_words, words),
        "supersets": lat.supersets == supersets,
    }
    return [name for name, ok in checks.items() if not ok]


def test_inclusion_matches_the_per_row_loop_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat = load_or_compute(group, shared_cache)[0]
        assert inclusion_mismatches(lat) == [], entry.label
        checked += 1
    assert checked == len(fast_report.labels)


@pytest.mark.parametrize("text", ["psl2(8)", "symmetric(6)"])
def test_inclusion_matches_the_per_row_loop(make, text):
    assert inclusion_mismatches(make(text)[1]) == []


def test_lattice_construction_memory_stays_near_the_chunk_bound(make):
    """psl2(13) has 942 subgroups of 1,092 elements. Unblocked, the subset
    test of every pair would take 128 MB; blocked, the construction needs
    the membership matrix, the member words and the member indices, plus
    a few chunk-sized temporaries. The matrix is not kept."""
    group, lat = make("psl2(13)")
    tracemalloc.start()
    try:
        built = SubgroupLattice(group, lat.subgroups, lat.conj_class_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    member_bytes = len(lat.subgroups) * group.order
    kept = built.member_words.nbytes + sum(m.nbytes for m in built._members)
    assert peak <= member_bytes + kept + 4 * CHUNK_BYTES
    assert not any(isinstance(value, np.ndarray) and value.dtype == bool
                   for value in vars(built).values())
    assert inclusion_mismatches(built) == []


@pytest.mark.parametrize("text", [
    "cyclic(24)", "dihedral(12)", "dicyclic(6)", "elem_abelian(2,4)",
    "symmetric(4)", "alternating(4)", "direct(dihedral(3), cyclic(2))",
    "dicyclic(2)",
])
def test_completeness_against_brute_force(make, text):
    g, lat = make(text)
    assert {s.mask for s in lat.subgroups} == brute_force_subgroup_masks(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.lists(
    st.permutations(range(d)), min_size=1, max_size=3)))
def test_random_small_group_matches_brute_force(gens):
    group = realize("raw(" + ", ".join(format_cycles(tuple(g)) for g in gens)
                    + ")")
    assume(group.order <= 24)
    lat = all_subgroups(group)
    assert {s.mask for s in lat.subgroups} == brute_force_subgroup_masks(group)
    assert lattice_outputs(lat) == cyclic_extension_lattice(group)
    assert pair_loop_mismatches(lat) == []


def lattice_outputs(lat):
    """What the unpruned cyclic extension oracle returns, read off a lattice."""
    return ([(s.mask, s.order, s.gen_hint) for s in lat.subgroups],
            lat.conj_class_of)


@pytest.mark.parametrize("text", [
    "psl2(7)", "symmetric(5)", "psl2(8)", "elem_abelian(2,5)"])
def test_matches_the_unpruned_cyclic_extension(make, text):
    group, lat = make(text)
    assert lattice_outputs(lat) == cyclic_extension_lattice(group)


def test_matches_the_unpruned_cyclic_extension_on_the_mini_corpus(
        mini_corpus):
    for entry in mini_corpus:
        group = realize(entry.spec)
        assert lattice_outputs(all_subgroups(group)) \
            == cyclic_extension_lattice(group), entry.label


# closures the unpruned cyclic extension runs: psl2(7) 580, symmetric(5)
# 510, psl2(8) 1277, elem_abelian(2,5) 2077 (abelian: every join is a
# product set now)
@pytest.mark.parametrize("text,closures", [
    ("psl2(7)", 76), ("symmetric(5)", 86), ("psl2(8)", 144),
    ("elem_abelian(2,5)", 0),
])
def test_closures_only_for_non_normalizing_orbit_representatives(
        monkeypatch, text, closures):
    calls = []
    real = FiniteGroup.closure_mask

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    group = realize(text)
    monkeypatch.setattr(FiniteGroup, "closure_mask", spy)
    all_subgroups(group)
    assert len(calls) == closures


@pytest.mark.parametrize("text,subgroups,classes", [
    ("psl2(7)", 179, 15),
    ("symmetric(5)", 156, 19),
    ("psl2(8)", 386, 12),
    ("elem_abelian(2,5)", 374, 374),
])
def test_counts_masks_and_classes(make, text, subgroups, classes):
    g, lat = make(text)
    assert lat.subgroup_count() == subgroups
    assert len(lat.conj_classes) == classes
    assert all(g.is_subgroup_mask(s.mask) for s in lat.subgroups)
    assert all(g.subgroup_generated(s.gen_hint) == s.mask
               for s in lat.subgroups)
    for members in lat.conj_classes:
        masks = {lat.mask_of(i) for i in members}
        for x in g.generator_indices():
            assert {conjugate_mask(g, m, x) for m in masks} == masks


def test_quotient_orders_for_all_normals(make):
    for text in ["symmetric(4)", "dihedral(4)", "cyclic(12)", "alternating(4)"]:
        g, lat = make(text)
        for sid in range(lat.subgroup_count()):
            if lat.is_normal[sid] and sid != lat.full_id:
                q = quotient_group(g, lat.mask_of(sid))
                assert q.order == g.order // lat.order_of(sid)


def test_subgroup_cap():
    g = realize("elem_abelian(2,5)")
    with pytest.raises(CapExceeded):
        all_subgroups(g, subgroup_cap=100)


def test_canonical_ordering_is_stable(make):
    g = realize("dihedral(6)")
    a = all_subgroups(g)
    b = all_subgroups(g)
    assert [(s.order, s.mask, s.gen_hint) for s in a.subgroups] == \
        [(s.order, s.mask, s.gen_hint) for s in b.subgroups]
    orders = [s.order for s in a.subgroups]
    assert orders == sorted(orders)
