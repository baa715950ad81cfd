import os
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupgraph import all_subgroups, analyze, realize
from groupgraph import groups, lattice
from groupgraph.bits import (CHUNK_BYTES, bool_array_from_mask, bool_rows,
                             iter_bits, rows_from_bool)
from groupgraph.cache import load_or_compute
from groupgraph.corpus import tier_allows
from groupgraph.errors import (CapExceeded, CriteriaDisagreement,
                               GroupGraphError)
from groupgraph.graphs import (build_graph, conjugation_vertex_map,
                               star_reduction)
from groupgraph.groups import FiniteGroup, is_abelian
from groupgraph.lattice import SubgroupLattice, _conjugacy_class, _zuppos
from groupgraph.perms import format_cycles, parse_cycles
import oracles
from oracles import (brute_force_subgroup_masks, closure_mask_by_cosets,
                     conjugacy_class_by_bits, conjugate_mask,
                     conjugate_mask_by_bits, conjugate_rows,
                     cyclic_extension_lattice,
                     inclusion_by_rows, is_subgroup_mask, normalizer,
                     normalizer_row_by_members,
                     pair_loop_mismatches,
                     perm_order, quotient_group, subgroup_generated,
                     sylow_subgroups)


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
    return lat.index_of[subgroup_generated(g, gens)]


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
    assert lat.order_of(normalizer(lat, s)) == 4
    for sid in range(lat.subgroup_count()):
        if lat.is_normal[sid]:
            assert normalizer(lat, sid) == lat.full_id
    _, lat3 = make("dihedral(3)")
    syl2 = sylow_subgroups(lat3, 2)[0]
    assert normalizer(lat3, syl2) == syl2   # self-normalizing


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
            assert rows_from_bool(conjugate_rows(group, members, g)) \
                == expected, entry.label
            assert [conjugate_mask(group, m, g) for m in masks] == expected
            assert conjugation_vertex_map(lat, g) == [
                lat.index_of[expected[sid]] - 1
                for sid in lat.nontrivial_proper_ids()], entry.label
        checked += 1
    assert checked == len(fast_report.labels)


def test_is_cyclic_subgroup_matches_the_element_orders_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    """A subgroup is cyclic when one of its members has its order; the
    orders here come from the permutations' cycle lengths."""
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat = load_or_compute(group, shared_cache)[0]
        orders = [perm_order(p) for p in group.elements]
        expected = [any(orders[i] == s.order for i in iter_bits(s.mask))
                    for s in lat.subgroups]
        assert [lat.is_cyclic_subgroup(sid)
                for sid in range(lat.subgroup_count())] == expected, \
            entry.label
        checked += 1
    assert checked == len(fast_report.labels)


def inclusion_mismatches(lat) -> list[str]:
    """The fields of ``lat`` that differ from the per-row construction."""
    words, supersets = inclusion_by_rows(lat)
    checks = {
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


@pytest.mark.parametrize("text", ["psl2(8)", "symmetric(6)", "psl2(13)"])
def test_inclusion_matches_the_per_row_loop(make, text):
    assert inclusion_mismatches(make(text)[1]) == []


@pytest.mark.skipif(not os.environ.get("GROUPGRAPH_LONG"),
                    reason="long tier: set GROUPGRAPH_LONG=1 to run it")
def test_inclusion_matches_the_per_row_loop_on_alternating_7(make):
    assert inclusion_mismatches(make("alternating(7)")[1]) == []


def rehinted(lat, sid: int, hint) -> list:
    """The subgroups of ``lat`` with subgroup ``sid``'s hint replaced."""
    subgroups = list(lat.subgroups)
    subgroups[sid] = lattice.Subgroup(lat.mask_of(sid), lat.order_of(sid),
                                      tuple(hint))
    return subgroups


@pytest.mark.parametrize("text", ["dihedral(4)", "symmetric(4)", "psl2(7)"])
def test_a_hint_that_does_not_generate_its_subgroup_raises(make, text):
    """Each subgroup's hint is checked by the lowest bit of its supersets:
    a hint cut down to a smaller subgroup, a hint of another subgroup of
    the same order, a hint outside the subgroup and an index outside the
    group all raise."""
    group, lat = make(text)
    SubgroupLattice(group, lat.subgroups, lat.conj_class_of)
    full = lat.subgroups[lat.full_id]
    twin = next(c for c in lat.conjugates(1) if c != 1) \
        if len(lat.conjugates(1)) > 1 else None
    outside = next(x for x in range(group.order) if not lat.mask_of(1) >> x & 1)
    cases = [(lat.full_id, full.gen_hint[:1]), (1, (outside,)),
             (1, lat.subgroups[1].gen_hint + (group.order,)),
             (0, (group.order + 5,))]
    if twin is not None:
        cases.append((1, lat.subgroups[twin].gen_hint))
    for sid, hint in cases:
        with pytest.raises(CriteriaDisagreement):
            SubgroupLattice(group, rehinted(lat, sid, hint),
                            lat.conj_class_of)


@pytest.mark.parametrize("text,count", [("symmetric(6)", 1455)])
def test_published_subgroup_counts(make, text, count):
    # OEIS A005432: the number of subgroups of S_n
    assert make(text)[1].subgroup_count() == count


@pytest.mark.skipif(not os.environ.get("GROUPGRAPH_LONG"),
                    reason="long tier: set GROUPGRAPH_LONG=1 to run it")
@pytest.mark.parametrize("text,count", [
    ("alternating(7)", 3786), ("symmetric(7)", 11300)])
def test_published_subgroup_counts_long(make, text, count):
    assert make(text)[1].subgroup_count() == count


def test_inclusion_is_chunk_size_independent(make, monkeypatch):
    """One row per chunk (the smallest bound) gives the same supersets."""
    group, lat = make("psl2(8)")
    monkeypatch.setattr(lattice, "CHUNK_BYTES", 1)
    assert inclusion_mismatches(
        SubgroupLattice(group, lat.subgroups, lat.conj_class_of)) == []


def test_lattice_construction_memory_stays_near_the_chunk_bound(make):
    """psl2(13) has 942 subgroups of 1,092 elements. Unblocked, the subset
    test of every pair would take 128 MB; blocked, the construction needs
    the membership matrix and the member words, plus a few chunk-sized
    temporaries. The matrix is not kept."""
    group, lat = make("psl2(13)")
    tracemalloc.start()
    try:
        built = SubgroupLattice(group, lat.subgroups, lat.conj_class_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    member_bytes = len(lat.subgroups) * group.order
    kept = built.member_words.nbytes
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


def relabeled(spec: str, sigma) -> FiniteGroup:
    """``spec`` with its points renamed by ``sigma``: each generator g
    becomes sigma g sigma^-1, as the benchmark's seeded inputs do."""
    images = []
    for g in realize(spec).generators:
        image = [0] * len(g)
        for i, j in enumerate(g):
            image[sigma[i]] = sigma[j]
        images.append(format_cycles(tuple(image)))
    return realize("raw(" + ", ".join(images) + ")")


def relabeling_invariants(group) -> tuple:
    """The subgroup count, the (order, size) of each class and the
    ``analyze`` reports of D and D*, universal vertices given by the orders
    of their subgroups: none of these depends on the names of the points."""
    lat = all_subgroups(group)
    difference = build_graph(lat, "difference")

    def report(graph):
        out = analyze(graph).to_json_dict()
        out["universal_vertices"] = sorted(
            lat.order_of(graph.vertices[v]) for v in out["universal_vertices"])
        return out

    return (lat.subgroup_count(),
            sorted((lat.order_of(ids[0]), len(ids)) for ids in lat.conj_classes),
            report(difference), report(star_reduction(difference)))


RELABELED_SPECS = ("psl2(7)", "symmetric(4)", "direct(dihedral(4), cyclic(3))")


@cache
def unrelabeled_invariants(spec: str) -> tuple:
    return relabeling_invariants(realize(spec))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(RELABELED_SPECS).flatmap(lambda spec: st.tuples(
    st.just(spec), st.permutations(range(realize(spec).degree)))))
def test_relabeling_the_points_keeps_the_lattice_and_the_reports(case):
    spec, sigma = case
    group = relabeled(spec, sigma)
    assert group.order == realize(spec).order
    assert relabeling_invariants(group) == unrelabeled_invariants(spec)


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


def closed_rows(monkeypatch, group):
    """The lattice of ``group`` and every row ``all_subgroups`` hands to
    ``closure_masks``, as (seeds, generators, subgroup, closure)."""
    rows = []
    real = FiniteGroup.closure_masks

    def spy(self, seeds, gens, subgroup=None):
        masks = real(self, seeds, gens, subgroup)
        rows.extend((tuple(s), tuple(g), subgroup, m)
                    for s, g, m in zip(seeds, gens, masks))
        return masks

    with monkeypatch.context() as patch:
        patch.setattr(FiniteGroup, "closure_masks", spy)
        lat = all_subgroups(group)
    return lat, rows


def closure_mismatches(group, rows) -> list[int]:
    """Positions of the rows whose closure differs from the per-join loop."""
    return [pos for pos, (seeds, gens, subgroup, mask) in enumerate(rows)
            if closure_mask_by_cosets(group, seeds, gens, subgroup) != mask]


# closures the unpruned cyclic extension runs: psl2(7) 580, symmetric(5)
# 510, psl2(8) 1277, elem_abelian(2,5) 2077 (abelian: every join is a
# product set now); one per N(H)-orbit: 91, 99, 147 and 0.
@pytest.mark.parametrize("text,closures", [
    ("psl2(7)", 66), ("symmetric(5)", 61), ("psl2(8)", 107),
    ("elem_abelian(2,5)", 0),
])
def test_closures_only_for_non_normalizing_orbit_representatives(
        monkeypatch, text, closures):
    group = realize(text)
    _, rows = closed_rows(monkeypatch, group)
    assert len(rows) == closures
    zgens, _, zpowers, zmembers, zuppo_of = _zuppos(group)
    for seeds, gens, subgroup, _ in rows:
        inside = np.zeros(group.order, dtype=bool)
        inside[subgroup] = True
        mask = rows_from_bool(inside[None])[0]
        z = gens[-1]
        number = int(zuppo_of[z])
        # the least generator of a zuppo outside H with z^p inside it
        assert zgens[number] == z and seeds == tuple(zmembers[number])
        assert not inside[z] and inside[zpowers[number]]
        assert conjugate_mask_by_bits(group, mask, z) != mask
        # the least zuppo of its N(H)-orbit
        normalizer = [g for g in range(group.order)
                      if conjugate_mask_by_bits(group, mask, g) == mask]
        assert zuppo_of[group.conj[normalizer, z]].min() == number
        # and the least such candidate of its right coset H·z: no smaller
        # one y has y·z^-1 in H
        smaller = [y for y in range(number)
                   if not inside[zgens[y]] and inside[zpowers[y]]
                   and zuppo_of[group.conj[normalizer, zgens[y]]].min() == y]
        assert not inside[group.mul[[zgens[y] for y in smaller],
                                    group.inv[z]]].any()


def test_closure_masks_match_the_per_join_loop_on_the_fast_tier(
        monkeypatch, corpus, fast_report):
    """Every closure of every fast-tier lattice against the loop that
    closes one join at a time; abelian groups close nothing."""
    checked = closures = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        _, rows = closed_rows(monkeypatch, group)
        assert closure_mismatches(group, rows) == [], entry.label
        assert not (rows and is_abelian(group)), entry.label
        closures += len(rows)
        checked += 1
    assert checked == len(fast_report.labels)
    assert closures == 917


@pytest.mark.parametrize("text", ["psl2(8)", "symmetric(6)"])
def test_closure_masks_match_the_per_join_loop(monkeypatch, text):
    group = realize(text)
    _, rows = closed_rows(monkeypatch, group)
    assert rows and closure_mismatches(group, rows) == []
    assert any(m == (1 << group.order) - 1 for *_, m in rows)
    assert any(m != (1 << group.order) - 1 for *_, m in rows)


def test_closure_masks_in_row_blocks(monkeypatch, make):
    """The largest batch of psl2(8) in blocks of three rows gives the
    closures of one block."""
    group, _ = make("psl2(8)")
    _, rows = closed_rows(monkeypatch, group)
    batches: dict[int, list] = {}
    for row in rows:
        batches.setdefault(id(row[2]), []).append(row)
    batch = max(batches.values(), key=len)
    seeds, gens = ([list(row[i]) for row in batch] for i in (0, 1))
    subgroup = batch[0][2]
    assert len(batch) > 3
    monkeypatch.setattr(groups, "CHUNK_BYTES", 3 * 8 * group.order)
    assert group.closure_masks(seeds, gens, subgroup) == [
        row[3] for row in batch]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_masks_match_the_per_join_loop_on_random_groups(data):
    """Random groups, a known subgroup H or none, and rows of H's
    generators plus the same number of extra ones each, seeded with some
    of the row's generators."""
    degree = data.draw(st.integers(2, 6))
    gens = data.draw(st.lists(st.permutations(range(degree)),
                              min_size=1, max_size=3))
    group = realize("raw(" + ", ".join(format_cycles(tuple(g)) for g in gens)
                    + ")")
    element = st.integers(0, group.order - 1)
    known = data.draw(st.lists(element, max_size=2))
    subgroup = None
    if known:
        subgroup = np.flatnonzero(bool_array_from_mask(
            closure_mask_by_cosets(group, known, known), group.order))
    width = data.draw(st.integers(1, 2))
    rows = data.draw(st.lists(st.lists(element, min_size=width,
                                       max_size=width),
                              min_size=1, max_size=6))
    rows = [known + extra for extra in rows]
    seeds = [data.draw(st.lists(st.sampled_from(row), max_size=3))
             for row in rows]
    expected = [closure_mask_by_cosets(group, s, r, subgroup)
                for s, r in zip(seeds, rows)]
    assert group.closure_masks(seeds, rows, subgroup) == expected
    assert [group.closure_mask(s, r, subgroup)
            for s, r in zip(seeds, rows)] == expected


def test_closure_mask_stops_at_the_full_group(make):
    group, _ = make("symmetric(4)")
    full = (1 << group.order) - 1
    gens = group.generator_indices()
    assert group.closure_mask([], gens) == full \
        == closure_mask_by_cosets(group, [], gens)
    assert group.closure_masks([[], gens[:1]], [gens, gens]) == [full, full]
    assert group.closure_masks([], []) == []


def test_normalizer_row_matches_the_per_element_loop(make):
    """N(H) from H's hint for every subgroup, against conjugating H by
    each element."""
    group, lat = make("symmetric(4)")
    members = bool_rows([s.mask for s in lat.subgroups], group.order)
    expected = [[conjugate_mask_by_bits(group, s.mask, g) == s.mask
                 for g in range(group.order)] for s in lat.subgroups]
    assert [group.normalizer_row(m, s.gen_hint).tolist()
            for m, s in zip(members, lat.subgroups)] == expected


def normalizer_mismatches(group, lat) -> list[int]:
    """Ids of the subgroups whose normalizer from the hint differs from
    the one from every member."""
    mismatches = []
    for sid, s in enumerate(lat.subgroups):
        member = bool_array_from_mask(s.mask, group.order)
        if not np.array_equal(group.normalizer_row(member, s.gen_hint),
                              normalizer_row_by_members(group, member)):
            mismatches.append(sid)
    return mismatches


def test_normalizer_row_matches_the_member_wide_gather_on_the_fast_tier(
        monkeypatch, make, corpus, fast_report):
    """Every subgroup of every fast-tier lattice; also with blocks of
    five rows for the member-wide gather."""
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if tier_allows("fast", group.order):
            assert normalizer_mismatches(group, all_subgroups(group)) == [], \
                entry.label
            checked += 1
    assert checked == len(fast_report.labels)
    group, lat = make("symmetric(4)")
    monkeypatch.setattr(oracles, "CHUNK_BYTES", 5 * group.order)
    assert normalizer_mismatches(group, lat) == []


@pytest.mark.parametrize("text", [
    "psl2(8)", "psl2(13)", "symmetric(6)",
    pytest.param("alternating(7)", marks=pytest.mark.skipif(
        not os.environ.get("GROUPGRAPH_LONG"),
        reason="long tier: set GROUPGRAPH_LONG=1 to run it"))])
def test_normalizer_row_matches_the_member_wide_gather(make, text):
    group, lat = make(text)
    assert normalizer_mismatches(group, lat) == []


@pytest.mark.parametrize("text", [
    "psl2(7)", "symmetric(5)", "psl2(8)", "alternating(6)"])
def test_class_walk_matches_the_per_bit_orbit(monkeypatch, make, text):
    """Each class representative's orbit, in order and with its hints,
    against conjugating one member at a time; also with row blocks of a
    few rows for the coset labels and the member rows."""
    group, lat = make(text)
    gens = group.generator_indices()
    reps = [lat.subgroups[ids[0]] for ids in lat.conj_classes]
    rows = [group.normalizer_row(bool_array_from_mask(s.mask, group.order),
                                 s.gen_hint) for s in reps]
    expected = [conjugacy_class_by_bits(group, gens, s) for s in reps]
    assert [_conjugacy_class(group, gens, s, row)
            for s, row in zip(reps, rows)] == expected
    monkeypatch.setattr(lattice, "CHUNK_BYTES", 3 * 3 * group.order)
    assert [_conjugacy_class(group, gens, s, row)
            for s, row in zip(reps, rows)] == expected


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
    assert all(is_subgroup_mask(g, s.mask) for s in lat.subgroups)
    assert all(subgroup_generated(g, s.gen_hint) == s.mask
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


@pytest.mark.parametrize("text", ["psl2(7)", "symmetric(5)", "dicyclic(6)"])
def test_one_normalizer_per_class_and_no_empty_join_batches(monkeypatch,
                                                            text):
    """Each class representative's normalizer is computed once, when its
    class is walked (the trivial group's is G), and shared with its own
    extension. No product-set or closure batch is empty."""
    group = realize(text)
    normalized, batches = [], []
    real_row = FiniteGroup.normalizer_row
    real_close = FiniteGroup.closure_masks
    real_products = lattice._product_sets

    def row_spy(self, member, generators):
        normalized.append(rows_from_bool(member[None])[0])
        return real_row(self, member, generators)

    def close_spy(self, seeds, gens, subgroup=None):
        batches.append(len(seeds))
        return real_close(self, seeds, gens, subgroup)

    def products_spy(group, inside, zuppos, *args):
        batches.append(zuppos.size)
        return real_products(group, inside, zuppos, *args)

    with monkeypatch.context() as patch:
        patch.setattr(FiniteGroup, "normalizer_row", row_spy)
        patch.setattr(FiniteGroup, "closure_masks", close_spy)
        patch.setattr(lattice, "_product_sets", products_spy)
        lat = all_subgroups(group)
    # one subgroup of each class but the trivial group's
    classes = [lat.conj_class_of[lat.index_of[mask]] for mask in normalized]
    assert sorted(classes) == list(range(1, len(lat.conj_classes)))
    assert batches and 0 not in batches
