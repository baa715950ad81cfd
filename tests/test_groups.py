import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraph import (FiniteGroup, all_subgroups, enumerate_elements,
                        realize, stabilizer_chain_order)
from groupgraph.bits import CHUNK_BYTES, row_blocks
from groupgraph.cache import load_or_compute
from groupgraph.corpus import tier_allows
from groupgraph.errors import CapExceeded, NotNormal, RealizeError
from groupgraph.groups import TableError, quotients, subgroup_group
from groupgraph.harness import (QUOTIENT_EMBED_MAX_COUNT,
                                QUOTIENT_EMBED_MAX_INDEX)
from groupgraph.perms import compose, format_cycles, identity, parse_cycles
from oracles import (composed_mul, is_normal_mask, is_subgroup_mask,
                     left_coset_reps, per_element_tables,
                     quotient_by_one_subgroup, quotient_differences,
                     quotient_group, quotient_with_projection,
                     shrink_generators)


def test_enumerate_identity_only():
    assert enumerate_elements([identity(4)]) == (identity(4),)


def test_enumerate_s3():
    gens = [parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)]
    assert len(enumerate_elements(gens)) == 6


def test_enumerate_a5():
    a5 = realize("alternating(5)")
    assert len(enumerate_elements(a5.generators)) == 60


def test_enumerate_cap():
    a5 = realize("alternating(5)")
    with pytest.raises(CapExceeded):
        enumerate_elements(a5.generators, order_cap=59)


def test_element_table_sorted_and_indexed():
    g = realize("dihedral(5)")
    assert list(g.elements) == sorted(g.elements)
    assert all(g.element_index[p] == i for i, p in enumerate(g.elements))


def test_table_closed_under_products():
    g = realize("symmetric(4)")
    rng = random.Random(20240817)
    members = set(g.elements)
    for _ in range(1000):
        x, y = rng.choice(g.elements), rng.choice(g.elements)
        assert compose(x, y) in members


@pytest.mark.parametrize("text,order", [
    ("symmetric(4)", 24), ("psl2(7)", 168), ("cyclic(1)", 1),
    ("dicyclic(4)", 16), ("alternating(5)", 60),
])
def test_stabilizer_chain_order(text, order):
    g = realize(text)
    assert stabilizer_chain_order(g.generators) == order == g.order


def sympy_order(generators) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup
    return PermutationGroup([Permutation(list(g)) for g in generators]).order()


def test_stabilizer_chain_order_matches_sympy(corpus):
    """Every manifest spec and four groups beyond the fast tier."""
    specs = [entry.spec for entry in corpus]
    specs += ["psl2(8)", "psl2(11)", "symmetric(6)", "alternating(6)"]
    for spec in specs:
        generators = realize(spec).generators
        assert stabilizer_chain_order(generators) == sympy_order(generators), \
            str(spec)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda d: st.lists(
    st.permutations(range(d)), min_size=1, max_size=3)))
def test_stabilizer_chain_order_matches_sympy_on_random_generators(gens):
    gens = [tuple(g) for g in gens]
    assert stabilizer_chain_order(gens) == sympy_order(gens)


@pytest.mark.parametrize("text", [
    "cyclic(64)", "direct(dihedral(4), cyclic(3))", "psl2(8)"])
def test_mul_matches_compose(text):
    g = realize(text)
    expected = [[g.element_index[compose(p, q)] for q in g.elements]
                for p in g.elements]
    assert np.array_equal(g.mul, np.array(expected))


def assert_mul_matches_the_all_pairs_composer(group, name=""):
    expected = composed_mul(group)
    assert group.mul.dtype == expected.dtype, name
    assert np.array_equal(group.mul, expected), name


def test_mul_matches_the_all_pairs_composer_on_the_fast_tier(corpus,
                                                             fast_report):
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if tier_allows("fast", group.order):
            assert_mul_matches_the_all_pairs_composer(group, entry.label)
            checked += 1
    assert checked == len(fast_report.labels)


@pytest.mark.parametrize("text", ["psl2(8)", "psl2(13)"])
def test_mul_matches_the_all_pairs_composer(text):
    assert_mul_matches_the_all_pairs_composer(realize(text))


def test_mul_matches_the_all_pairs_composer_on_quotients_and_subgroups(
        mini_corpus):
    tables = 0
    for entry in mini_corpus:
        group = realize(entry.spec)
        lat = all_subgroups(group)
        for sid, sub in enumerate(lat.subgroups):
            name = f"{entry.label}[{sid}]"
            assert_mul_matches_the_all_pairs_composer(
                subgroup_group(group, sub.mask, sub.gen_hint), name)
            if lat.is_normal[sid]:
                assert_mul_matches_the_all_pairs_composer(
                    quotient_group(group, sub.mask), name + " quotient")
                tables += 1
            tables += 1
    assert tables == 435


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(lambda d: st.lists(
    st.permutations(range(d)), min_size=1, max_size=3)))
def test_random_group_mul_matches_the_all_pairs_composer(gens):
    group = realize("raw(" + ", ".join(format_cycles(tuple(g)) for g in gens)
                    + ")")
    assert_mul_matches_the_all_pairs_composer(group)


def test_mul_of_the_degree_zero_group():
    group = realize("raw(())")
    assert (group.order, group.degree) == (1, 0)
    assert group.mul.tolist() == [[0]]
    assert_mul_matches_the_all_pairs_composer(group)


def test_mul_rejects_generators_that_do_not_generate_the_table():
    three_cycle = parse_cycles("(0 1 2)", 3)
    g = FiniteGroup([identity(3)], elements=[
        identity(3), three_cycle, compose(three_cycle, three_cycle)])
    with pytest.raises(TableError, match="do not generate"):
        g.mul


def test_mul_rejects_a_table_that_is_not_closed():
    three_cycle = parse_cycles("(0 1 2)", 3)
    g = FiniteGroup([three_cycle], elements=[identity(3), three_cycle])
    with pytest.raises(TableError):
        g.mul


def test_table_must_start_with_the_identity():
    swap = parse_cycles("(0 1)", 2)
    with pytest.raises(RealizeError):
        FiniteGroup([swap], elements=[swap, identity(2)])


def test_mul_inv_conj_tables():
    g = realize("dihedral(4)")
    for i in (0, 1, 3, 5):
        for j in (0, 2, 4, 7):
            assert g.elements[g.mul[i, j]] == compose(g.elements[i], g.elements[j])
    for i in range(g.order):
        assert g.mul[i, g.inv[i]] == 0
        assert g.conj[0, i] == i


def assert_tables_match_per_element_loops(group):
    for name, expected in per_element_tables(group).items():
        table = getattr(group, name)
        assert table.dtype == expected.dtype, (group, name)
        assert np.array_equal(table, expected), (group, name)


@pytest.mark.parametrize("text", ["cyclic(64)", "psl2(8)"])
def test_tables_from_mul_match_per_element_loops(text):
    assert_tables_match_per_element_loops(realize(text))


def test_tables_from_mul_match_per_element_loops_on_the_mini_corpus(
        mini_corpus):
    for entry in mini_corpus:
        assert_tables_match_per_element_loops(realize(entry.spec))


def _subgroup_mask(group, predicate):
    mask = 0
    for i, p in enumerate(group.elements):
        if predicate(p):
            mask |= 1 << i
    return mask


def test_quotient_s4_by_v4():
    s4 = realize("symmetric(4)")
    from groupgraph.perms import cycles
    from oracles import perm_order
    v4 = _subgroup_mask(
        s4, lambda p: perm_order(p) == 1
        or (perm_order(p) == 2 and len(cycles(p)) == 2))
    assert v4.bit_count() == 4
    q = quotient_group(s4, v4)
    assert q.order == 6 and q.degree == 6
    a, b = q.generators[0], q.generators[1]
    assert compose(a, b) != compose(b, a)  # S4/V4 is nonabelian, i.e. S3


def test_quotient_by_trivial_is_regular():
    g = realize("dihedral(3)")
    q = quotient_group(g, 1)
    assert q.order == 6 and q.degree == 6


def test_quotient_z6_by_z3():
    z6 = realize("cyclic(6)")
    from oracles import perm_order
    z3 = _subgroup_mask(z6, lambda p: perm_order(p) in (1, 3))
    assert quotient_group(z6, z3).order == 2


def test_quotient_rejects_non_normal():
    s3 = realize("dihedral(3)")
    from oracles import perm_order
    z2 = 1 | (1 << s3.element_index[parse_cycles("(1 2)", 3)])
    with pytest.raises(NotNormal):
        quotient_group(s3, z2)
    with pytest.raises(NotNormal):
        quotient_group(s3, 0b11)  # not even a subgroup


def test_quotient_projection_maps_subgroups():
    g = realize("dihedral(6)")
    r3 = tuple((i + 3) % 6 for i in range(6))
    center = 1 | (1 << g.element_index[r3])
    q, proj = quotient_with_projection(g, center)
    assert q.order == 6
    # preimages of subgroups of the quotient are subgroups of g
    from oracles import perm_order
    image_z3 = {int(proj[i]) for i, p in enumerate(g.elements)
                if perm_order(p) in (1, 3)}
    preimage = 0
    for i in range(g.order):
        if int(proj[i]) in image_z3:
            preimage |= 1 << i
    assert is_subgroup_mask(g, preimage)


def test_subgroup_group_materializes():
    s4 = realize("symmetric(4)")
    from groupgraph.perms import cycles
    from oracles import perm_order
    a4 = _subgroup_mask(
        s4, lambda p: sum(len(c) - 1 for c in cycles(p)) % 2 == 0)
    sub = subgroup_group(s4, a4, shrink_generators(s4, a4))
    assert sub.order == 12
    assert stabilizer_chain_order(sub.generators) == 12


@pytest.mark.parametrize("hint_cycles", [(), ("(0 1 2)",)])
def test_subgroup_group_raises_on_a_hint_that_does_not_generate(hint_cycles):
    """A4 in S4 from no generators (the identity) or from one of its
    three-cycles: ``mul`` finds that the hint generates less."""
    s4 = realize("symmetric(4)")
    from groupgraph.perms import cycles
    a4 = _subgroup_mask(
        s4, lambda p: sum(len(c) - 1 for c in cycles(p)) % 2 == 0)
    hint = tuple(s4.element_index[parse_cycles(c, 4)] for c in hint_cycles)
    with pytest.raises(TableError, match="do not generate"):
        subgroup_group(s4, a4, hint).mul
    assert subgroup_group(s4, 1, ()).order == 1


def _per_element_projection(g, q, normal_mask):
    """The quotient index of every element's own action on the cosets."""
    reps = left_coset_reps(g, normal_mask)
    members = [j for j in range(g.order) if normal_mask >> j & 1]
    coset_of = {int(g.mul[r, m]): pos for pos, r in enumerate(reps)
                for m in members}
    return [q.element_index[tuple(coset_of[int(g.mul[i, r])] for r in reps)]
            for i in range(g.order)]


def _normal_subgroup_cases():
    from groupgraph.lattice import all_subgroups
    from groupgraph.perms import cycles
    from oracles import perm_order
    s4 = realize("symmetric(4)")
    v4 = _subgroup_mask(
        s4, lambda p: perm_order(p) == 1
        or (perm_order(p) == 2 and len(cycles(p)) == 2))
    yield "symmetric(4)/V4", s4, v4
    q8 = realize("dicyclic(2)")
    centre = 0
    for i in range(q8.order):
        if all(q8.mul[i, j] == q8.mul[j, i] for j in range(q8.order)):
            centre |= 1 << i
    assert centre.bit_count() == 2
    yield "dicyclic(2)/Z", q8, centre
    g = realize("direct(dihedral(4), cyclic(3))")
    lat = all_subgroups(g)
    for sid in lat.nontrivial_proper_ids():
        if lat.is_normal[sid]:
            yield f"d4xz3/{sid}", g, lat.mask_of(sid)


def test_quotient_projection_equals_per_element_action():
    cases = list(_normal_subgroup_cases())
    assert len(cases) > 3
    for name, g, normal_mask in cases:
        q, proj = quotient_with_projection(g, normal_mask)
        assert proj.tolist() == _per_element_projection(g, q, normal_mask), name
        assert q.order == g.order // normal_mask.bit_count(), name


def test_quotient_matches_the_bfs_oracle():
    for name, g, normal_mask in _normal_subgroup_cases():
        assert quotient_differences(g, normal_mask) == [], name


def test_subgroup_and_normal_masks():
    s3 = realize("dihedral(3)")
    swap = s3.element_index[parse_cycles("(1 2)", 3)]
    rot = s3.element_index[parse_cycles("(0 1 2)", 3)]
    z3 = 1 | 1 << rot | 1 << int(s3.mul[rot, rot])
    z2 = 1 | 1 << swap
    assert is_subgroup_mask(s3, z3) and is_normal_mask(s3, z3)
    assert is_subgroup_mask(s3, z2) and not is_normal_mask(s3, z2)
    assert is_subgroup_mask(s3, 1) and is_subgroup_mask(s3, (1 << 6) - 1)
    assert not is_subgroup_mask(s3, 1 << rot | 1 << int(s3.mul[rot, rot]))
    assert not is_subgroup_mask(s3, 1 | 1 << rot)
    assert not is_subgroup_mask(s3, 0)


def quotient_mismatches(group, masks) -> list[str]:
    """The masks whose quotient from the batched pass differs from the
    per-subgroup oracle: element table, generators, label, table digest
    or projection."""
    bad = []
    for mask, (q, proj) in zip(masks, quotients(group, masks)):
        ref, ref_proj = quotient_by_one_subgroup(group, mask)
        if (q.elements, q.generators, q.spec_label, q.table_digest,
                proj.tolist()) != (ref.elements, ref.generators,
                                   ref.spec_label, ref.table_digest,
                                   ref_proj.tolist()):
            bad.append(f"{group.spec_label}/{mask:x}")
    return bad


def test_batched_quotients_match_the_per_subgroup_oracle_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    """Every T-2.2g candidate of every fast-tier group, all of a group's
    candidates in one pass."""
    groups_seen = candidates = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat = load_or_compute(group, shared_cache)[0]
        masks = [lat.mask_of(sid) for sid in lat.nontrivial_proper_ids()
                 if lat.is_normal[sid] and group.order // lat.order_of(sid)
                 <= QUOTIENT_EMBED_MAX_INDEX][:QUOTIENT_EMBED_MAX_COUNT]
        assert quotient_mismatches(group, masks) == []
        groups_seen += 1
        candidates += len(masks)
    assert groups_seen == len(fast_report.labels)
    assert candidates == 511  # the quotient maps tests/test_graphs.py checks


def test_batched_quotient_of_s6_by_a6_runs_in_row_blocks(make):
    """|A6| = 360 members against 720 elements: the products of one
    element with A6's members take 3,960 bytes with their index copy and
    test, so the pass goes by 11 blocks of elements."""
    s6, lat = make("symmetric(6)")
    a6 = next(sid for sid in lat.nontrivial_proper_ids()
              if lat.order_of(sid) == 360)
    row = 360 * (s6.mul.itemsize + 9)
    assert len(list(row_blocks(s6.order, row, CHUNK_BYTES))) == 11
    assert quotient_mismatches(s6, [lat.mask_of(a6)]) == []
    # with a normal subgroup of every other index beside it
    normals = [lat.mask_of(sid) for sid in lat.nontrivial_proper_ids()
               if lat.is_normal[sid]]
    assert normals == [lat.mask_of(a6)]
    assert quotient_mismatches(s6, [lat.mask_of(a6), 1]) == []


def test_batched_quotients_reject_a_mask_that_is_not_normal_or_not_a_subgroup():
    s3 = realize("dihedral(3)")
    swap = s3.element_index[parse_cycles("(1 2)", 3)]
    rot = s3.element_index[parse_cycles("(0 1 2)", 3)]
    z3 = 1 | 1 << rot | 1 << int(s3.mul[rot, rot])
    for bad, reason in [(1 | 1 << swap, "not normal"),
                        (1 | 1 << rot, "not a subgroup"),
                        (1 << rot | 1 << int(s3.mul[rot, rot]),
                         "not a subgroup"),
                        (0, "not a subgroup")]:
        for masks in ([bad], [z3, bad], [bad, z3]):
            with pytest.raises(NotNormal, match=reason):
                quotients(s3, masks)
    assert quotients(s3, []) == []
