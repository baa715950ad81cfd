import tracemalloc

import pytest

# the complement maps (T-2.2f) and quotient maps (T-2.2g) of the fast tier
COMPLEMENT_MAPS, QUOTIENT_MAPS = 4, 511

from groupgraph import build_graph, graphs, realize, star_reduction
from groupgraph.bits import iter_bits
from groupgraph.cache import load_or_compute
from groupgraph.corpus import tier_allows
from groupgraph.errors import CriteriaDisagreement, GroupGraphError, NotNormal
from groupgraph.graphs import (KINDS, conjugation_vertex_map,
                               graph_to_json_dict, non_automorphisms,
                               quotient_embeddings, semidirect_embedding,
                               to_dot)
from groupgraph.harness import (QUOTIENT_EMBED_MAX_COUNT,
                                QUOTIENT_EMBED_MAX_INDEX)
from groupgraph.lattice import SubgroupLattice
from oracles import (complement_vertex_map_by_rows,
                     conjugation_vertex_map_by_rows, mask_from_indices,
                     pair_loop_mismatches, quotient_vertex_map_by_rows)


def test_build_graph_matches_the_pair_loop_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    """Every kind on every fast-tier lattice, read from the cache the
    fast-tier report filled."""
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        assert pair_loop_mismatches(
            load_or_compute(group, shared_cache)[0]) == [], entry.label
        checked += 1
    assert checked == len(fast_report.labels)


@pytest.mark.parametrize("text", ["psl2(8)", "symmetric(5)", "alternating(6)"])
def test_build_graph_matches_the_pair_loop(make, text):
    """alternating(6) has 360 elements, six member words per vertex."""
    assert pair_loop_mismatches(make(text)[1]) == []


@pytest.mark.parametrize("text", ["cyclic(1)", "cyclic(7)"])
def test_trivial_and_prime_cyclic_groups_have_no_vertices(make, text):
    _, lat = make(text)
    for kind in KINDS:
        graph = build_graph(lat, kind)
        assert (graph.vertices, graph.adj) == ((), []), kind
    assert pair_loop_mismatches(lat) == []


def test_build_graph_is_chunk_size_independent(make, monkeypatch):
    """One row per chunk (the smallest bound) gives the same graphs."""
    monkeypatch.setattr(graphs, "CHUNK_BYTES", 1)
    for text in ("symmetric(4)", "psl2(7)", "elem_abelian(2,4)", "psl2(8)"):
        assert pair_loop_mismatches(make(text)[1]) == []


@pytest.mark.parametrize("text", ["psl2(8)", "elem_abelian(2,5)"])
def test_build_graph_memory_stays_near_the_chunk_bound(make, text):
    """numpy reports its buffers to tracemalloc, so the peak covers every
    temporary; a few chunk-sized ones are alive at once, and the outputs
    are small. psl2(8) has 384 vertices of 8 member words and 73 maximal
    subgroups, elem_abelian(2,5) 372 vertices and 31 maximal subgroups:
    one bool per vertex pair and maximal subgroup would take 4.3 MB
    there."""
    _, lat = make(text)
    tracemalloc.start()
    try:
        for kind in ("gamma", "delta", "difference"):
            build_graph(lat, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * graphs.CHUNK_BYTES


def test_difference_of_s3(dgraph):
    d = dgraph("dihedral(3)")
    assert d.n == 4
    assert d.edge_count() == 3
    isolated = d.isolated()
    assert len(isolated) == 1
    assert d.lattice.order_of(d.vertices[isolated[0]]) == 3  # the A3 vertex


def test_difference_of_a4_has_18_edges(dgraph):
    d = dgraph("alternating(4)")
    assert (d.n, d.edge_count()) == (8, 18)
    # V4 is the unique isolated vertex
    (iso,) = d.isolated()
    assert d.lattice.order_of(d.vertices[iso]) == 4


@pytest.mark.parametrize("text", [
    "cyclic(12)", "elem_abelian(2,3)", "dicyclic(2)",
    "direct(cyclic(4), dicyclic(2))",
])
def test_edgeless_difference_graphs(dgraph, text):
    assert dgraph(text).edge_count() == 0


@pytest.mark.parametrize("text", [
    "dihedral(3)", "alternating(4)", "symmetric(4)", "cyclic(6)",
    "dihedral(4)", "semidirect(cyclic(5), cyclic(8), z5_by_doubling)",
])
def test_difference_is_delta_minus_gamma(dgraph, text):
    gamma, delta, diff = (dgraph(text, k) for k in ("gamma", "delta", "difference"))
    for i in range(delta.n):
        assert gamma.adj[i] & ~delta.adj[i] == 0     # gamma subgraph of delta
        assert diff.adj[i] == delta.adj[i] & ~gamma.adj[i]
        assert not diff.adj[i] >> i & 1              # irreflexive
    assert all(diff.adj[i] >> j & 1 == diff.adj[j] >> i & 1
               for i in range(diff.n) for j in range(diff.n))


def test_z6_delta_gamma_difference(dgraph):
    assert dgraph("cyclic(6)", "delta").edge_count() == 1
    assert dgraph("cyclic(6)", "gamma").edge_count() == 1
    assert dgraph("cyclic(6)").edge_count() == 0


def test_star_reduction(dgraph):
    star = star_reduction(dgraph("dihedral(3)"))
    assert star.n == 3 and star.edge_count() == 3
    assert star.isolated() == []
    star4 = star_reduction(dgraph("dihedral(4)"))
    assert star4.n == 4 and all(star4.degree(i) == 2 for i in range(4))
    empty = star_reduction(dgraph("cyclic(12)"))
    assert empty.n == 0


def test_star_reduction_requires_difference(dgraph):
    with pytest.raises(GroupGraphError):
        star_reduction(dgraph("dihedral(3)", "gamma"))


def test_build_graph_rejects_unknown_kind(make):
    _, lat = make("cyclic(6)")
    with pytest.raises(GroupGraphError):
        build_graph(lat, "chordal")


def test_conjugation_identity_is_identity(make, dgraph):
    _, lat = make("dihedral(4)")
    assert conjugation_vertex_map(lat, 0) == list(range(8))


def test_conjugation_swaps_reflections_in_d4(make, dgraph):
    g, lat = make("dihedral(4)")
    d = dgraph("dihedral(4)")
    r = g.element_index[(1, 2, 3, 0)]
    mapping = conjugation_vertex_map(lat, r)
    moved = [i for i, j in enumerate(mapping) if i != j]
    orders = {lat.order_of(d.vertices[i]) for i in moved}
    assert moved and orders == {2}   # conjugation by r swaps reflection pairs
    assert non_automorphisms(d, [mapping]) == []


@pytest.mark.parametrize("text", [
    "dihedral(3)", "symmetric(4)", "alternating(4)", "dicyclic(3)",
])
def test_conjugation_is_automorphism_of_all_kinds(make, dgraph, text):
    g, lat = make(text)
    for kind in ("gamma", "delta", "difference"):
        graph = dgraph(text, kind)
        assert non_automorphisms(graph, [
            conjugation_vertex_map(lat, e) for e in range(g.order)]) == []


def test_vertex_maps_match_the_gather_based_maps_on_the_fast_tier(
        corpus, fast_report, shared_cache):
    """On every fast-tier lattice: the conjugation map of every generator
    (T-2.2c), the complement map of a semidirect product (T-2.2f) and the
    quotient map of every normal subgroup that T-2.2g checks, against the
    maps that gather whole member rows and look the images up by mask."""
    checked = complements = quotients = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat = load_or_compute(group, shared_cache)[0]
        target, memo = build_graph(lat, "difference"), {}
        for g in group.generator_indices():
            assert conjugation_vertex_map(lat, g) \
                == conjugation_vertex_map_by_rows(lat, g), entry.label
        if group.semidirect_normal_mask is not None:
            emb = semidirect_embedding(lat, target=target, memo=memo)
            normal_id = lat.index_of[group.semidirect_normal_mask]
            assert emb.vertex_map == complement_vertex_map_by_rows(
                lat, normal_id, emb), entry.label
            complements += 1
        normals = [sid for sid in lat.nontrivial_proper_ids()
                   if lat.is_normal[sid] and group.order // lat.order_of(sid)
                   <= QUOTIENT_EMBED_MAX_INDEX][:QUOTIENT_EMBED_MAX_COUNT]
        for sid, emb in zip(normals, quotient_embeddings(
                lat, normals, target=target, memo=memo)):
            assert emb.vertex_map == quotient_vertex_map_by_rows(
                lat, sid, emb), entry.label
            quotients += 1
        checked += 1
    assert checked == len(fast_report.labels)
    assert (complements, quotients) == (COMPLEMENT_MAPS, QUOTIENT_MAPS)


@pytest.mark.parametrize("text", ["psl2(8)", "psl2(13)"])
def test_conjugation_maps_match_the_gather_based_maps(make, text):
    group, lat = make(text)
    for g in group.generator_indices():
        assert conjugation_vertex_map(lat, g) \
            == conjugation_vertex_map_by_rows(lat, g)


def test_a_missing_subgroup_raises_instead_of_mapping_wrongly(make):
    """D4 without one of its reflection subgroups: conjugation takes the
    other reflection of that class onto it, and the smallest subgroup
    left holding the image is of order 4."""
    group, lat = make("dihedral(4)")
    gone = next(sid for sid in lat.nontrivial_proper_ids()
                if len(lat.conjugates(sid)) == 2)
    twin = next(c for c in lat.conjugates(gone) if c != gone)
    kept = [sid for sid in range(lat.subgroup_count()) if sid != gone]
    partial = SubgroupLattice(group, [lat.subgroups[sid] for sid in kept],
                              [lat.conj_class_of[sid] for sid in kept])
    g = next(x for x in range(group.order)
             if lat.mask_of(gone) == conjugate_mask_of(lat, twin, x))
    with pytest.raises(CriteriaDisagreement, match="no subgroup of order 2 holds subgroup 0"):
        conjugation_vertex_map(partial, g)


def conjugate_mask_of(lat, sid: int, g: int) -> int:
    return mask_from_indices(lat.group.conj[g, x]
                             for x in iter_bits(lat.mask_of(sid)))


def test_non_automorphisms_reports_maps_that_are_not_permutations(dgraph):
    d = dgraph("dihedral(3)")
    identity = list(range(d.n))
    assert non_automorphisms(d, [identity, [0] * d.n, identity[:-1],
                                 identity[1:] + [d.n]]) == [1, 2, 3]


def test_quotient_embedding_s3xz2(make):
    g, lat = make("direct(dihedral(3), cyclic(2))")
    centers = [sid for sid in lat.nontrivial_proper_ids()
               if lat.order_of(sid) == 2 and lat.is_normal[sid]]
    emb = quotient_embeddings(lat, [centers[0]])[0]
    assert emb.source_group.order == 6
    assert emb.source_graph.edge_count() == 3   # D(S3)
    assert emb.is_induced_isomorphism()


def test_quotient_embedding_cyclic_quotient_is_edgeless(make):
    g, lat = make("dihedral(4)")
    z4 = next(sid for sid in lat.nontrivial_proper_ids()
              if lat.order_of(sid) == 4 and lat.is_cyclic_subgroup(sid))
    emb = quotient_embeddings(lat, [z4])[0]
    assert emb.source_graph.edge_count() == 0
    assert emb.is_induced_isomorphism()


def test_quotient_embedding_d4_center(make):
    _, lat = make("dihedral(4)")
    center = lat.frattini()   # the center of D4 is its Frattini subgroup
    emb = quotient_embeddings(lat, [center])[0]
    assert emb.source_group.order == 4
    assert emb.source_graph.edge_count() == 0   # D(V4) is edgeless
    assert emb.is_induced_isomorphism()


def test_quotient_embedding_rejects_non_normal(make):
    _, lat = make("dihedral(3)")
    nonnormal = next(sid for sid in lat.nontrivial_proper_ids()
                     if not lat.is_normal[sid])
    with pytest.raises(NotNormal):
        quotient_embeddings(lat, [nonnormal])


def test_semidirect_embedding_z5_z8(make):
    _, lat = make("semidirect(cyclic(5), cyclic(8), z5_by_doubling)")
    emb = semidirect_embedding(lat)
    assert emb.source_group.order == 8
    assert emb.source_graph.n == 2          # Z2 and Z4 inside Z8
    assert emb.source_graph.edge_count() == 0
    assert emb.is_induced_isomorphism()


@pytest.mark.parametrize("text", [
    "semidirect(cyclic(5), cyclic(8), z5_by_doubling)",
    "semidirect(elem_abelian(2,3), elem_abelian(2,2), gap3249)"])
def test_semidirect_embedding_maps_each_k1_to_h_k1(make, text):
    """Each vertex K1 of D(K) goes to the vertex H K1 of D(G), the set
    product formed one pair of elements at a time."""
    g, lat = make(text)
    emb = semidirect_embedding(lat)
    h = list(iter_bits(g.semidirect_normal_mask))
    assert emb.source_graph.n > 0
    for pos, sid in enumerate(emb.source_graph.vertices):
        k1 = [g.element_index[emb.source_group.elements[i]]
              for i in iter_bits(emb.source_lattice.mask_of(sid))]
        target = emb.target_graph.vertices[emb.vertex_map[pos]]
        assert lat.mask_of(target) == mask_from_indices(
            int(g.mul[x, y]) for x in h for y in k1)


def test_semidirect_embedding_empty_for_prime_complement(make):
    _, lat = make("semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)")
    emb = semidirect_embedding(lat)
    assert emb.source_graph.n == 0
    assert emb.is_induced_isomorphism()


def test_semidirect_embedding_needs_semidirect_group(make):
    _, lat = make("symmetric(4)")
    with pytest.raises(GroupGraphError):
        semidirect_embedding(lat)


def test_semidirect_embedding_explicit_parts(make):
    # S3 x Z2 = A3 x| (Z2 x Z2-ish complement): use A3 as H and a
    # non-normal order-4... there is none; use the direct factors instead
    g, lat = make("direct(dihedral(3), cyclic(2))")
    a3z2 = next(sid for sid in lat.nontrivial_proper_ids()
                if lat.order_of(sid) == 6 and lat.is_normal[sid]
                and lat.is_cyclic_subgroup(sid))
    z2 = next(sid for sid in lat.nontrivial_proper_ids()
              if lat.order_of(sid) == 2
              and lat.mask_of(sid) & lat.mask_of(a3z2) == 1)
    emb = semidirect_embedding(lat, normal_id=a3z2, complement_id=z2)
    assert emb.source_graph.n == 0


def test_dot_and_json_exports_are_deterministic(dgraph):
    d = dgraph("dihedral(3)")
    assert to_dot(d) == to_dot(d)
    payload = graph_to_json_dict(d)
    assert payload["vertex_count"] == 4
    # edges name the vertices by the lattice ids the vertices print
    assert payload["edges"] == [[1, 2], [1, 3], [2, 3]]
    assert [v["id"] for v in payload["vertices"]] == [1, 2, 3, 4]
    dot = to_dot(d)
    assert dot.startswith("graph difference {") and dot.count(" -- ") == 3
    # DOT numbers vertices and edges by position
    assert "  v0 -- v1;\n  v0 -- v2;\n  v1 -- v2;\n" in dot
    star = star_reduction(d)
    assert "v3" not in to_dot(star)   # the isolated vertex is gone
