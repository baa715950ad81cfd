import random
import sys
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraph import analytics as an
from groupgraph.bits import iter_bits
from groupgraph.analytics import (INF, Graph, complement, components,
                                  find_claw, find_odd_hole_or_antihole, girth,
                                  graphs_isomorphic,
                                  independence_number, is_bipartite,
                                  is_clawfree, is_cograph, is_cycle,
                                  is_induced_map, max_clique,
                                  universal_vertices)
from groupgraph.errors import (BudgetExceeded, CriteriaDisagreement,
                               GroupGraphError)
from oracles import (complete_graph, cycle_graph, find_induced_p4,
                     graph_from_edges, has_induced_odd_cycle, induces_cycle,
                     is_induced_map_by_pairs, networkx_graph,
                     networkx_invariants, path_graph, relabel,
                     report_invariants)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return graph_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p])


def shuffle_graph(g, seed):
    rng = random.Random(seed)
    relabel = list(range(g.n))
    rng.shuffle(relabel)
    edges = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adj[i] >> j & 1:
                edges.append((relabel[i], relabel[j]))
    return graph_from_edges(g.n, edges)


def brute_max_clique(g):
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        members = [v for v in range(g.n) if mask >> v & 1]
        if all(g.adj[u] >> v & 1 for u, v in combinations(members, 2)):
            best = size
    return best


def brute_girth(g):
    # remove each edge and measure the shortest remaining path between
    # its endpoints; independent of the per-root BFS used by girth()
    best = INF
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1:
                continue
            dist = {u: 0}
            frontier = [u]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in range(g.n):
                        if y in dist or not g.adj[x] >> y & 1:
                            continue
                        if (x, y) in ((u, v), (v, u)):
                            continue
                        dist[y] = dist[x] + 1
                        nxt.append(y)
                frontier = nxt
            if v in dist:
                best = min(best, dist[v] + 1)
    return best


def brute_has_claw(g):
    for quad in combinations(range(g.n), 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(g.adj[center] >> v & 1 for v in leaves) and \
                    not any(g.adj[a] >> b & 1 for a, b in combinations(leaves, 2)):
                return True
    return False


# -- components / girth / bipartite -------------------------------------------

def test_components(dgraph):
    assert len(components(dgraph("alternating(5)"))) == 1
    assert len(components(dgraph("dihedral(3)"))) == 2
    edgeless = Graph(5, (0,) * 5)
    assert len(components(edgeless)) == 5


def test_girth_examples(dgraph):
    assert girth(dgraph("dihedral(3)")) == 3
    assert girth(dgraph("dihedral(4)")) == 4
    assert girth(path_graph(6)) == INF
    assert girth(Graph(3, (0, 0, 0))) == INF
    assert girth(cycle_graph(9)) == 9


def test_girth_matches_brute_force():
    for seed in range(40):
        g = random_graph(12, 0.18, seed)
        assert girth(g) == brute_girth(g), seed
    for seed in range(10):
        g = random_graph(20, 0.12, 100 + seed)
        assert girth(g) == brute_girth(g), seed


def test_bipartite(dgraph):
    assert is_bipartite(dgraph("dihedral(4)"))
    assert not is_bipartite(dgraph("dihedral(3)"))
    assert is_bipartite(Graph(4, (0,) * 4))
    assert is_bipartite(cycle_graph(8))
    assert not is_bipartite(cycle_graph(7))


# -- clique / independence ------------------------------------------------------

def test_clique_examples(dgraph):
    assert max_clique(complete_graph(5))[0] == 5
    assert max_clique(dgraph("dihedral(3)"))[0] == 3
    assert max_clique(dgraph("alternating(4)"))[0] == 5


def test_clique_witness_is_a_clique(dgraph):
    g = dgraph("alternating(4)")
    size, members = max_clique(g)
    assert len(members) == size
    assert all(g.adj[u] >> v & 1 for u, v in combinations(members, 2))


def test_independence_examples(dgraph):
    assert independence_number(dgraph("alternating(4)")) == 4
    assert independence_number(dgraph("dihedral(4)")) == 6
    assert independence_number(dgraph("alternating(5)")) == 15


def test_clique_matches_brute_force():
    for seed in range(30):
        g = random_graph(13, 0.4, 1000 + seed)
        assert max_clique(g)[0] == brute_max_clique(g), seed


def test_budget_is_an_error_not_an_approximation():
    g = random_graph(40, 0.5, 7)
    with pytest.raises(BudgetExceeded):
        max_clique(g, budget=3)


def test_a_loop_is_an_error_not_a_hang():
    """A loop on a vertex the greedy seed skips, then on the one it takes
    first, which would otherwise take it again and again whatever the
    budget."""
    for adj in ([0b010, 0b001, 0b100], [0b11, 0b01]):
        with pytest.raises(GroupGraphError):
            max_clique(Graph(len(adj), tuple(adj)), budget=1000)


# (size, witness, fewest nodes that finish) of the clique search on the
# non-isolated part of D, and on its complement (alpha)
PINNED_SEARCHES = {
    "psl2(7)": (
        (22, [112, 113, 114, 115, 116, 117, 118, 119, 141, 142, 143, 144,
              145, 146, 147, 148, 149, 150, 151, 152, 153, 154], 1),
        (29, [0, 5, 7, 9, 10, 11, 13, 17, 20, 27, 35, 41, 42, 52, 56, 64,
              65, 69, 70, 82, 87, 92, 108, 110, 120, 121, 138, 148, 172],
         30)),
    "symmetric(5)": (
        (16, [70, 80, 82, 85, 87, 91, 92, 95, 100, 102, 103, 106, 109, 112,
              115, 118], 46),
        (57, [4, 6, 8, 10, 11, 12, 14, 15, 16, 18, 19, 20, 22, 23, 24, 25,
              26, 27, 28, 29, 30, 31, 32, 33, 34, 40, 52, 60, 64, 68, 70,
              71, 72, 73, 74, 75, 81, 84, 86, 90, 93, 94, 99, 101, 104, 105,
              121, 122, 123, 124, 125, 126, 127, 132, 135, 137, 139], 58)),
}


@pytest.mark.parametrize("text", sorted(PINNED_SEARCHES))
def test_clique_search_nodes_and_witnesses_are_pinned(dgraph, text):
    _, rows = an.without_isolated(dgraph(text))
    rest = Graph(len(rows), tuple(rows))
    for g, (size, witness, nodes) in zip((rest, complement(rest)),
                                         PINNED_SEARCHES[text]):
        assert max_clique(g, budget=nodes) == (size, witness)
        with pytest.raises(BudgetExceeded):
            max_clique(g, budget=nodes - 1)


def test_solvers_on_trivial_graphs():
    assert max_clique(Graph(0, ()))[0] == 0
    assert max_clique(Graph(1, (0,)))[0] == 1
    assert independence_number(Graph(6, (0,) * 6)) == 6


# -- clawfree / cograph ----------------------------------------------------------

def test_clawfree_examples(dgraph):
    assert is_clawfree(dgraph("dihedral(3)"))
    assert not is_clawfree(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert not is_clawfree(dgraph("alternating(4)"))


def test_claw_scan_matches_brute_force():
    for seed in range(40):
        g = random_graph(11, 0.3, 2000 + seed)
        assert (find_claw(g) is None) == (not brute_has_claw(g)), seed


def test_cograph_examples(dgraph):
    assert is_cograph(dgraph("alternating(4)"))
    assert is_cograph(dgraph("dihedral(3)"))
    assert not is_cograph(path_graph(4))
    assert is_cograph(complete_graph(6))
    assert is_cograph(Graph(5, (0,) * 5))


def test_cograph_matches_p4_scan():
    for seed in range(60):
        g = random_graph(12, 0.35, 3000 + seed)
        assert is_cograph(g) == (find_induced_p4(g) is None), seed
    # and on a known cograph family: complete multipartite graphs
    g = graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert is_cograph(g) and find_induced_p4(g) is None


def test_universal_vertices(dgraph):
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert universal_vertices(star) == [0]
    assert universal_vertices(complete_graph(3)) == [0, 1, 2]
    assert universal_vertices(Graph(1, (0,))) == [0]   # vacuously universal
    assert universal_vertices(dgraph("symmetric(4)")) == []


def test_is_cycle(dgraph):
    from groupgraph import star_reduction
    assert is_cycle(star_reduction(dgraph("dihedral(4)"))) == (True, 4)
    assert is_cycle(star_reduction(dgraph("dihedral(3)"))) == (True, 3)
    assert is_cycle(complete_graph(4)) == (False, None)
    assert is_cycle(path_graph(5)) == (False, None)
    assert is_cycle(Graph(0, ())) == (False, None)
    two_triangles = graph_from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert is_cycle(two_triangles) == (False, None)   # 2-regular, disconnected


# -- odd holes and antiholes -------------------------------------------------------

def assert_valid_witness(g, found, max_length=11):
    tag, cycle = found
    h = g if tag == "hole" else complement(g)
    k = len(cycle)
    assert 5 <= k <= max_length and k % 2 == 1, found
    assert induces_cycle(h, list(cycle)), found
    # listed in cycle order
    assert all(h.adj[cycle[i]] >> cycle[(i + 1) % k] & 1 for i in range(k))


def disjoint_union(g, h):
    """``g`` and ``h`` side by side, ``g``'s vertices numbered first."""
    return Graph(g.n + h.n, tuple(g.adj) + tuple(row << g.n for row in h.adj))


def test_odd_hole_and_antihole_examples():
    c5 = cycle_graph(5)
    assert find_odd_hole_or_antihole(c5) == ("hole", (0, 1, 2, 3, 4))
    anti7 = complement(cycle_graph(7))
    assert find_odd_hole_or_antihole(anti7) == ("antihole", tuple(range(7)))
    # isolated vertices split the graph into components
    padded = disjoint_union(Graph(3, (0, 0, 0)), anti7)
    assert find_odd_hole_or_antihole(padded) == \
        ("antihole", tuple(range(3, 10)))
    # on the path 0-1-5-4, vertex 3 closes a 5-cycle; the larger
    # candidate 7 would lead on to the 7-cycle 0-1-5-4-7-2-6
    two_cycles = graph_from_edges(8, [(0, 1), (0, 3), (0, 6), (1, 5), (2, 6),
                                      (2, 7), (3, 4), (4, 5), (4, 7)])
    assert find_odd_hole_or_antihole(two_cycles) == ("hole", (0, 1, 5, 4, 3))
    # every component is searched for a hole before any for an antihole
    assert find_odd_hole_or_antihole(disjoint_union(anti7, c5)) == \
        ("hole", (7, 8, 9, 10, 11))
    bipartite = graph_from_edges(
        7, [(i, j) for i in range(3) for j in range(3, 7) if (i + j) % 3])
    for g in (cycle_graph(4), cycle_graph(6), complete_graph(6), bipartite):
        assert find_odd_hole_or_antihole(g) is None
    assert find_odd_hole_or_antihole(cycle_graph(9), max_length=7) is None
    assert find_odd_hole_or_antihole(cycle_graph(9))[0] == "hole"


def test_odd_hole_budget_is_an_error():
    with pytest.raises(BudgetExceeded):
        find_odd_hole_or_antihole(complement(cycle_graph(7)), budget=1)


@pytest.mark.parametrize("text,cycle", [
    ("alternating(5)", (0, 20, 2, 19, 11, 16, 22)),
    ("symmetric(4)", (0, 10, 2, 26, 24)),
    ("direct(dihedral(3), cyclic(3))", (0, 5, 1, 7, 8)),
])
def test_odd_hole_witness_on_difference_graphs(dgraph, text, cycle):
    # the first induced odd cycle in depth-first order from the least start
    g = dgraph(text)
    found = find_odd_hole_or_antihole(g)
    assert found == ("hole", cycle)
    assert_valid_witness(g, found)


def test_odd_hole_scan_finds_none_on_dih32(dgraph):
    assert find_odd_hole_or_antihole(dgraph("dihedral(16)")) is None


@st.composite
def small_graphs(draw, max_n=10, n=None):
    if n is None:
        n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.sampled_from([5, 7, 9, 11]))
def test_odd_hole_scan_matches_brute_force(g, max_length):
    lengths = range(5, max_length + 1, 2)
    hole = has_induced_odd_cycle(g, lengths)
    antihole = has_induced_odd_cycle(complement(g), lengths)
    found = find_odd_hole_or_antihole(g, max_length=max_length)
    if hole:
        assert found is not None and found[0] == "hole"
    elif antihole:
        assert found is not None and found[0] == "antihole"
    else:
        assert found is None
    if found is not None:
        assert_valid_witness(g, found, max_length)


def join(g, h):
    """``g`` and ``h`` side by side with every edge between them."""
    return complement(disjoint_union(complement(g), complement(h)))


cographs = st.recursive(
    st.just(Graph(1, (0,))),
    lambda parts: st.tuples(st.sampled_from([disjoint_union, join]),
                            parts, parts).map(lambda t: t[0](t[1], t[2])),
    max_leaves=14)


@settings(max_examples=200, deadline=None)
@given(cographs)
def test_odd_hole_scan_finds_none_on_cographs(g):
    """Cographs, built from single vertices by disjoint union and join,
    have no induced P4, so no odd hole or antihole: H-4 skips their scan."""
    assert is_cograph(g) and find_induced_p4(g) is None
    assert find_odd_hole_or_antihole(g) is None


# -- isomorphism -------------------------------------------------------------------

def test_isomorphic_pairs(dgraph):
    from groupgraph import star_reduction
    assert graphs_isomorphic(star_reduction(dgraph("dihedral(3)")), cycle_graph(3))
    assert graphs_isomorphic(
        dgraph("direct(dihedral(3), cyclic(5))"),
        dgraph("direct(dihedral(3), cyclic(7))"))
    assert not graphs_isomorphic(complete_graph(3), path_graph(3))
    assert not graphs_isomorphic(cycle_graph(6), graph_from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_isomorphism_is_reflexive_and_shuffle_invariant(dgraph):
    targets = [dgraph("alternating(4)"), dgraph("symmetric(4)"),
               dgraph("dihedral(4)"), random_graph(18, 0.3, 99)]
    assert all(graphs_isomorphic(g, g) for g in targets)
    trials = 0
    for idx, g in enumerate(targets):
        for seed in range(25):
            assert graphs_isomorphic(g, shuffle_graph(g, 4000 + idx * 100 + seed))
            trials += 1
    assert trials == 100


def test_isomorphism_distinguishes_regular_graphs():
    # two 3-regular graphs on 6 vertices: K_{3,3} vs the prism
    k33 = graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                 (5, 3), (0, 3), (1, 4), (2, 5)])
    assert not graphs_isomorphic(k33, prism)
    assert graphs_isomorphic(prism, shuffle_graph(prism, 5))


def cube_and_wagner_graphs():
    """Q3 and the Wagner graph: both cubic on 8 vertices with 12 edges,
    connected and triangle-free, so they pass every prefilter; Q3 is
    bipartite and the Wagner graph is not."""
    cube = graph_from_edges(8, [(v, v ^ bit) for v in range(8)
                                for bit in (1, 2, 4) if v < v ^ bit])
    wagner = graph_from_edges(8, [(v, (v + 1) % 8) for v in range(8)]
                              + [(v, v + 4) for v in range(4)])
    return cube, wagner


def test_isomorphism_rejects_a_pair_that_passes_every_prefilter():
    import networkx as nx
    cube, wagner = cube_and_wagner_graphs()
    assert an.degree_sequence(cube) == an.degree_sequence(wagner) == [3] * 8
    assert an.triangle_count(cube) == an.triangle_count(wagner) == 0
    assert len(components(cube)) == len(components(wagner)) == 1
    assert not graphs_isomorphic(cube, wagner)
    assert not nx.is_isomorphic(networkx_graph(cube), networkx_graph(wagner))
    assert graphs_isomorphic(wagner, shuffle_graph(wagner, 3))


@st.composite
def equal_degree_pairs(draw):
    """A small graph and the graph after a few degree-preserving edge
    switches: edges ab, cd become ad, cb when neither exists yet."""
    g = draw(small_graphs(n=draw(st.integers(5, 9))))
    adj = list(g.adj)
    for _ in range(draw(st.integers(1, 8))):
        edges = [(i, j) for i in range(g.n) for j in iter_bits(adj[i])]
        if not edges:
            break
        (a, b), (c, d) = (edges[draw(st.integers(0, len(edges) - 1))]
                          for _ in range(2))
        if len({a, b, c, d}) == 4 \
                and not adj[a] >> d & 1 and not adj[c] >> b & 1:
            for u, v, w in ((a, b, d), (c, d, b)):
                adj[u] ^= 1 << v | 1 << w
                adj[v] &= ~(1 << u)
                adj[w] |= 1 << u
    return g, Graph(g.n, tuple(adj))


@settings(max_examples=300, deadline=None)
@given(equal_degree_pairs())
def test_isomorphism_matches_networkx_on_equal_degree_sequences(pair):
    import networkx as nx
    g, h = pair
    assert an.degree_sequence(g) == an.degree_sequence(h)
    assert graphs_isomorphic(g, h) \
        == nx.is_isomorphic(networkx_graph(g), networkx_graph(h))


def test_isomorphism_budget():
    # vertex-transitive graphs force individualization, so the node budget bites
    g = cycle_graph(16)
    h = shuffle_graph(g, 12)
    with pytest.raises(BudgetExceeded):
        graphs_isomorphic(g, h, budget=2)
    assert graphs_isomorphic(g, h)


# -- induced maps ------------------------------------------------------------------

@st.composite
def induced_map_cases(draw):
    """(g1, g2, mapping, kind): g1 has at most 8 vertices and g2 at least as
    many. ``pullback`` maps g1 injectively onto the subgraph of g2 its
    image induces; ``random`` is an injective map of a random g1;
    ``repeat`` and ``range`` break injectivity or the range of a map."""
    g2 = draw(small_graphs(max_n=12))
    n1 = draw(st.integers(0, min(8, g2.n)))
    mapping = draw(st.permutations(range(g2.n)))[:n1]
    kind = draw(st.sampled_from(["pullback", "random", "repeat", "range"]))
    if kind == "pullback":
        g1 = graph_from_edges(n1, [
            (v, w) for v, w in combinations(range(n1), 2)
            if g2.adj[mapping[v]] >> mapping[w] & 1])
    else:
        g1 = draw(small_graphs(n=n1))
    if kind == "repeat" and n1 >= 2:
        i, j = draw(st.lists(st.integers(0, n1 - 1), min_size=2, max_size=2,
                             unique=True))
        mapping[j] = mapping[i]
    elif kind == "range" and n1 >= 1:
        mapping[draw(st.integers(0, n1 - 1))] = draw(
            st.sampled_from([-1, g2.n, g2.n + 5]))
    elif kind != "pullback":
        kind = "random"  # too few vertices to break the map
    return g1, g2, mapping, kind


@settings(max_examples=400, deadline=None)
@given(induced_map_cases())
def test_is_induced_map_matches_all_pairs_oracle(case):
    g1, g2, mapping, kind = case
    found = is_induced_map(g1, g2, mapping)
    assert found == is_induced_map_by_pairs(g1, g2, mapping)
    if kind == "pullback":
        assert found
    if kind in ("repeat", "range"):
        assert not found


def test_is_induced_map_examples():
    c5 = cycle_graph(5)
    assert is_induced_map(c5, c5, [1, 2, 3, 4, 0])   # a rotation
    assert not is_induced_map(c5, c5, [0, 2, 1, 3, 4])
    # P3 sits induced in C5 on consecutive vertices, not on 0, 1, 3
    assert is_induced_map(path_graph(3), c5, [0, 1, 2])
    assert not is_induced_map(path_graph(3), c5, [0, 1, 3])
    assert not is_induced_map(path_graph(3), c5, [0, 1])   # too short
    assert is_induced_map(Graph(0, ()), c5, [])


# -- analyze round-up -----------------------------------------------------------

def test_analyze_report(dgraph):
    report = an.analyze(dgraph("dihedral(3)"))
    assert report.vertex_count == 4
    assert report.edge_count == 3
    assert report.isolated_count == 1
    assert report.component_count == 2
    assert report.girth == 3
    assert not report.bipartite
    assert report.clique_number == 3
    assert report.independence_number == 2
    assert report.clawfree and report.cograph
    assert not report.is_cycle
    assert report.degree_sequence == [2, 2, 2, 0]
    payload = report.to_json_dict()
    assert payload["girth"] == 3
    assert "unverified" not in payload


def test_analyze_girth_serialization(dgraph):
    report = an.analyze(dgraph("cyclic(12)"))
    assert report.girth == INF
    assert report.to_json_dict()["girth"] == "inf"


def test_analyze_allow_unverified(dgraph):
    g = dgraph("psl2(7)")
    report = an.analyze(g, indep_budget=2, allow_unverified=True)
    assert report.independence_number is None
    assert "independence_number" in report.unverified
    with pytest.raises(BudgetExceeded):
        an.analyze(g, indep_budget=2, allow_unverified=False)


def test_clique_equals_complement_independence_sample():
    for seed in range(25):
        g = random_graph(16, 0.45, 6000 + seed)
        assert max_clique(g)[0] == independence_number(complement(g)), seed


def test_inconsistent_report_raises():
    report = an.analyze(cycle_graph(5))
    report.clique_number = 1   # one edge or more means a clique of two
    with pytest.raises(CriteriaDisagreement, match="clique number 1"):
        an._check_report(report)


# -- the reduced report and the solvers on the non-isolated part ---------------

@st.composite
def graphs_with_isolated(draw):
    """Small graphs with isolated vertices mixed in: edgeless and empty
    graphs included."""
    core = draw(small_graphs(max_n=9))
    extra = draw(st.integers(0, 4))
    n = core.n + extra
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[j]) for i in range(core.n)
             for j in iter_bits(core.adj[i]) if j > i]
    return graph_from_edges(n, edges)


def reduced_graph(g):
    _, rows = an.without_isolated(g)
    return Graph(len(rows), tuple(rows))


BUDGETS = st.sampled_from([1, 2, 5, an.DEFAULT_SOLVER_BUDGET])


@settings(max_examples=300, deadline=None)
@given(graphs_with_isolated(), BUDGETS, BUDGETS)
def test_reduced_report_equals_a_direct_sweep(g, clique_budget, indep_budget):
    budgets = dict(clique_budget=clique_budget, indep_budget=indep_budget,
                   allow_unverified=True)
    reduced = reduced_graph(g)
    assert an.reduced_report(an.analyze(g, **budgets), reduced) \
        == an.analyze(reduced, **budgets)


def test_reduced_report_keeps_unverified():
    g = disjoint_union(cycle_graph(7), Graph(3, (0, 0, 0)))
    report = an.analyze(g, clique_budget=1, indep_budget=1,
                        allow_unverified=True)
    assert report.unverified == ["clique_number", "independence_number"]
    derived = an.reduced_report(report, reduced_graph(g))
    assert derived.unverified == report.unverified
    assert derived.clique_number is None and derived.independence_number is None


def test_reduced_report_of_edgeless_and_empty_graphs():
    for n in (0, 1, 4):
        g = Graph(n, (0,) * n)
        report = an.analyze(g)
        assert (report.clique_number, report.independence_number) \
            == (min(n, 1), n)
        derived = an.reduced_report(report, Graph(0, ()))
        assert derived == an.analyze(Graph(0, ()))
        assert derived.clique_number == derived.independence_number == 0


def test_reduced_report_rejects_a_graph_of_the_wrong_size():
    report = an.analyze(disjoint_union(cycle_graph(5), Graph(1, (0,))))
    with pytest.raises(CriteriaDisagreement):
        an.reduced_report(report, cycle_graph(6))


def test_edgeless_graph_calls_no_solver(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("solver called")

    monkeypatch.setattr(an, "clique_number", fail)
    monkeypatch.setattr(an, "independence_number", fail)
    report = an.analyze(Graph(2823, (0,) * 2823))
    assert (report.clique_number, report.independence_number) == (1, 2823)


def test_solvers_see_only_the_non_isolated_vertices(monkeypatch):
    seen = []
    real = an.independence_number

    def spy(g, budget=an.DEFAULT_SOLVER_BUDGET):
        seen.append(g.n)
        return real(g, budget)

    monkeypatch.setattr(an, "independence_number", spy)
    report = an.analyze(disjoint_union(cycle_graph(5), Graph(4, (0,) * 4)))
    assert seen == [5]
    assert report.independence_number == 2 + 4


def test_girth_finds_a_triangle_before_any_search():
    # K4 plus a pendant path: the first edge with a common neighbor is 0-1
    g = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (3, 4), (4, 5)])
    assert girth(g) == 3
    assert girth(cycle_graph(4)) == 4
    assert girth(disjoint_union(cycle_graph(6), cycle_graph(5))) == 5


# -- networkx as an independent oracle -------------------------------------------

@settings(max_examples=200, deadline=None)
@given(graphs_with_isolated())
def test_analyze_matches_networkx(g):
    reduced = reduced_graph(g)
    report = an.analyze(g)
    assert report_invariants(report) == networkx_invariants(g)
    assert report_invariants(an.reduced_report(report, reduced)) \
        == networkx_invariants(reduced)


def test_analyze_leaves_the_recursion_limit_as_it_found_it():
    # a perfect matching on 1200 vertices: no vertex is isolated, so the
    # clique searches see all of them and raise the limit while they run
    before = sys.getrecursionlimit()
    assert before < 1200 + 512
    g = graph_from_edges(1200, [(2 * i, 2 * i + 1) for i in range(600)])
    report = an.analyze(g)
    assert (report.clique_number, report.independence_number) == (2, 600)
    assert sys.getrecursionlimit() == before


# -- vertex relabelling ----------------------------------------------------------

def assert_relabelling_keeps_the_invariants(g, perm):
    """``analyze`` and the odd-hole scan see the same graph after the
    vertices are renamed by ``perm``: the same report with the universal
    vertices renamed, and a hole or antihole exactly when before."""
    h = relabel(g, perm)
    report = an.analyze(g)
    assert an.analyze(h) == replace(report, universal_vertices=sorted(
        perm[v] for v in report.universal_vertices))
    found, moved = find_odd_hole_or_antihole(g), find_odd_hole_or_antihole(h)
    assert (found is None) == (moved is None)
    if found is not None:
        assert moved[0] == found[0]
        assert_valid_witness(h, moved)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relabelling_keeps_the_invariants_of_graphs_with_isolated_vertices(
        data):
    g = data.draw(graphs_with_isolated())
    assert_relabelling_keeps_the_invariants(
        g, data.draw(st.permutations(range(g.n))))


@pytest.fixture(scope="module")
def mini_graphs(mini_corpus, dgraph):
    """D and D* of every mini-corpus group."""
    from groupgraph import star_reduction
    graphs = [dgraph(entry.spec_text) for entry in mini_corpus]
    return graphs + [star_reduction(g) for g in graphs]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_relabelling_keeps_the_invariants_of_the_mini_corpus_graphs(
        mini_graphs, data):
    for g in mini_graphs:
        assert_relabelling_keeps_the_invariants(
            g, data.draw(st.permutations(range(g.n))))
