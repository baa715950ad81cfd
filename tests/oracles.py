"""Independent reference implementations the tests compare against."""

from itertools import combinations
from math import log2

from groupgraph.analytics import Graph, graph_from_edges
from groupgraph.bits import iter_bits, lowest_bit


def brute_force_subgroup_masks(group, max_generators=None) -> set[int]:
    """Closures of every generating set of bounded size.

    Any subgroup of a group of order n is generated by at most floor(log2 n)
    elements, since each extra generator at least doubles the subgroup.
    Only intended for small groups (the tests use it up to order 24).
    """
    if max_generators is None:
        max_generators = max(1, int(log2(max(group.order, 2))))
    masks = {1}
    nonidentity = range(1, group.order)
    for size in range(1, max_generators + 1):
        for combo in combinations(nonidentity, size):
            masks.add(group.subgroup_generated(combo))
    return masks


# -- small graphs and brute-force graph scans ----------------------------------


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << i) for i in range(n)))


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def find_induced_p4(g) -> tuple[int, int, int, int] | None:
    """Brute-force quartic scan for an induced path on four vertices."""
    for a in range(g.n):
        for b in iter_bits(g.adj[a]):
            for c in iter_bits(g.adj[b] & ~g.adj[a] & ~(1 << a)):
                tail = g.adj[c] & ~g.adj[a] & ~g.adj[b] & ~(1 << a) & ~(1 << b)
                if tail:
                    return (a, b, c, lowest_bit(tail))
    return None


def induces_cycle(g, vertices) -> bool:
    """Do ``vertices`` (in any order) induce one cycle in ``g``? That is:
    every vertex has exactly two neighbours among them, and they are
    connected."""
    mask = sum(1 << v for v in vertices)
    if len(vertices) < 3 or any((g.adj[v] & mask).bit_count() != 2
                                for v in vertices):
        return False
    seen = frontier = 1 << vertices[0]
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v] & mask
        frontier = nxt & ~seen
        seen |= nxt
    return seen == mask


def has_induced_odd_cycle(g, lengths=(5, 7, 9)) -> bool:
    """Is some vertex subset of a size in ``lengths`` an induced cycle?
    Tries every subset, so only meant for graphs of at most 10 vertices."""
    return any(induces_cycle(g, subset) for k in lengths
               for subset in combinations(range(g.n), k))


def is_induced_map_by_pairs(g1, g2, mapping) -> bool:
    """Does ``mapping`` send g1 isomorphically onto the subgraph of g2
    induced by its image? Asks every ordered pair of g1's vertices."""
    if len(mapping) != g1.n or not all(0 <= m < g2.n for m in mapping):
        return False
    for v in range(g1.n):
        for w in range(g1.n):
            if v == w:
                continue
            if mapping[v] == mapping[w]:
                return False
            if (g1.adj[v] >> w & 1) != (g2.adj[mapping[v]] >> mapping[w] & 1):
                return False
    return True


def networkx_invariants(g) -> dict:
    """Girth, component count, isolated count, clique and independence
    numbers of a bitset graph, computed by networkx."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((i, j) for i in range(g.n)
                     for j in iter_bits(g.adj[i]) if j > i)

    def omega(graph):
        return nx.max_weight_clique(graph, weight=None)[1] if g.n else 0

    return {"girth": nx.girth(h),
            "component_count": nx.number_connected_components(h),
            "isolated_count": nx.number_of_isolates(h),
            "clique_number": omega(h),
            "independence_number": omega(nx.complement(h))}


def report_invariants(report) -> dict:
    """The fields of an AnalysisReport that ``networkx_invariants`` gives."""
    return {key: getattr(report, key) for key in (
        "girth", "component_count", "isolated_count", "clique_number",
        "independence_number")}
