"""Exact graph invariants on bitset-adjacency graphs.

Works on anything exposing ``n`` (vertex count) and ``adj`` (per-vertex
neighbor bitsets): both SubgroupGraph and the plain Graph here qualify.

The clique and independence solvers are exact branch-and-bound searches
with greedy-coloring upper bounds and a node-expansion budget; when the
budget runs out they raise BudgetExceeded instead of returning an
approximation. ``analyze`` runs them only on the non-isolated vertices and
counts the isolated ones, and ``reduced_report`` derives the report of the
graph without its isolated vertices (D* from D) from the full graph's
report instead of a second sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import bool_rows, iter_bits, lowest_bit, rows_from_bool
from .errors import BudgetExceeded, CriteriaDisagreement, GroupGraphError

DEFAULT_SOLVER_BUDGET = 5_000_000
DEFAULT_ISO_BUDGET = 200_000

INF = math.inf


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]


def complement(g) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~g.adj[i] & ~(1 << i) for i in range(g.n)))


def edge_count(g) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def degree_sequence(g) -> list[int]:
    return sorted((row.bit_count() for row in g.adj), reverse=True)


def components(g) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    return [list(iter_bits(comp))
            for comp in _components_within(g.adj, (1 << g.n) - 1, False)]


def without_isolated(g) -> tuple[list[int], list[int]]:
    """g minus its isolated vertices: (kept vertices in ascending order,
    their rows renumbered in that order). Reuses g's rows when no vertex
    is isolated."""
    keep = [v for v, row in enumerate(g.adj) if row]
    if len(keep) == g.n:
        return keep, list(g.adj)
    return keep, rows_from_bool(
        bool_rows([g.adj[v] for v in keep], g.n).take(keep, axis=1))


def is_connected(g) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def girth(g):
    """Length of a shortest cycle; math.inf for forests.

    A triangle is an edge (i, j) whose rows share a neighbor, so that test
    runs first on whole rows. Triangle-free graphs get a per-root BFS; the
    candidate cycle through the root found at each cross edge is exact at
    some root on a shortest cycle.
    """
    for i, row in enumerate(g.adj):
        for j in iter_bits(row >> (i + 1)):
            if row & g.adj[i + 1 + j]:
                return 3
    best = INF
    for root in range(g.n):
        if best == 4:
            break
        dist = {root: 0}
        frontier = [root]
        d = 0
        while frontier and 2 * d < best - 1:
            nxt = []
            for u in frontier:
                for w in iter_bits(g.adj[u]):
                    if w not in dist:
                        dist[w] = d + 1
                        nxt.append(w)
                    elif dist[w] >= d:
                        best = min(best, d + dist[w] + 1)
            frontier = nxt
            d += 1
    return best


def is_bipartite(g) -> bool:
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in iter_bits(g.adj[u]):
                    if w not in color:
                        color[w] = color[u] ^ 1
                        nxt.append(w)
                    elif color[w] == color[u]:
                        return False
            frontier = nxt
    return True


def triangle_count(g) -> int:
    total = 0
    for i in range(g.n):
        for j in iter_bits(g.adj[i]):
            if j > i:
                total += (g.adj[i] & g.adj[j] & ~((1 << (j + 1)) - 1)).bit_count()
    return total


def universal_vertices(g) -> list[int]:
    """Vertices adjacent to all others. On a single-vertex graph the vertex
    is vacuously universal."""
    full = (1 << g.n) - 1
    return [v for v in range(g.n) if g.adj[v] == full & ~(1 << v)]


def is_cycle(g) -> tuple[bool, int | None]:
    if g.n < 3 or edge_count(g) != g.n:
        return False, None
    if any(row.bit_count() != 2 for row in g.adj):
        return False, None
    if not is_connected(g):
        return False, None
    return True, g.n


# -- exact clique / independence ----------------------------------------------


def max_clique(g, budget: int = DEFAULT_SOLVER_BUDGET) -> tuple[int, list[int]]:
    """Exact maximum clique (size, witness). Deterministic: vertices are
    explored in descending-degree order with id tiebreaks.

    The graph is renumbered into that order once, by two takes of its
    adjacency matrix, rows then columns. The search is depth-first with an
    explicit stack: each open node holds its clique size, its candidates
    and its candidates' greedy coloring, and its children are entered from
    the highest color down until the coloring bound fails. Every node entered
    counts against ``budget``. A vertex adjacent to itself raises
    GroupGraphError: the greedy seed would take it forever.
    """
    n = g.n
    if any(row >> v & 1 for v, row in enumerate(g.adj)):
        raise GroupGraphError("the clique search needs a graph without loops")
    if n == 0:
        return 0, []
    order = sorted(range(n), key=lambda v: (-g.adj[v].bit_count(), v))
    adj = rows_from_bool(bool_rows(g.adj, n).take(order, 0).take(order, 1))

    # greedy clique seeds the incumbent
    cand = (1 << n) - 1
    greedy = []
    while cand:
        v = lowest_bit(cand)
        greedy.append(v)
        cand &= adj[v]
    best = len(greedy)
    best_list = greedy[:]

    nodes = 0
    clique: list[int] = []
    # open nodes: [clique size, candidates left, (vertex, color) to enter]
    open_nodes: list[list] = []
    p = (1 << n) - 1
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"clique search exceeded {budget} node expansions")
        if p:
            open_nodes.append([len(clique), p, _greedy_coloring(p, adj)])
        elif len(clique) > best:
            best = len(clique)
            best_list = clique[:]
        # enter the next child of the deepest open node that has one
        while open_nodes:
            node = open_nodes[-1]
            rsize, p, seq = node
            del clique[rsize:]
            if seq and rsize + seq[-1][1] > best:
                v = seq.pop()[0]
                node[1] = p & ~(1 << v)
                clique.append(v)
                p &= adj[v]
                break
            open_nodes.pop()
        else:
            return best, sorted(order[v] for v in best_list)


def _greedy_coloring(p: int, adj) -> list[tuple[int, int]]:
    """Greedy coloring of the vertices of ``p`` in id order, as (vertex,
    color) pairs in assignment order, so with nondecreasing colors."""
    seq: list[tuple[int, int]] = []
    uncolored = p
    c = 0
    while uncolored:
        c += 1
        avail = uncolored
        while avail:
            v = lowest_bit(avail)
            seq.append((v, c))
            uncolored &= ~(1 << v)
            avail &= ~(1 << v) & ~adj[v]
    return seq


def clique_number(g, budget: int = DEFAULT_SOLVER_BUDGET) -> int:
    return max_clique(g, budget)[0]


def independence_number(g, budget: int = DEFAULT_SOLVER_BUDGET) -> int:
    return max_clique(complement(g), budget)[0]


# -- forbidden-subgraph recognizers -------------------------------------------


def find_claw(g) -> tuple[int, int, int, int] | None:
    """An induced K_{1,3} as (center, leaf, leaf, leaf), or None."""
    for v in range(g.n):
        nbrs = g.adj[v]
        for u in iter_bits(nbrs):
            higher = nbrs & ~((1 << (u + 1)) - 1) & ~g.adj[u]
            for w in iter_bits(higher):
                rest = (nbrs & ~g.adj[u] & ~g.adj[w]
                        & ~(1 << u) & ~(1 << w)
                        & ~((1 << (w + 1)) - 1))
                if rest:
                    return (v, u, w, lowest_bit(rest))
    return None


def is_clawfree(g) -> bool:
    return find_claw(g) is None


def is_cograph(g) -> bool:
    """Complement-reduction recursion: a graph on >= 2 vertices is a cograph
    iff it or its complement is disconnected and all parts are cographs."""
    if g.n <= 1:
        return True
    full_row = (1 << g.n) - 1
    stack = [full_row]
    while stack:
        mask = stack.pop()
        if mask.bit_count() <= 3:
            continue
        parts = _components_within(g.adj, mask, False)
        if len(parts) == 1:
            parts = _components_within(g.adj, mask, True)
            if len(parts) == 1:
                return False
        stack.extend(parts)
    return True


def _components_within(adj, mask: int, complemented: bool) -> list[int]:
    out = []
    unseen = mask
    while unseen:
        start = lowest_bit(unseen)
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                row = ~adj[v] & ~(1 << v) if complemented else adj[v]
                nxt |= row & mask
            frontier = nxt & ~comp
            comp |= nxt & mask
        unseen &= ~comp
        out.append(comp)
    return out


def has_induced_c4(g) -> bool:
    for a in range(g.n):
        nonadj = ~g.adj[a] & ~((1 << (a + 1)) - 1)
        for c in iter_bits(nonadj & ((1 << g.n) - 1)):
            common = g.adj[a] & g.adj[c]
            for b in iter_bits(common):
                if common & ~g.adj[b] & ~(1 << b):
                    return True
    return False


def find_odd_hole_or_antihole(g, max_length: int = 11,
                              budget: int = DEFAULT_SOLVER_BUDGET) -> tuple[str, tuple[int, ...]] | None:
    """Bounded perfectness scan: an induced odd cycle of length 5..max_length
    in the graph ("hole") or its complement ("antihole"), or None. Not a
    full perfection test.

    Both kinds of witness are connected in ``g`` (the complement of C_k is
    connected for k >= 5), so each lies inside one connected component.
    The scan searches only components of at least 5 vertices and takes the
    complement inside each component. Start vertices are still tried in
    ascending order and every search visits the in-component paths in the
    same order as a scan of the whole graph and its complement, so the
    witness is the same as that scan's. ``budget`` bounds the path
    extensions of each of the two scans; skipping small components and
    paths that leave a component can only lower that count.
    """
    # vertex -> mask of its component, 0 when the component is too small
    comp_of = [0] * g.n
    for comp in _components_within(g.adj, (1 << g.n) - 1, False):
        if comp.bit_count() >= 5:
            for v in iter_bits(comp):
                comp_of[v] = comp
    anti = [comp_of[v] & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    for tag, adj in (("hole", g.adj), ("antihole", anti)):
        found = _find_odd_hole(adj, comp_of, max_length, budget)
        if found:
            return tag, found
    return None


def _find_odd_hole(adj, comp_of: list[int], max_length: int, budget: int):
    """Depth-first search for an induced cycle over chordless paths from
    each start a through vertices of a's component above a. ``blocked`` is
    the union of the neighborhoods of the path's interior vertices: a
    candidate in it would be a chord."""
    nodes = 0

    def extend(path: list[int], allowed: int, blocked: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("odd-hole scan exceeded its budget")
        last = path[-1]
        cand = allowed & adj[last] & ~blocked
        witness = None
        if len(path) >= 2:
            # a candidate adjacent to the start closes an induced cycle on
            # len(path) + 1 vertices; no induced path continues through it
            closers = cand & adj[path[0]]
            cand &= ~closers
            if closers and len(path) >= 4 and len(path) % 2 == 0:
                c = lowest_bit(closers)
                cand &= (1 << c) - 1  # smaller candidates are searched first
                witness = tuple(path) + (c,)
            blocked |= adj[last]
        if len(path) + 1 < max_length:
            for v in iter_bits(cand):
                hit = extend(path + [v], allowed & ~(1 << v), blocked)
                if hit:
                    return hit
        return witness

    for a, comp in enumerate(comp_of):
        if comp:
            hit = extend([a], comp & ~((1 << (a + 1)) - 1), 0)
            if hit:
                return hit
    return None


# -- isomorphism ---------------------------------------------------------------


def _refine_colors(gs, colors_pair):
    """Joint one-dimensional refinement of two graphs' vertex colorings.
    Returns stable colorings or None when the color histograms diverge."""
    colors1, colors2 = colors_pair
    while True:
        sigs = []
        for g, colors in ((gs[0], colors1), (gs[1], colors2)):
            sigs.append([
                (colors[v], tuple(sorted(colors[w] for w in iter_bits(g.adj[v]))))
                for v in range(g.n)])
        palette = sorted(set(sigs[0]) | set(sigs[1]))
        code = {sig: i for i, sig in enumerate(palette)}
        new1 = [code[s] for s in sigs[0]]
        new2 = [code[s] for s in sigs[1]]
        if sorted(new1) != sorted(new2):
            return None
        if new1 == colors1 and new2 == colors2:
            return colors1, colors2
        colors1, colors2 = new1, new2


def graphs_isomorphic(g1, g2, budget: int = DEFAULT_ISO_BUDGET) -> bool:
    """Exact isomorphism via invariant prefilter, partition refinement and
    individualization backtracking."""
    if g1.n != g2.n:
        return False
    if edge_count(g1) != edge_count(g2):
        return False
    if degree_sequence(g1) != degree_sequence(g2):
        return False
    if sorted(len(c) for c in components(g1)) != sorted(len(c) for c in components(g2)):
        return False
    if triangle_count(g1) != triangle_count(g2):
        return False
    if g1.n == 0:
        return True
    nodes = 0

    def backtrack(colors1, colors2) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"isomorphism search exceeded {budget} nodes")
        refined = _refine_colors((g1, g2), (colors1, colors2))
        if refined is None:
            return False
        colors1, colors2 = refined
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors1):
            classes.setdefault(c, []).append(v)
        target_class = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target_class = c
                break
        if target_class is None:
            mapping = [0] * g1.n
            slot = {c: v for v, c in enumerate(colors2)}
            for v, c in enumerate(colors1):
                mapping[v] = slot[c]
            return is_induced_map(g1, g2, mapping)
        fresh = max(colors1) + 1
        v = classes[target_class][0]
        for w in range(g2.n):
            if colors2[w] != target_class:
                continue
            c1 = list(colors1)
            c2 = list(colors2)
            c1[v] = fresh
            c2[w] = fresh
            if backtrack(c1, c2):
                return True
        return False

    degrees1 = [g1.adj[v].bit_count() for v in range(g1.n)]
    degrees2 = [g2.adj[v].bit_count() for v in range(g2.n)]
    return backtrack(degrees1, degrees2)


def is_induced_map(g1, g2, mapping) -> bool:
    """Is ``mapping`` (vertex v of g1 -> vertex mapping[v] of g2) an
    isomorphism of g1 onto the subgraph of g2 induced by its image? That
    is: one image per vertex of g1, injective, in range, and v ~ w in g1
    exactly when mapping[v] ~ mapping[w] in g2.

    Compares whole rows: g1's adjacency matrix against the image rows of
    g2 restricted to the image columns. Only the image rows of g2 are
    unpacked, so a small g1 costs little against a large g2."""
    if len(mapping) != g1.n or len(set(mapping)) != g1.n \
            or not all(0 <= m < g2.n for m in mapping):
        return False
    image_rows = bool_rows([g2.adj[m] for m in mapping], g2.n)
    columns = np.asarray(mapping, dtype=np.int64)
    return bool((bool_rows(g1.adj, g1.n) == image_rows[:, columns]).all())


# -- the report ----------------------------------------------------------------


@dataclass
class AnalysisReport:
    vertex_count: int
    edge_count: int
    isolated_count: int
    component_count: int
    girth: int | float
    bipartite: bool
    clique_number: int | None
    independence_number: int | None
    clawfree: bool
    cograph: bool
    universal_vertices: list[int]
    is_cycle: bool
    cycle_length: int | None
    degree_sequence: list[int]
    unverified: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "isolated_count": self.isolated_count,
            "component_count": self.component_count,
            "girth": "inf" if self.girth == INF else int(self.girth),
            "bipartite": self.bipartite,
            "clique_number": self.clique_number,
            "independence_number": self.independence_number,
            "clawfree": self.clawfree,
            "cograph": self.cograph,
            "universal_vertices": list(self.universal_vertices),
            "is_cycle": self.is_cycle,
            "cycle_length": self.cycle_length,
            "degree_sequence": list(self.degree_sequence),
        }
        if self.unverified:
            out["unverified"] = list(self.unverified)
        return out


def analyze(g, *, clique_budget: int = DEFAULT_SOLVER_BUDGET,
            indep_budget: int = DEFAULT_SOLVER_BUDGET,
            allow_unverified: bool = False) -> AnalysisReport:
    """Full invariant sweep of one graph.

    The exact solvers see only the non-isolated vertices: an isolated
    vertex lies in every maximum independent set and in no edge, so
    alpha = isolated + alpha(rest) and omega = omega(rest), or 1 for an
    edgeless graph with vertices and 0 for the empty graph. An edgeless
    graph calls no solver.
    """
    unverified: list[str] = []
    _, rows = without_isolated(g)
    rest = Graph(len(rows), tuple(rows))
    isolated = g.n - rest.n
    omega: int | None = min(g.n, 1)
    alpha: int | None = isolated
    if rest.n:
        try:
            omega = clique_number(rest, clique_budget)
        except BudgetExceeded:
            if not allow_unverified:
                raise
            omega = None
            unverified.append("clique_number")
        try:
            alpha = isolated + independence_number(rest, indep_budget)
        except BudgetExceeded:
            if not allow_unverified:
                raise
            alpha = None
            unverified.append("independence_number")
    cyc, cyc_len = is_cycle(g)
    report = AnalysisReport(
        vertex_count=g.n,
        edge_count=edge_count(g),
        isolated_count=isolated,
        component_count=len(components(g)),
        girth=girth(g),
        bipartite=is_bipartite(g),
        clique_number=omega,
        independence_number=alpha,
        clawfree=is_clawfree(g),
        cograph=is_cograph(g),
        universal_vertices=universal_vertices(g),
        is_cycle=cyc,
        cycle_length=cyc_len,
        degree_sequence=degree_sequence(g),
        unverified=unverified,
    )
    _check_report(report)
    return report


def reduced_report(report: AnalysisReport, reduced) -> AnalysisReport:
    """The report of ``reduced``, the graph that ``report`` describes with
    its isolated vertices removed (D* of D), equal to ``analyze(reduced)``
    under the same budgets without a second sweep.

    Isolated vertices lie on no edge, cycle, claw or induced path, so the
    edge count, girth, bipartiteness, claw-freeness, cograph test, clique
    number and the non-trivial components carry over; alpha loses one per
    isolated vertex. ``analyze`` ran its solvers on exactly ``reduced``, so
    an unverified invariant stays unverified. Only the universal vertices
    and the cycle test need ``reduced`` itself.
    """
    if reduced.n != report.vertex_count - report.isolated_count:
        raise CriteriaDisagreement(
            f"reduced graph has {reduced.n} vertices, expected "
            f"{report.vertex_count} - {report.isolated_count} isolated")
    alpha = report.independence_number
    cyc, cyc_len = is_cycle(reduced)
    out = AnalysisReport(
        vertex_count=reduced.n,
        edge_count=report.edge_count,
        isolated_count=0,
        component_count=report.component_count - report.isolated_count,
        girth=report.girth,
        bipartite=report.bipartite,
        clique_number=report.clique_number if reduced.n else 0,
        independence_number=None if alpha is None
        else alpha - report.isolated_count,
        clawfree=report.clawfree,
        cograph=report.cograph,
        universal_vertices=universal_vertices(reduced),
        is_cycle=cyc,
        cycle_length=cyc_len,
        degree_sequence=report.degree_sequence[:reduced.n],
        unverified=list(report.unverified),
    )
    _check_report(out)
    return out


def _check_report(r: AnalysisReport) -> None:
    """Raise CriteriaDisagreement when invariants computed by independent
    routines contradict each other."""
    if r.clique_number is not None and \
            (r.clique_number >= 2) != (r.edge_count >= 1):
        raise CriteriaDisagreement(
            f"clique number {r.clique_number} with {r.edge_count} edges")
    if r.independence_number is not None and \
            r.independence_number < r.isolated_count:
        raise CriteriaDisagreement(
            f"independence number {r.independence_number} below "
            f"{r.isolated_count} isolated vertices")
    if r.bipartite and r.girth != INF and r.girth % 2 == 1:
        raise CriteriaDisagreement(f"bipartite with odd girth {r.girth}")
    if r.bipartite and r.is_cycle and r.cycle_length % 2 == 1:
        raise CriteriaDisagreement(
            f"bipartite odd cycle of length {r.cycle_length}")
