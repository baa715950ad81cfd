"""The four graphs on nontrivial proper subgroups.

Vertices are always the nontrivial proper subgroups of G. Two distinct
vertices H, K are adjacent in:

* the join graph (delta) when <H, K> = G,
* the comaximal graph (gamma) when the set product HK equals G,
* the difference graph when <H, K> = G but HK != G,
* the reduced difference graph (difference_star): the difference graph
  with isolated vertices removed.

A join equals G exactly when no maximal subgroup contains both endpoints,
so delta adjacency is a disjointness test on per-vertex bitsets over the
maximal subgroups. The set product HK always has |H||K| / |H n K| elements,
so gamma adjacency is a popcount test: HK = G when |H||K| = |G||H n K|.

``build_graph`` runs both tests on packed uint64 words: the lattice's
member words, and per vertex the words of the maximal subgroups above it,
the vertex's ``supersets`` (the AND of ``contains`` over its generator
hint) masked to the maximal ids. The join test ORs together 2-d
(block, n) ANDs one word at a time and compares with 0 at the end, the
words of every vertex transposed once. The popcount test runs only where it
can pass. |H||K| = |G||H n K| is a multiple of |G| when HK = G, so at
least |G|, and the vertices are sorted by order: a block of rows is
popcounted, one word at a time, only against the columns from the first
whose order times the block's largest order reaches |G|. On psl2(8) that
is 2,413 of the 147,456 vertex pairs (1,008 have |H||K| divisible by
|G|). The pass goes by blocks of rows, sized so that the temporaries,
counted per pair, stay within CHUNK_BYTES. Unchunked, a temporary grows
with the square of the vertex count, 64 MB for the 2,823 vertices of
elem_abelian(2,6); chunked, memory stays flat. No BLAS and no thread is
used.

The conjugation, complement and quotient vertex maps find each image from
generators, by the lattice's ``smallest_holding``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import cache as cache_mod, perms
from .analytics import is_induced_map, without_isolated
from .bits import (CHUNK_BYTES, bool_rows, iter_bits, row_blocks,
                   rows_from_bool, words_from_bool)
from .errors import GroupGraphError, NotNormal
from .groups import FiniteGroup, quotients, subgroup_group
from .lattice import SubgroupLattice, all_subgroups

KINDS = ("gamma", "delta", "difference", "difference_star")


@dataclass
class SubgroupGraph:
    kind: str
    lattice: SubgroupLattice
    vertices: tuple[int, ...]          # subgroup ids
    adj: list[int]                     # bitsets over vertex positions
    vertex_pos: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.vertex_pos = {sid: i for i, sid in enumerate(self.vertices)}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, row in enumerate(self.adj):
            for j in iter_bits(row):
                if j > i:
                    out.append((i, j))
        return out

    def isolated(self) -> list[int]:
        return [i for i, row in enumerate(self.adj) if row == 0]


def build_graph(lat: SubgroupLattice, kind: str) -> SubgroupGraph:
    """Construct one of the four subgroup graphs."""
    if kind not in KINDS:
        raise GroupGraphError(f"unknown graph kind {kind!r}")
    if kind == "difference_star":
        return star_reduction(build_graph(lat, "difference"))
    vertices = tuple(lat.nontrivial_proper_ids())
    n = len(vertices)
    # vertex ids run from 1 to full_id - 1, so their rows are one slice
    words = lat.member_words[1:lat.full_id]
    supersets = lat.supersets[1:lat.full_id]
    maximal = lat.maximal_subgroups()
    above = np.zeros((n, (len(maximal) + 63) // 64), dtype=np.uint64)
    for rows in row_blocks(n, len(lat.subgroups), CHUNK_BYTES):
        above[rows] = words_from_bool(bool_rows(
            supersets[rows], len(lat.subgroups))[:, maximal])
    columns = above.T.copy()  # each word of every vertex, contiguous
    order = lat.group.order
    sizes = [lat.order_of(sid) for sid in vertices]
    orders = np.array(sizes, dtype=np.int64)
    adj: list[int] = []
    # per pair: the edge bit, and 17 bytes of temporaries: the join
    # test's OR and AND words and the comparison, or a meet (its int64
    # count, then one word's AND and its popcount, or the int64 product
    # and the comparison)
    for rows in row_blocks(n, 18 * n, CHUNK_BYTES):
        stop = min(rows.stop, n)
        if kind == "gamma":
            edges = np.zeros((stop - rows.start, n), dtype=bool)
        else:  # <H, K> = G: no maximal subgroup above both
            hit = above[rows, 0, None] & columns[0]
            for k in range(1, above.shape[1]):
                hit |= above[rows, k, None] & columns[k]
            edges = hit == 0
        # HK = G needs |H||K| = |G||H n K| >= |G|, and the vertices are
        # sorted by order: the block's partners are the columns from the
        # first whose order times the block's largest reaches |G|
        cols = slice(bisect_left(sizes, -(-order // sizes[stop - 1])), n)
        if kind != "delta" and cols.start < n:
            meets = np.zeros((len(edges), n - cols.start), dtype=np.int64)
            for k in range(words.shape[1]):
                meets += np.bitwise_count(words[rows, k, None] & words[cols, k])
            meets *= order
            # HK = G exactly when |H||K| = |G||H n K|
            products = np.multiply.outer(orders[rows], orders[cols])
            if kind == "gamma":
                edges[:, cols] = products == meets
            else:
                edges[:, cols] &= products != meets
        adj.extend(rows_from_bool(edges))
    return SubgroupGraph(kind, lat, vertices, adj)


def star_reduction(graph: SubgroupGraph) -> SubgroupGraph:
    """Difference graph with isolated vertices removed."""
    if graph.kind != "difference":
        raise GroupGraphError("star reduction applies to the difference graph")
    keep, adj = without_isolated(graph)
    return SubgroupGraph("difference_star", graph.lattice,
                         tuple(graph.vertices[i] for i in keep), adj)


def conjugation_vertex_map(lat: SubgroupLattice, g_elem: int) -> list[int]:
    """The permutation H -> g H g^-1 of the standard vertex set (all
    nontrivial proper subgroups), as a list over vertex positions: the
    smallest subgroup holding g hint(H) g^-1, of the order of H. Vertex
    ids run from 1 to full_id - 1, so position = id - 1."""
    return [sid - 1 for sid in lat.smallest_holding(
        lat.subgroups[1:lat.full_id], lat.group.conj[g_elem].tolist())]


def non_automorphisms(graph: SubgroupGraph, mappings) -> list[int]:
    """The positions of the ``mappings`` that are not vertex permutations
    preserving adjacency; the rows are unpacked once for all."""
    adj = bool_rows(graph.adj, graph.n)
    identity = list(range(graph.n))
    return [pos for pos, m in enumerate(mappings) if sorted(m) != identity
            or not (adj.take(m, 0).take(m, 1) == adj).all()]


@dataclass
class GraphEmbedding:
    """An injection of the difference graph of a smaller group into D(G)."""
    source_group: FiniteGroup
    source_lattice: SubgroupLattice
    source_graph: SubgroupGraph
    target_graph: SubgroupGraph
    vertex_map: list[int]  # source vertex position -> target position

    def is_induced_isomorphism(self) -> bool:
        return is_induced_map(self.source_graph, self.target_graph,
                              self.vertex_map)


def _embedding(lat: SubgroupLattice, source: FiniteGroup,
               target: SubgroupGraph | None, lift: list[int], over: int,
               memo: dict | None, cache_dir=None) -> GraphEmbedding:
    """D(source) mapped into D(G) (``target``, built when None): each
    subgroup S of the source goes to the smallest subgroup of G holding
    the subgroup ``over`` and the ``lift`` (source element index -> G's)
    of the hint of S, which must be of order |over||S|.

    ``memo`` maps the ``table_digest`` of a source to its lattice and
    difference graph. A source whose element table is already in it is
    not enumerated again; the lattice then belongs to an earlier group with
    the same table, whose subgroup masks are the same. A source that is
    not in it is read from the lattice cache in ``cache_dir``, or
    enumerated and written there, as ``cache.load_or_compute`` does for
    any group; without a ``cache_dir`` it is enumerated. The source itself
    is still realized by the caller, never derived from G's lattice.
    """
    memo = {} if memo is None else memo
    key = source.table_digest
    if key not in memo:
        source_lat = all_subgroups(source) if cache_dir is None \
            else cache_mod.load_or_compute(source, cache_dir)[0]
        memo[key] = source_lat, build_graph(source_lat, "difference")
    source_lat, source_graph = memo[key]
    if target is None:
        target = build_graph(lat, "difference")
    vertex_map = [target.vertex_pos[sid] for sid in lat.smallest_holding(
        [source_lat.subgroups[sid] for sid in source_graph.vertices], lift,
        over)]
    return GraphEmbedding(source, source_lat, source_graph, target, vertex_map)


def quotient_embeddings(lat: SubgroupLattice, normal_ids,
                        target: SubgroupGraph | None = None,
                        memo: dict | None = None,
                        cache_dir=None) -> list[GraphEmbedding]:
    """For each normal subgroup N of ``normal_ids``, D(G/N) mapped onto the
    subgroups of G containing N, H/N -> H: the smallest subgroup holding N
    and a lift of the hint of H/N. The quotients are built together, by
    one ``groups.quotients`` pass; each gets its own vertex map."""
    for sid in normal_ids:
        if not lat.is_normal[sid]:
            raise NotNormal(f"subgroup {sid} is not normal")
        if sid in (lat.trivial_id, lat.full_id):
            raise NotNormal(
                "quotient embedding needs a nontrivial proper subgroup")
    if target is None:
        target = build_graph(lat, "difference")
    out = []
    for sid, (quotient, projection) in zip(normal_ids, quotients(
            lat.group, [lat.mask_of(sid) for sid in normal_ids])):
        lift = np.empty(quotient.order, dtype=np.int64)
        lift[projection] = np.arange(lat.group.order)  # any one per coset
        out.append(_embedding(lat, quotient, target, lift.tolist(), sid,
                              memo, cache_dir))
    return out


def semidirect_embedding(lat: SubgroupLattice,
                         normal_id: int | None = None,
                         complement_id: int | None = None,
                         target: SubgroupGraph | None = None,
                         memo: dict | None = None,
                         cache_dir=None) -> GraphEmbedding:
    """For G = H x| K, map D(K) into D(G) by K1 -> H K1: the smallest
    subgroup holding H and the hint of K1, of order |H||K1|.

    Defaults to the parts recorded by the semidirect constructor; explicit
    ids are validated (H normal, H n K trivial, |H||K| = |G|).
    """
    group = lat.group
    if normal_id is None or complement_id is None:
        if group.semidirect_normal_mask is None:
            raise GroupGraphError(
                f"{group.spec_label} was not realized as a semidirect product; "
                "pass normal_id and complement_id explicitly")
        normal_id = lat.index_of[group.semidirect_normal_mask]
        complement_id = lat.index_of[group.semidirect_complement_mask]
    h_mask, k_mask = lat.mask_of(normal_id), lat.mask_of(complement_id)
    if not lat.is_normal[normal_id]:
        raise NotNormal("the designated part H is not normal")
    if h_mask & k_mask != 1 or \
            lat.order_of(normal_id) * lat.order_of(complement_id) != group.order:
        raise GroupGraphError("K is not a complement of H")
    k_group = subgroup_group(group, k_mask,
                             gen_hint=lat.subgroups[complement_id].gen_hint)
    return _embedding(lat, k_group, target, [
        group.element_index[p] for p in k_group.elements], normal_id, memo,
        cache_dir)


# -- serialization -----------------------------------------------------------

def vertex_label(graph: SubgroupGraph, pos: int) -> str:
    lat = graph.lattice
    sid = graph.vertices[pos]
    sub = lat.subgroups[sid]
    gens = ", ".join(
        perms.format_cycles(lat.group.elements[i]) for i in sub.gen_hint) or "()"
    return f"{sub.order}:<{gens}>"


def to_dot(graph: SubgroupGraph) -> str:
    """DOT source; vertex labels carry subgroup order and generator hint."""
    lines = [f"graph {graph.kind} {{"]
    for i in range(graph.n):
        lines.append(f'  v{i} [label="{vertex_label(graph, i)}"];')
    for i, j in graph.edges():
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(graph: SubgroupGraph) -> dict:
    """Vertices and edges named by lattice id (``to_dot`` numbers both by
    position)."""
    return {
        "kind": graph.kind,
        "group": graph.lattice.group.spec_label,
        "vertex_count": graph.n,
        "vertices": [
            {"id": int(sid), "order": graph.lattice.order_of(sid),
             "label": vertex_label(graph, i)}
            for i, sid in enumerate(graph.vertices)],
        "edges": [[graph.vertices[i], graph.vertices[j]]
                  for i, j in graph.edges()],
    }
