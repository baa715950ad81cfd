"""Independent reference implementations the tests compare against."""

from itertools import combinations
from math import factorial, lcm, log2

import numpy as np

from groupgraph import perms, specs
from groupgraph.analytics import Graph
from groupgraph.bits import (CHUNK_BYTES, bool_array_from_mask, iter_bits,
                             lowest_bit, row_blocks, rows_from_bool,
                             words_from_bool)
from groupgraph.classify import (_iwasawa_witness, derived_series_orders,
                                 derived_subgroup, is_dedekind)
from groupgraph.errors import GroupGraphError, NotNormal
from groupgraph.graphs import (KINDS, SubgroupGraph, build_graph,
                               star_reduction)
from groupgraph.groups import (DEFAULT_ORDER_CAP, FiniteGroup, is_abelian,
                               quotients, stabilizer_chain_order)
from groupgraph.lattice import Subgroup, _zuppos
from groupgraph.primes import is_prime


# -- small helpers the package itself does not need ----------------------------


def graph_from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError("no loops")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def perm_order(p) -> int:
    return lcm(*(len(c) for c in perms.cycles(p))) \
        if any(i != j for i, j in enumerate(p)) else 1


def is_solvable(group, lat=None) -> bool:
    return derived_series_orders(group)[-1] == 1


def is_iwasawa(group, lat) -> bool:
    """Every pair of subgroups permutes: HK = KH as sets."""
    if is_dedekind(group, lat):
        return True
    return _iwasawa_witness(lat) is None


def sylow_subgroups(lat, p: int) -> list[int]:
    if p not in lat.sylow_index:
        raise GroupGraphError(f"{p} does not divide the group order "
                              f"{lat.group.order}")
    return list(lat.sylow_index[p])


def mask_from_bool_array(arr: np.ndarray) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(),
                          "little")


def conjugate_rows(group, member: np.ndarray, g) -> np.ndarray:
    """Bool membership rows of the conjugates g H g^-1 of the subsets H
    given by the bool rows ``member`` (last axis over the elements).
    ``g`` is one conjugator, or an array of them whose axis comes just
    before the last. x lies in g H g^-1 exactly when g^-1 x g lies in H,
    so each image is ``member`` gathered at ``conj[inv[g]]``."""
    return member[..., group.conj[group.inv[g]]]


def conjugate_mask(group, mask: int, g: int) -> int:
    """The bitset g H g^-1 of the bitset H, through ``conjugate_rows``."""
    return mask_from_bool_array(
        conjugate_rows(group, bool_array_from_mask(mask, group.order), g))


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def power(p, k: int):
    """The k-th power of the permutation p, by repeated squaring."""
    if k < 0:
        return power(perms.inverse(p), -k)
    result = perms.identity(len(p))
    base = p
    while k:
        if k & 1:
            result = perms.compose(result, base)
        base = perms.compose(base, base)
        k >>= 1
    return result


def subgroup_generated(group, element_indices) -> int:
    """The bitset of the subgroup generated by the element indices."""
    idx = sorted(set(int(i) for i in element_indices) | {0})
    return group.closure_mask(idx, idx)


def shrink_generators(group, mask: int) -> list[int]:
    """Element indices that generate the subgroup with the bitset
    ``mask``, picked greedily in index order: each is the least member
    outside the subgroup generated by those before it. Empty for the
    trivial subgroup."""
    chosen: list[int] = []
    current = 1  # trivial subgroup mask (identity = index 0)
    for i in iter_bits(mask):
        if current == mask:
            break
        if not (current >> i) & 1:
            chosen.append(i)
            current = subgroup_generated(group, chosen)
    return chosen


def is_subgroup_mask(group, mask: int) -> bool:
    """Is the bitset a subgroup: holds the identity, closed under products."""
    member = bool_array_from_mask(mask, group.order)
    idx = np.flatnonzero(member)
    return bool(mask & 1) and bool(member[group.mul[np.ix_(idx, idx)]].all())


def normalizes(group, conjugators, member: np.ndarray) -> bool:
    """Does conjugation by each of the ``conjugators`` map the subset H
    with the bool membership row ``member`` into itself? One gather of
    ``conj`` at the conjugators and H's members."""
    conj = group.conj[np.ix_(conjugators, np.flatnonzero(member))]
    return bool(member[conj].all())


def normalizer_row_by_members(group, member: np.ndarray) -> np.ndarray:
    """``FiniteGroup.normalizer_row`` from every member rather than the
    generators: g lies in N(H) when g h g^-1 lies in H for each h in H,
    one gather of ``conj`` at H's members, a block of rows at a time."""
    idx = np.flatnonzero(member)
    conj = group.conj
    rows = np.empty(group.order, dtype=bool)
    for block in row_blocks(group.order, idx.size * conj.itemsize,
                            CHUNK_BYTES):
        rows[block] = member[conj[block, idx]].all(axis=1)
    return rows


def is_normal_mask(group, mask: int) -> bool:
    """Does conjugation by every generator map the bitset into itself?"""
    return normalizes(group, group.generator_indices(),
                      bool_array_from_mask(mask, group.order))


def quotient_with_projection(group, normal_mask: int):
    """The quotient G/N and the projection G -> G/N: ``quotients`` of the
    one subgroup."""
    return quotients(group, [normal_mask])[0]


def quotient_by_one_subgroup(group, normal_mask: int):
    """``quotient_with_projection`` one subgroup at a time: the subgroup
    test on the members' product table, the normality test by conjugating
    them, then the least element of each left coset x·N from
    ``left_coset_labels`` and the coset ids by ``searchsorted``."""
    if not is_subgroup_mask(group, normal_mask):
        raise NotNormal("quotient modulus is not a subgroup")
    if not is_normal_mask(group, normal_mask):
        raise NotNormal("quotient modulus is not normal")
    mul = group.mul
    members = np.flatnonzero(bool_array_from_mask(normal_mask, group.order))
    least = group.left_coset_labels(members)
    is_rep = np.zeros(group.order, dtype=bool)
    is_rep[least] = True
    reps = np.flatnonzero(is_rep)
    coset_id = np.searchsorted(reps, least)
    rows = [tuple(r) for r in coset_id[mul[reps[:, None], reps]].tolist()]
    quotient = FiniteGroup(
        [rows[coset_id[g]] for g in group.generator_indices()],
        spec_label=f"{group.spec_label}/N[{members.size}]",
        elements=rows)
    return quotient, coset_id


def quotient_group(group, normal_mask: int) -> FiniteGroup:
    """The action of the group on left cosets of a normal subgroup.

    Faithful for G/N; degree equals the index [G : N].
    """
    q, _ = quotient_with_projection(group, normal_mask)
    return q


def normalizer(lat, sid: int) -> int:
    """The id of the normalizer of subgroup ``sid``: the elements g with
    g H g^-1 = H, each conjugate taken one member at a time."""
    group, mask = lat.group, lat.mask_of(sid)
    return lat.index_of[sum(1 << g for g in range(group.order)
                            if conjugate_mask_by_bits(group, mask, g) == mask)]


def inclusion_by_rows(lat):
    """``member_words`` and ``supersets`` of a lattice built one subgroup
    at a time: members from each mask's bits, and the supersets of H from
    one subset test of H's words against every subgroup's."""
    order = lat.group.order
    member = np.zeros((len(lat.subgroups), order), dtype=bool)
    for i, s in enumerate(lat.subgroups):
        member[i, s.member_indices()] = True
    words = words_from_bool(member)
    supersets = []
    for i in range(len(words)):
        covered = ((words[i] & ~words) == 0).all(axis=1)
        supersets.append(int.from_bytes(
            np.packbits(covered, bitorder="little").tobytes(), "little"))
    return words, supersets


def conjugation_vertex_map_by_rows(lat, g: int) -> list[int]:
    """The permutation H -> g H g^-1 of the vertex positions, every
    vertex's member row conjugated in one gather and looked up by mask."""
    words = lat.member_words[1:lat.full_id]
    members = np.unpackbits(words.view(np.uint8), axis=1,
                            count=lat.group.order).view(bool)
    images = conjugate_rows(lat.group, members, g)
    return [lat.index_of[mask] - 1 for mask in rows_from_bool(images)]


def quotient_vertex_map_by_rows(lat, normal_id: int, emb) -> list[int]:
    """``quotient_embeddings``' vertex map, one vertex at a time: the
    member row of each subgroup S/N of the quotient pulled back through
    the projection, looked up by mask."""
    quotient, projection = quotient_with_projection(
        lat.group, lat.mask_of(normal_id))
    target = emb.target_graph
    return [target.vertex_pos[lat.index_of[mask_from_bool_array(
        bool_array_from_mask(emb.source_lattice.mask_of(sid),
                             quotient.order)[projection])]]
        for sid in emb.source_graph.vertices]


def complement_vertex_map_by_rows(lat, normal_id: int, emb) -> list[int]:
    """``semidirect_embedding``'s vertex map, one vertex at a time: the
    set product H K1 of each subgroup K1 of the complement, one ``mul``
    gather, looked up by mask."""
    group = lat.group
    h_idx = np.array(list(iter_bits(lat.mask_of(normal_id))), dtype=np.int64)
    out = []
    for sid in emb.source_graph.vertices:
        k1 = [group.element_index[emb.source_group.elements[i]]
              for i in iter_bits(emb.source_lattice.mask_of(sid))]
        member = np.zeros(group.order, dtype=bool)
        member[group.mul[np.ix_(h_idx, k1)]] = True
        out.append(emb.target_graph.vertex_pos[
            lat.index_of[mask_from_bool_array(member)]])
    return out


def closure_mask_by_cosets(group, seed_indices, generator_indices,
                           subgroup=None) -> int:
    """The subgroup generated by the generator indices, one closure at a
    time: Dimino's coset-wise closure from the product set H·seeds, with
    the member indices ``subgroup`` of a known subgroup H (whose
    generators are among the generator indices) or the trivial group as
    H. Each round takes one fresh element per new right coset; more than
    half the elements reached means the full group."""
    n = group.order
    mul = group.mul
    gens = np.asarray(list(generator_indices), dtype=np.int64)
    base = np.asarray([0] if subgroup is None else subgroup,
                      dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[base] = True
    count = int(base.size)
    half = n // 2
    frontier = np.zeros(1, dtype=np.int64)  # H itself, as the coset H·1
    fresh = np.asarray(list(seed_indices), dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    while True:
        fresh = fresh[~visited[fresh]]
        if fresh.size:
            cosets = mul[base[:, None], fresh]
            minima = cosets.min(axis=0)
            slot[minima] = np.arange(fresh.size)
            first = np.flatnonzero(slot[minima] == np.arange(fresh.size))
            visited[cosets[:, first]] = True
            count += int(base.size * first.size)
            if count > half:
                return (1 << n) - 1
            frontier = np.concatenate((frontier, fresh[first]))
        if not frontier.size:
            return mask_from_bool_array(visited)
        fresh = mul[frontier[:, None], gens].ravel()
        frontier = frontier[:0]


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
            masks.add(closure_mask_by_cosets(group, combo, combo))
    return masks


def per_element_tables(group) -> dict[str, np.ndarray]:
    """``inv``, ``conj`` and ``element_orders`` computed one element at a
    time from the permutations themselves (``conj`` row by row)."""
    inv = np.array([group.element_index[perms.inverse(p)]
                    for p in group.elements], dtype=np.int64)
    mul = group.mul
    conj = np.empty_like(mul)
    for g in range(group.order):
        conj[g] = mul[mul[g], inv[g]]
    orders = np.array([perm_order(p) for p in group.elements],
                      dtype=np.int64)
    return {"inv": inv, "conj": conj, "element_orders": orders}


def composed_mul(group) -> np.ndarray:
    """``mul`` with every one of the n² products composed from the
    permutations, a block of rows at a time, looked up by the shortest
    distinguishing prefix of point images (one ``searchsorted`` per prefix
    position) and compared with the element found in full."""
    n, degree = group.order, group.degree
    points = np.array(group.elements,
                      dtype=np.min_scalar_type(max(degree - 1, 0)))
    points = points.reshape(n, degree)
    differ = points[1:] != points[:-1]
    depth = int(differ.argmax(axis=1).max()) + 1 if n > 1 else 0
    levels = []
    rank = np.zeros(n, dtype=np.int64)
    for t in range(depth):
        keys = rank * degree + points[:, t]
        levels.append(np.unique(keys))
        rank = np.searchsorted(levels[-1], keys)
    table = np.empty((n, n), dtype=np.uint16 if n <= 65535 else np.uint32)
    block = max(1, (1 << 16) // (n * max(degree, 1)))
    for start in range(0, n, block):
        rows = points[start:start + block]
        # composed[r, j] = rows[r] followed by points[j]
        composed = points[:, rows].transpose(1, 0, 2).reshape(
            len(rows) * n, degree)
        index = np.zeros(len(composed), dtype=np.int64)
        for t, level in enumerate(levels):
            index = np.searchsorted(level, index * degree + composed[:, t])
        np.minimum(index, n - 1, out=index)
        if not np.array_equal(points[index], composed):
            raise ValueError("a product is missing from the element table")
        table[start:start + len(rows)] = index.reshape(len(rows), n)
    return table


def conjugate_mask_by_bits(group, mask: int, g: int) -> int:
    """g H g^-1 as a bitset, one member of H at a time through ``conj[g]``."""
    row = group.conj[g]
    out = 0
    for i in iter_bits(mask):
        out |= 1 << int(row[i])
    return out


def conjugacy_class_by_bits(group, conjugators, sub):
    """The orbit of sub under conjugation by the conjugators, in the depth
    first order of ``lattice._conjugacy_class``, each subgroup conjugated
    one member at a time."""
    orbit = {sub.mask: sub}
    stack = [sub]
    while stack:
        s = stack.pop()
        for g in conjugators:
            mask = conjugate_mask_by_bits(group, s.mask, g)
            if mask not in orbit:
                t = Subgroup(mask, s.order,
                             tuple(int(group.conj[g, i]) for i in s.gen_hint))
                orbit[mask] = t
                stack.append(t)
    return list(orbit.values())


def derived_subgroup_mask(group, mask: int, gens=None) -> int:
    """Commutator subgroup of the subgroup H given by ``mask``, inside
    group; ``gens`` are element indices generating H, by default the
    generators of group, so that H must then be the whole group."""
    if gens is None:
        if mask != (1 << group.order) - 1:
            raise GroupGraphError(
                "the derived subgroup of a proper subgroup needs its generators")
        gens = group.generator_indices()
    return derived_subgroup(group, gens)[0]


def commutator_table_derived_mask(group, mask: int) -> int:
    """The derived subgroup from the whole |H| x |H| commutator table."""
    idx = np.array(list(iter_bits(mask)), dtype=np.int64)
    mul, inv = group.mul, group.inv
    step = mul[np.ix_(inv[idx], inv[idx])]
    step = mul[step, idx[:, None]]
    step = mul[step, idx[None, :]]
    comms = np.unique(step)
    return closure_mask_by_cosets(group, comms, comms)


def cyclic_extension_lattice(group):
    """Neubüser's cyclic extension with no shortcut: every class
    representative is joined by ``closure_mask_by_cosets`` with every zuppo
    outside it whose p-th power is inside it, unless an earlier join of
    prime index already holds that zuppo.

    Returns the ``(mask, order, gen_hint)`` triples in canonical order and
    the class label of each, numbered as ``all_subgroups`` numbers them.
    """
    n = group.order
    full_mask = (1 << n) - 1
    zgens, _, zpowers, zmembers, _ = _zuppos(group)
    zgen_idx = np.array(zgens, dtype=np.int64)
    zpow_idx = np.array(zpowers, dtype=np.int64)
    conjugators = [] if is_abelian(group) else group.generator_indices()
    trivial = Subgroup(1, 1, ())
    found = {trivial.mask: trivial}
    class_of = {trivial.mask: 0}
    reps = [trivial]
    for rep in reps:
        if rep.mask == full_mask:
            continue
        inside = bool_array_from_mask(rep.mask, n)
        members = np.flatnonzero(inside)
        skip = inside[zgen_idx] | ~inside[zpow_idx]
        for z in np.flatnonzero(~skip):
            if skip[z]:
                continue
            hint = rep.gen_hint + (zgens[z],)
            joined = closure_mask_by_cosets(group, zmembers[z], hint,
                                            members)
            if joined not in found:
                new = Subgroup(joined, joined.bit_count(), hint)
                for s in conjugacy_class_by_bits(group, conjugators, new):
                    found[s.mask] = s
                    class_of[s.mask] = len(reps)
                reps.append(new)
            if is_prime(joined.bit_count() // rep.order):
                skip |= bool_array_from_mask(joined, n)[zgen_idx]
    ordered = sorted(found.values(), key=lambda s: (s.order, s.mask))
    labels: dict[int, int] = {}
    return ([(s.mask, s.order, s.gen_hint) for s in ordered],
            [labels.setdefault(class_of[s.mask], len(labels))
             for s in ordered])


def left_coset_reps(group, mask: int) -> list[int]:
    """Minimal-index representative for each left coset x·N, in index order."""
    member_idx = np.array(list(iter_bits(mask)), dtype=np.int64)
    mul = group.mul
    seen = np.zeros(group.order, dtype=bool)
    reps = []
    for x in range(group.order):
        if not seen[x]:
            coset = mul[np.full(member_idx.shape, x), member_idx]
            seen[coset] = True
            reps.append(x)
    return reps


def bfs_quotient(group, normal_mask: int) -> FiniteGroup:
    """G/N as the permutation group that G's generators induce on the left
    cosets of N, its elements found by breadth-first closure. The caller
    checks that N is normal."""
    reps = left_coset_reps(group, normal_mask)
    mul = group.mul
    members = np.array(list(iter_bits(normal_mask)), dtype=np.int64)
    coset_id = np.empty(group.order, dtype=np.int64)
    for pos, r in enumerate(reps):
        coset_id[mul[np.full(members.shape, r), members]] = pos
    rep_idx = np.array(reps, dtype=np.int64)
    gens = [tuple(coset_id[mul[g, rep_idx]].tolist())
            for g in group.generator_indices()]
    return FiniteGroup(gens)


def quotient_differences(group, normal_mask: int) -> list[str]:
    """What ``quotient_with_projection`` gets different from ``bfs_quotient``
    and from the coset numbering it promises: element table, generators,
    table digest, row r sending point 0 to r, and the projection being the
    coset index (cosets numbered by least element, in index order)."""
    q, projection = quotient_with_projection(group, normal_mask)
    ref = bfs_quotient(group, normal_mask)
    reps = left_coset_reps(group, normal_mask)
    members = list(iter_bits(normal_mask))
    coset_id = [reps.index(min(int(group.mul[x, m]) for m in members))
                for x in range(group.order)]
    checks = {
        "elements": q.elements == ref.elements,
        "generators": q.generators == ref.generators,
        "table_digest": q.table_digest == ref.table_digest,
        "row order": all(row[0] == r for r, row in enumerate(q.elements)),
        "projection": projection.tolist() == coset_id,
    }
    return [name for name, ok in checks.items() if not ok]


def pairwise_graph(lat, kind: str) -> SubgroupGraph:
    """One of the four subgroup graphs, built one vertex pair at a time:
    <H, K> = G when no maximal subgroup contains both (read off
    ``supersets``), HK = G when |H||K| = |G||H n K| (on the masks)."""
    if kind == "difference_star":
        return star_reduction(pairwise_graph(lat, "difference"))
    vertices = tuple(lat.nontrivial_proper_ids())
    n = len(vertices)
    order = lat.group.order
    maximal_ids = lat.maximal_subgroups()
    above = []      # per vertex: bitset over maximal subgroups containing it
    masks = []
    orders = []
    for sid in vertices:
        above.append(sum(1 << pos for pos, m in enumerate(maximal_ids)
                         if lat.supersets[sid] >> m & 1))
        masks.append(lat.mask_of(sid))
        orders.append(lat.order_of(sid))
    adj = [0] * n
    for i in range(n):
        mi, oi, ai = masks[i], orders[i], above[i]
        for j in range(i + 1, n):
            joined = not (ai & above[j])
            if kind == "delta":
                edge = joined
            else:
                product_is_group = (
                    oi * orders[j] == order * (mi & masks[j]).bit_count())
                if kind == "gamma":
                    edge = product_is_group
                else:  # difference
                    edge = joined and not product_is_group
            if edge:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return SubgroupGraph(kind, lat, vertices, adj)


def pair_loop_mismatches(lat) -> list[str]:
    """The graph kinds whose ``build_graph`` vertices or rows differ from
    ``pairwise_graph``'s."""
    out = []
    for kind in KINDS:
        graph, ref = build_graph(lat, kind), pairwise_graph(lat, kind)
        if (graph.vertices, graph.adj) != (ref.vertices, ref.adj):
            out.append(kind)
    return out


# -- small graphs and brute-force graph scans ----------------------------------


def relabel(g, perm) -> Graph:
    """``g`` with each vertex v renamed ``perm[v]``."""
    adj = [0] * g.n
    for v in range(g.n):
        for w in iter_bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[w]
    return Graph(g.n, tuple(adj))


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


def networkx_graph(g):
    """A bitset graph as a ``networkx.Graph`` on vertices 0..n-1."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((i, j) for i in range(g.n)
                     for j in iter_bits(g.adj[i]) if j > i)
    return h


def networkx_invariants(g) -> dict:
    """Girth, component count, isolated count, clique and independence
    numbers of a bitset graph, computed by networkx.

    networkx's ``max_weight_clique`` recurses once per clique vertex, so
    alpha is the isolated count plus the alpha of the rest: the complement
    of a large edgeless graph would be a clique too deep for it."""
    import networkx as nx
    h = networkx_graph(g)
    isolates = list(nx.isolates(h))
    rest = h.copy()
    rest.remove_nodes_from(isolates)

    def omega(graph):
        return nx.max_weight_clique(graph, weight=None)[1] if len(graph) else 0

    return {"girth": nx.girth(h),
            "component_count": nx.number_connected_components(h),
            "isolated_count": len(isolates),
            "clique_number": omega(h),
            "independence_number": len(isolates) + omega(nx.complement(rest))}


def report_invariants(report) -> dict:
    """The fields of an AnalysisReport that ``networkx_invariants`` gives."""
    return {key: getattr(report, key) for key in (
        "girth", "component_count", "isolated_count", "clique_number",
        "independence_number")}


# -- realization by parts ------------------------------------------------------


def realize_by_parts(spec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """``specs.realize`` as it was before factors gave generators only:
    both parts of a direct or semidirect product are realized as groups,
    each with its own order check and certificate, and the product reads
    their generators, degrees and orders. Other constructors take their
    generators from ``specs._KINDS``; the order formulas are written out
    here on their own."""
    if isinstance(spec, str):
        spec = specs.parse_group_spec(spec)
    kind, args = spec.kind, spec.args
    if kind == "direct":
        a, b = (realize_by_parts(part, order_cap) for part in args)
        degree = a.degree + b.degree
        gens = [perms.pad(g, degree) for g in a.generators]
        gens += [perms.shift(g, a.degree, degree) for g in b.generators]
        group = FiniteGroup(gens, order_cap=order_cap)
        expected = a.order * b.order
    elif kind == "semidirect":
        normal, acting = (realize_by_parts(part, order_cap)
                          for part in args[:2])
        group = specs._realize_semidirect(normal, acting,
                                          specs.ACTIONS[args[2]], order_cap)
        expected = normal.order * acting.order
    else:
        group = FiniteGroup(specs._KINDS[kind].generators(order_cap, *args),
                            order_cap=order_cap)
        n = args[0]
        expected = {
            "cyclic": lambda: n, "dihedral": lambda: 2 * n,
            "dicyclic": lambda: 4 * n, "symmetric": lambda: factorial(n),
            "alternating": lambda: max(1, factorial(n) // 2),
            "elem_abelian": lambda: n ** args[-1],
            "psl2": lambda: n * (n * n - 1) // (1 if n % 2 == 0 else 2),
            "raw": lambda: group.order,
        }[kind]()
    group.spec_label = str(spec)
    if group.order != expected \
            or stabilizer_chain_order(group.generators) != group.order:
        raise GroupGraphError(f"{spec}: order {group.order}, expected "
                              f"{expected}")
    return group


def realization_fingerprint(group) -> tuple:
    """What a realization must reproduce: elements, generators, label and
    the semidirect part masks."""
    return (group.elements, group.generators, group.spec_label,
            group.semidirect_normal_mask, group.semidirect_complement_mask)
