"""Executable checks for the verified statements, a corpus runner, and
hunts for the open problems.

Each registry entry evaluates one statement against one group bundle and
returns vacuous / confirmed / counterexample (or unverified when a needed
exact invariant ran out of budget on a long-tier group). Implications are
material conditionals: a group that fails the hypothesis is reported
vacuous, never confirmed, so summary counts show how much of the corpus
actually exercises each statement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import analytics as an
from .bits import lowest_bit
from .classify import GroupClassification, classify, is_abelian
from .corpus import TIER_BOUNDS, Corpus, tier_allows, tier_of_order
from .errors import (ActionTableError, BudgetExceeded, GroupGraphError,
                     RealizeError)
from .graphs import (SubgroupGraph, build_graph, conjugation_vertex_map,
                     non_automorphisms, quotient_embeddings,
                     semidirect_embedding, star_reduction)
from .groups import FiniteGroup
from .lattice import SubgroupLattice
from .specs import (ACTIONS, GroupSpec, _automorphism_from_images,
                    _realize_semidirect, parse_group_spec, realize)
from . import cache as cache_mod

QUOTIENT_EMBED_MAX_INDEX = 24
QUOTIENT_EMBED_MAX_COUNT = 12
HOLE_SCAN_BUDGET = 2_000_000


@dataclass
class Budgets:
    clique: int = an.DEFAULT_SOLVER_BUDGET
    independence: int = an.DEFAULT_SOLVER_BUDGET


@dataclass
class GroupBundle:
    label: str
    group: FiniteGroup
    lattice: SubgroupLattice
    classification: GroupClassification
    difference: SubgroupGraph
    star: SubgroupGraph
    report: an.AnalysisReport
    star_report: an.AnalysisReport
    # table digest -> (lattice, difference graph) of the quotients and
    # complements that T-2.2f/T-2.2g embed; one dict per run, shared by
    # the run's bundles
    embedding_sources: dict = field(repr=False)
    # the lattice cache that those sources are read from and written to
    cache_dir: str | None = field(default=None, repr=False)


@dataclass
class TheoremVerdict:
    theorem_id: str
    group_label: str
    status: str                 # vacuous | confirmed | counterexample | unverified
    witness: tuple = ()
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {"status": self.status}
        if self.witness:
            out["witness"] = [str(w) for w in self.witness]
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class TheoremCheck:
    id: str
    statement: str
    evaluate: callable = field(repr=False)


def build_bundle(label: str, spec: FiniteGroup | GroupSpec | str, *,
                 budgets: Budgets | None = None,
                 cache_dir: str | None = None,
                 allow_unverified: bool | None = None,
                 embedding_sources: dict | None = None) -> GroupBundle:
    """Compute everything the checks consume for a group, realizing it
    first when ``spec`` is a spec rather than a realized group. Only a
    group realized here gets ``label`` prefixed to its ``spec_label``.

    ``embedding_sources`` is the memo of embedded source lattices that
    the bundle's checks read and fill (see ``graphs._embedding``); a
    bundle built without one gets its own. A source missing from it goes
    through the lattice cache in ``cache_dir``, like the group's own
    lattice. ``analyze`` runs once, on D;
    the D* report is derived from it."""
    budgets = budgets or Budgets()
    if isinstance(spec, FiniteGroup):
        group = spec
    else:
        group = _labelled(label, realize(spec))
    lat, _ = cache_mod.load_or_compute(group, cache_dir)
    cls = classify(group, lat)
    difference = build_graph(lat, "difference")
    star = star_reduction(difference)
    if allow_unverified is None:
        allow_unverified = tier_of_order(group.order) == "long"
    report = an.analyze(difference, clique_budget=budgets.clique,
                        indep_budget=budgets.independence,
                        allow_unverified=allow_unverified)
    return GroupBundle(label, group, lat, cls, difference, star, report,
                       an.reduced_report(report, star),
                       {} if embedding_sources is None else embedding_sources,
                       cache_dir)


def _labelled(label: str, group: FiniteGroup) -> FiniteGroup:
    """Prefix ``label`` to the spec label of a group realized for it."""
    if label:
        group.spec_label = f"{label}={group.spec_label}"
    return group


# -- evaluator helpers --------------------------------------------------------

def _verdict(tid, bundle, status, witness=(), note=""):
    return TheoremVerdict(tid, bundle.label, status, tuple(witness), note)


def _implication(tid, bundle, *, vacuous, conclusion, witness=(), note=""):
    if vacuous:
        return _verdict(tid, bundle, "vacuous")
    if conclusion:
        return _verdict(tid, bundle, "confirmed", note=note)
    return _verdict(tid, bundle, "counterexample", witness, note)


def _normal_vertex_ids(bundle):
    lat = bundle.lattice
    return [sid for sid in lat.nontrivial_proper_ids() if lat.is_normal[sid]]


# -- the registry -------------------------------------------------------------

def _t_22a(bundle):
    d = bundle.difference
    normals = _normal_vertex_ids(bundle)
    bad = [sid for sid in normals if d.adj[d.vertex_pos[sid]] != 0]
    return _implication("T-2.2a", bundle,
                        vacuous=not normals, conclusion=not bad, witness=bad[:3])


def _t_22b(bundle):
    lat, d = bundle.lattice, bundle.difference
    targets = [m for m in lat.maximal_subgroups() if not lat.is_normal[m]]
    bad = []
    for m in targets:
        for c in lat.conjugates(m):
            if c != m and not d.adj[d.vertex_pos[m]] >> d.vertex_pos[c] & 1:
                bad.append((m, c))
    return _implication("T-2.2b", bundle,
                        vacuous=not targets, conclusion=not bad, witness=bad[:3])


def _t_22c(bundle):
    # automorphism property composes, so verifying the generator maps
    # verifies every conjugation map
    d = bundle.difference
    if d.edge_count() == 0:
        return _verdict("T-2.2c", bundle, "vacuous")
    gens = bundle.group.generator_indices()
    bad = [gens[pos] for pos in non_automorphisms(
        d, [conjugation_vertex_map(bundle.lattice, g) for g in gens])]
    return _implication("T-2.2c", bundle, vacuous=False,
                        conclusion=not bad, witness=bad,
                        note="checked on generator conjugations")


def _t_22d(bundle):
    d = bundle.difference
    leaves = [i for i in range(d.n) if d.degree(i) == 1]
    return _implication("T-2.2d", bundle, vacuous=d.edge_count() == 0,
                        conclusion=not leaves, witness=leaves[:3])


def _t_22e(bundle):
    d = bundle.difference
    degrees = [d.degree(i) for i in range(d.n)]
    count = Counter(degrees)
    bad = [i for i, deg in enumerate(degrees) if deg > 0 and count[deg] == 1]
    return _implication("T-2.2e", bundle, vacuous=d.edge_count() == 0,
                        conclusion=not bad, witness=bad[:3])


def _t_22f(bundle):
    if bundle.group.semidirect_normal_mask is None:
        return _verdict("T-2.2f", bundle, "vacuous",
                        note="not realized as a semidirect product")
    emb = semidirect_embedding(bundle.lattice, target=bundle.difference,
                               memo=bundle.embedding_sources,
                               cache_dir=bundle.cache_dir)
    if emb.source_graph.n == 0:
        return _verdict("T-2.2f", bundle, "vacuous",
                        note="complement has no nontrivial proper subgroups")
    ok = emb.is_induced_isomorphism()
    return _implication("T-2.2f", bundle, vacuous=False, conclusion=ok,
                        witness=() if ok else ("embedding not induced",))


def _t_22g(bundle):
    lat = bundle.lattice
    candidates = [sid for sid in _normal_vertex_ids(bundle)
                  if bundle.group.order // lat.order_of(sid)
                  <= QUOTIENT_EMBED_MAX_INDEX]
    candidates = candidates[:QUOTIENT_EMBED_MAX_COUNT]
    if not candidates:
        return _verdict("T-2.2g", bundle, "vacuous")
    bad = [sid for sid, emb in zip(candidates, quotient_embeddings(
        lat, candidates, target=bundle.difference,
        memo=bundle.embedding_sources, cache_dir=bundle.cache_dir))
        if not emb.is_induced_isomorphism()]
    note = f"checked {len(candidates)} normal subgroup(s) with index <= " \
           f"{QUOTIENT_EMBED_MAX_INDEX}"
    return _implication("T-2.2g", bundle, vacuous=False,
                        conclusion=not bad, witness=bad[:3], note=note)


def _conjugate_edge_split(bundle):
    """The first edge (i, j), i < j, in ``edges()`` order between conjugate
    vertices and the first between non-conjugate ones (None when absent),
    read off each row against its vertex's conjugacy-class bitset. The
    first row with such a neighbor has none below itself (that neighbor's
    row would come first), so its lowest one is j."""
    lat, d = bundle.lattice, bundle.difference
    classes = [lat.conj_class_of[sid] for sid in d.vertices]
    class_rows: dict[int, int] = {}
    for pos, c in enumerate(classes):
        class_rows[c] = class_rows.get(c, 0) | 1 << pos
    conj_edge = nonconj_edge = None
    for i, row in enumerate(d.adj):
        same = row & class_rows[classes[i]]
        if same and conj_edge is None:
            conj_edge = (i, lowest_bit(same))
        if row & ~same and nonconj_edge is None:
            nonconj_edge = (i, lowest_bit(row & ~same))
        if conj_edge and nonconj_edge:
            break
    return conj_edge, nonconj_edge


def _t_23(bundle):
    d = bundle.difference
    edges = d.edge_count()
    if edges == 0:
        return _verdict("T-2.3", bundle, "vacuous")
    conj_edge, nonconj_edge = _conjugate_edge_split(bundle)
    if conj_edge and edges < 3:
        return _verdict("T-2.3", bundle, "counterexample", conj_edge,
                        "conjugate edge but fewer than 3 edges")
    if nonconj_edge and edges < 4:
        return _verdict("T-2.3", bundle, "counterexample", nonconj_edge,
                        "non-conjugate edge but fewer than 4 edges")
    return _verdict("T-2.3", bundle, "confirmed")


def _t_24a(bundle):
    if not bundle.classification.nilpotent \
            or bundle.difference.edge_count() == 0:
        return _verdict("T-2.4a", bundle, "vacuous")
    conj_edge, _ = _conjugate_edge_split(bundle)
    return _implication("T-2.4a", bundle, vacuous=False,
                        conclusion=conj_edge is None,
                        witness=(conj_edge,) if conj_edge else ())


def _t_24b(bundle):
    vac = (not bundle.classification.nilpotent
           or bundle.difference.edge_count() == 0)
    return _implication("T-2.4b", bundle, vacuous=vac,
                        conclusion=vac or an.has_induced_c4(bundle.difference))


def _t_25(bundle):
    d = bundle.difference
    if d.n < 2:
        return _verdict("T-2.5", bundle, "vacuous")
    connected = bundle.report.component_count == 1
    simple = bundle.classification.simple
    if connected == simple:
        return _verdict("T-2.5", bundle, "confirmed")
    return _verdict("T-2.5", bundle, "counterexample",
                    (f"connected={connected}", f"simple={simple}"))


def _t_26(bundle):
    rep = bundle.report
    hyp = rep.edge_count == 0 or rep.girth != 3 or rep.bipartite
    return _implication("T-2.6", bundle, vacuous=not hyp,
                        conclusion=bundle.classification.nilpotent)


def _t_27(bundle):
    return _implication("T-2.7", bundle,
                        vacuous=bundle.report.edge_count > 0,
                        conclusion=bundle.classification.nilpotent)


def _t_28(bundle):
    rep = bundle.report
    return _implication("T-2.8", bundle, vacuous=rep.edge_count == 0,
                        conclusion=rep.girth in (3, 4),
                        witness=(f"girth={rep.girth}",))


def _t_29(bundle):
    rep = bundle.report
    return _implication("T-2.9", bundle, vacuous=rep.vertex_count < 3,
                        conclusion=not rep.is_cycle)


def _t_210(bundle):
    rep = bundle.report
    return _implication("T-2.10", bundle, vacuous=rep.vertex_count < 2,
                        conclusion=not rep.universal_vertices,
                        witness=tuple(rep.universal_vertices[:3]))


def _elementary_abelian(lat, sid, q):
    group = lat.group
    idx = np.array(lat.subgroups[sid].member_indices(), dtype=np.int64)
    orders = group.element_orders[idx]
    if not np.isin(orders, (1, q)).all():
        return False
    block = group.mul[np.ix_(idx, idx)]
    return bool((block == block.T).all())


def _split_shape(bundle, *, beta_one: bool):
    """Does G look like (elementary abelian q-group) extended by a cyclic
    maximal Sylow p-subgroup? Returns the (p, q) assignment or None."""
    lat = bundle.lattice
    primes = sorted(lat.sylow_index)
    if len(primes) != 2:
        return None
    for p in primes:
        q = primes[0] if p == primes[1] else primes[1]
        syl_q = lat.sylow_index[q]
        if len(syl_q) != 1 or not lat.is_normal[syl_q[0]]:
            continue
        if not _elementary_abelian(lat, syl_q[0], q):
            continue
        if beta_one and lat.order_of(syl_q[0]) != q:
            continue
        p_rep = lat.sylow_index[p][0]
        if lat.is_cyclic_subgroup(p_rep) and lat.is_maximal[p_rep]:
            return p, q
    return None


def _star_complete(bundle):
    srep = bundle.star_report
    return (srep.vertex_count >= 2 and
            srep.edge_count == srep.vertex_count * (srep.vertex_count - 1) // 2)


def _t_31(bundle):
    srep = bundle.star_report
    if srep.vertex_count < 2 or not srep.universal_vertices:
        return _verdict("T-3.1", bundle, "vacuous")
    return _implication("T-3.1", bundle, vacuous=False,
                        conclusion=_split_shape(bundle, beta_one=False)
                        is not None)


def _t_32(bundle):
    if not _star_complete(bundle):
        return _verdict("T-3.2", bundle, "vacuous")
    return _implication("T-3.2", bundle, vacuous=False,
                        conclusion=_split_shape(bundle, beta_one=True)
                        is not None)


def _t_33(bundle):
    if not _star_complete(bundle):
        return _verdict("T-3.3", bundle, "vacuous")
    shape = _split_shape(bundle, beta_one=True)
    if shape is None:
        return _verdict("T-3.3", bundle, "counterexample",
                        ("no split shape",))
    p, q = shape
    n_p = len(bundle.lattice.sylow_index[p])
    ok = n_p == q == bundle.star_report.vertex_count
    return _implication("T-3.3", bundle, vacuous=False, conclusion=ok,
                        witness=(f"n_{p}={n_p}", f"q={q}",
                                 f"vertices={bundle.star_report.vertex_count}"))


def _t_34(bundle):
    srep = bundle.star_report
    return _implication("T-3.4", bundle, vacuous=not srep.is_cycle,
                        conclusion=srep.cycle_length in (3, 4),
                        witness=(f"length={srep.cycle_length}",))


def _t_41(bundle):
    return _implication("T-4.1", bundle, vacuous=not bundle.report.clawfree,
                        conclusion=bundle.classification.supersolvable)


def _t_42(bundle):
    return _implication("T-4.2", bundle, vacuous=not bundle.report.cograph,
                        conclusion=bundle.classification.solvable)


def _alpha_check(tid, bound, conclusion_of):
    def evaluate(bundle):
        rep = bundle.report
        if rep.edge_count == 0:
            return _verdict(tid, bundle, "vacuous")
        if rep.independence_number is None:
            return _verdict(tid, bundle, "unverified",
                            note="independence number exceeded its budget")
        if rep.independence_number > bound:
            return _verdict(tid, bundle, "vacuous")
        return _implication(tid, bundle, vacuous=False,
                            conclusion=conclusion_of(bundle.classification),
                            witness=(f"alpha={rep.independence_number}",))
    return evaluate


def _omega_check(tid, bound, conclusion_of):
    def evaluate(bundle):
        rep = bundle.report
        if rep.clique_number is None:
            return _verdict(tid, bundle, "unverified",
                            note="clique number exceeded its budget")
        if rep.clique_number > bound:
            return _verdict(tid, bundle, "vacuous")
        return _implication(tid, bundle, vacuous=False,
                            conclusion=conclusion_of(bundle.classification),
                            witness=(f"omega={rep.clique_number}",))
    return evaluate


REGISTRY: dict[str, TheoremCheck] = {}


def _register(tid, statement, evaluate):
    REGISTRY[tid] = TheoremCheck(tid, statement, evaluate)


_register("T-2.2a", "every nontrivial proper normal subgroup is an isolated "
          "vertex of the difference graph", _t_22a)
_register("T-2.2b", "a non-normal maximal subgroup is adjacent to each of "
          "its conjugates in the difference graph", _t_22b)
_register("T-2.2c", "conjugation by any group element is an automorphism of "
          "the difference graph", _t_22c)
_register("T-2.2d", "the difference graph has no vertex of degree exactly "
          "one", _t_22d)
_register("T-2.2e", "every non-isolated vertex shares its degree with some "
          "other vertex", _t_22e)
_register("T-2.2f", "for G = H x| K, the difference graph of K embeds as an "
          "induced subgraph of the difference graph of G", _t_22f)
_register("T-2.2g", "for normal N, the difference graph of G/N embeds as an "
          "induced subgraph of the difference graph of G", _t_22g)
_register("T-2.3", "an edge between conjugate subgroups forces at least 3 "
          "edges; between non-conjugates, at least 4", _t_23)
_register("T-2.4a", "in a nilpotent group no two conjugate subgroups are "
          "adjacent", _t_24a)
_register("T-2.4b", "in a nilpotent group, any edge forces an induced "
          "4-cycle", _t_24b)
_register("T-2.5", "the difference graph is connected exactly when the "
          "group is simple", _t_25)
_register("T-2.6", "a triangle-free or bipartite difference graph forces a "
          "nilpotent group", _t_26)
_register("T-2.7", "an edgeless difference graph forces a nilpotent group",
          _t_27)
_register("T-2.8", "a difference graph with an edge has girth 3 or 4", _t_28)
_register("T-2.9", "the difference graph is never a cycle", _t_29)
_register("T-2.10", "the difference graph has no universal vertex", _t_210)
_register("T-3.1", "a universal vertex in the reduced difference graph "
          "forces the shape: elementary abelian normal Sylow q-subgroup "
          "extended by a cyclic maximal Sylow p-subgroup", _t_31)
_register("T-3.2", "a complete reduced difference graph forces that shape "
          "with Sylow q-subgroup of order exactly q", _t_32)
_register("T-3.3", "a complete reduced difference graph has exactly "
          "n_p = q vertices", _t_33)
_register("T-3.4", "if the reduced difference graph is a cycle, its length "
          "is 3 or 4", _t_34)
_register("T-4.1", "a clawfree difference graph forces a supersolvable "
          "group", _t_41)
_register("T-4.2", "a cograph difference graph forces a solvable group",
          _t_42)
_register("T-5.1", "an edge and independence number <= 5 force a "
          "non-nilpotent group", _alpha_check(
              "T-5.1", 5, lambda c: not c.nilpotent))
_register("T-5.2", "an edge and independence number <= 13 force a p-group "
          "or a non-nilpotent group", _alpha_check(
              "T-5.2", 13, lambda c: c.p_group is not None or not c.nilpotent))
_register("T-5.3", "an edge and independence number <= 3 force a "
          "supersolvable group", _alpha_check(
              "T-5.3", 3, lambda c: c.supersolvable))
_register("T-5.4", "an edge and independence number <= 14 force a solvable "
          "group", _alpha_check("T-5.4", 14, lambda c: c.solvable))
_register("T-6.1", "clique number <= 4 forces a supersolvable group",
          _omega_check("T-6.1", 4, lambda c: c.supersolvable))
_register("T-6.2", "clique number <= 7 forces a solvable group",
          _omega_check("T-6.2", 7, lambda c: c.solvable))


def verify(check: TheoremCheck, bundle: GroupBundle) -> TheoremVerdict:
    """Evaluate one statement against one group bundle."""
    verdict = check.evaluate(bundle)
    if verdict.status == "counterexample" and not verdict.witness:
        verdict.witness = (bundle.label,)
    return verdict


def registry_table() -> list[dict]:
    return [{"id": c.id, "statement": c.statement} for c in REGISTRY.values()]


# -- corpus runs ---------------------------------------------------------------

@dataclass
class RunReport:
    tier: str
    manifest_sha256: str
    version: str
    theorem_ids: list[str]
    labels: list[str]
    orders: dict[str, int]
    verdicts: dict[str, dict[str, TheoremVerdict]]

    def counterexamples(self) -> list[TheoremVerdict]:
        return [v for label in self.labels
                for v in self.verdicts[label].values()
                if v.status == "counterexample"]

    def unverified(self) -> list[TheoremVerdict]:
        return [v for label in self.labels
                for v in self.verdicts[label].values()
                if v.status == "unverified"]

    def summary(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {
            tid: {"confirmed": 0, "vacuous": 0, "counterexample": 0,
                  "unverified": 0} for tid in self.theorem_ids}
        for label in self.labels:
            for tid, v in self.verdicts[label].items():
                out[tid][v.status] += 1
        return out

    def exit_code(self) -> int:
        if self.counterexamples():
            return 2
        if self.unverified():
            return 3
        return 0

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "manifest_sha256": self.manifest_sha256,
            "tier": self.tier,
            "theorems": self.theorem_ids,
            "groups": [
                {"label": label, "order": self.orders[label]}
                for label in self.labels],
            "verdicts": {
                label: {tid: v.to_json_dict()
                        for tid, v in self.verdicts[label].items()}
                for label in self.labels},
            "summary": self.summary(),
            "exit_code": self.exit_code(),
        }

    def to_text(self) -> str:
        glyph = {"confirmed": "C", "vacuous": ".", "counterexample": "X",
                 "unverified": "U"}
        width = max((len(label) for label in self.labels), default=5)
        lines = [f"tier={self.tier} groups={len(self.labels)} "
                 f"manifest={self.manifest_sha256[:12]} version={self.version}"]
        header = " " * (width + 1) + " ".join(
            tid.removeprefix("T-") for tid in self.theorem_ids)
        lines.append(header)
        for label in self.labels:
            cells = []
            for tid in self.theorem_ids:
                pad = len(tid.removeprefix("T-"))
                cells.append(glyph[self.verdicts[label][tid].status].ljust(pad))
            lines.append(label.ljust(width + 1) + " ".join(cells))
        lines.append("")
        for tid, counts in self.summary().items():
            lines.append(
                f"{tid}: confirmed={counts['confirmed']} "
                f"vacuous={counts['vacuous']} "
                f"counterexample={counts['counterexample']} "
                f"unverified={counts['unverified']}")
        for v in self.counterexamples():
            lines.append(f"COUNTEREXAMPLE {v.theorem_id} on {v.group_label}: "
                         f"{v.witness}")
        for v in self.unverified():
            lines.append(f"UNVERIFIED {v.theorem_id} on {v.group_label}: "
                         f"{v.note}")
        return "\n".join(lines) + "\n"


def sweep(corpus: Corpus, checks=(), hunts=(), tier: str = "fast", *,
          budgets: Budgets | None = None, cache_dir: str | None = None
          ) -> tuple[RunReport, list[HuntFinding]]:
    """The verdicts of ``checks`` and the findings of ``hunts`` (ids of
    ``HUNTS``, in the given order) in one pass over the corpus groups in
    the tier, in manifest order. An unknown tier or hunt id raises
    GroupGraphError before any spec is realized; a spec that cannot be
    realized raises RealizeError naming its label.

    Each group is realized once and gets one ``build_bundle`` call, and
    its verdict row is computed right away. Bundles are kept only for
    hunts, so a verify-only sweep holds one bundle at a time. One memo of
    embedded source lattices serves the whole sweep. An exact solver
    that runs out of budget gives None, reported as unverified.

    There is no pool: bundle work is Python that holds the interpreter
    lock, so threads only add waiting. Nor is there a process pool: on a
    warm ``run_corpus`` + ``hunt`` pass over the fast tier (2-core
    x86_64) a forked two-process pool cut wall time to 0.72-0.98 s from
    0.82-1.32 s serial but spent 1.27-1.74 s of CPU against 0.82-1.33 s,
    and it would split the memo. ``threads`` (the CLI's ``--threads``) on
    ``run_corpus`` and ``hunt`` is accepted and ignored.
    """
    from . import __version__
    if tier not in TIER_BOUNDS:
        raise GroupGraphError(f"unknown tier {tier!r}")
    for t in hunts:
        if t not in HUNTS:
            raise GroupGraphError(f"unknown hunt target {t!r}")
    embedding_sources: dict = {}
    kept: list[GroupBundle] = []
    orders: dict[str, int] = {}
    verdicts: dict[str, dict[str, TheoremVerdict]] = {}
    for entry in corpus:
        try:
            group = _labelled(entry.label, realize(entry.spec))
        except GroupGraphError as exc:
            raise RealizeError(f"{entry.label}: {exc}") from exc
        if not tier_allows(tier, group.order):
            continue
        bundle = build_bundle(entry.label, group, budgets=budgets,
                              cache_dir=cache_dir, allow_unverified=True,
                              embedding_sources=embedding_sources)
        orders[entry.label] = group.order
        verdicts[entry.label] = {c.id: verify(c, bundle) for c in checks}
        if hunts:
            kept.append(bundle)
        # neither name may hold this group while the next one is built
        del group, bundle
    report = RunReport(tier=tier, manifest_sha256=corpus.manifest_sha256,
                       version=__version__, theorem_ids=[c.id for c in checks],
                       labels=list(orders), orders=orders, verdicts=verdicts)
    return report, [f for t in hunts for f in HUNTS[t](kept)]


def run_corpus(corpus: Corpus, checks=None, tier: str = "fast", *,
               budgets: Budgets | None = None, threads: int = 1,
               cache_dir: str | None = None) -> RunReport:
    """The verdict matrix of the registry (or ``checks``) over the
    corpus groups in the tier: a ``sweep`` without hunts. ``threads`` is
    ignored (see ``sweep``)."""
    if checks is None:
        checks = list(REGISTRY.values())
    return sweep(corpus, checks, tier=tier, budgets=budgets,
                 cache_dir=cache_dir)[0]


# -- hunts ----------------------------------------------------------------------

@dataclass
class HuntFinding:
    target: str
    groups: tuple[str, ...]
    status: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"target": self.target, "groups": list(self.groups),
                "status": self.status, "detail": self.detail}


def _hunt_h1(bundles):
    findings = []
    for b in bundles:
        if b.star.n == 0:
            continue
        connected = b.star_report.component_count == 1
        if not b.classification.nilpotent:
            findings.append(HuntFinding(
                "H-1", (b.label,),
                "supporting" if connected else "counterexample",
                f"non-nilpotent, reduced difference graph "
                f"{'connected' if connected else 'disconnected'} "
                f"({b.star_report.component_count} components)"))
        elif not connected:
            findings.append(HuntFinding(
                "H-1", (b.label,), "outside-hypothesis",
                f"nilpotent group with disconnected reduced difference graph "
                f"({b.star_report.component_count} components); the "
                f"non-nilpotency hypothesis is necessary"))
    return findings


def _hunt_h2(bundles):
    findings = []
    for b in bundles:
        p = b.classification.p_group
        if p is None or p == 2 or b.report.edge_count == 0:
            continue
        findings.append(HuntFinding(
            "H-2", (b.label,),
            "supporting" if b.report.girth == 3 else "counterexample",
            f"odd-prime {p}-group with an edge, girth={b.report.girth}"))
    return findings


def _hunt_h3(bundles):
    findings = []
    with_edges = [b for b in bundles if b.report.edge_count > 0]
    connected = [b.label for b in with_edges
                 if b.report.component_count == 1 and b.report.vertex_count > 1]
    findings.append(HuntFinding(
        "H-3", tuple(connected), "coverage-note",
        "connected difference graphs in this corpus; pairs outside this "
        "list cannot exercise the connected-graph conjecture"))
    buckets: dict[tuple, list] = {}
    for b in with_edges:
        key = (b.report.vertex_count, b.report.edge_count,
               tuple(b.report.degree_sequence))
        buckets.setdefault(key, []).append(b)
    for key in sorted(buckets):
        group_list = buckets[key]
        for b1, b2 in combinations(group_list, 2):
            try:
                iso = an.graphs_isomorphic(b1.difference, b2.difference)
            except BudgetExceeded:
                findings.append(HuntFinding(
                    "H-3", (b1.label, b2.label), "unverified",
                    "isomorphism search exceeded its budget"))
                continue
            if not iso:
                continue
            both_connected = (b1.report.component_count == 1
                              and b2.report.component_count == 1)
            if both_connected:
                same_order = b1.group.order == b2.group.order
                findings.append(HuntFinding(
                    "H-3", (b1.label, b2.label),
                    "supporting" if same_order else "counterexample",
                    "isomorphic connected difference graphs; group orders "
                    + ("match (group isomorphism not decided here)"
                       if same_order else "differ, refuting the conjecture")))
            else:
                findings.append(HuntFinding(
                    "H-3", (b1.label, b2.label), "supporting",
                    "isomorphic but disconnected difference graphs; "
                    "consistent with the conjecture's connectivity "
                    "restriction"))
            if b1.classification.nilpotent or b2.classification.nilpotent:
                agree = (b1.classification.nilpotent
                         == b2.classification.nilpotent)
                findings.append(HuntFinding(
                    "H-3", (b1.label, b2.label),
                    "supporting" if agree else "counterexample",
                    "nilpotency transfer across isomorphic difference "
                    "graphs" if agree else "nilpotency does not transfer"))
    return findings


def _hunt_h4(bundles):
    """Bounded perfectness scan of each difference graph with an edge but
    a cograph, which has no induced P4: four consecutive vertices of a hole
    on 5 or more vertices induce a P4, and in the antihole they induce its
    complement, which is a P4 again."""
    findings = []
    for b in bundles:
        if b.report.edge_count == 0:
            continue
        try:
            hole = None if b.report.cograph else an.find_odd_hole_or_antihole(
                b.difference, max_length=11, budget=HOLE_SCAN_BUDGET)
        except BudgetExceeded:
            findings.append(HuntFinding(
                "H-4", (b.label,), "unverified",
                "bounded odd-hole scan exceeded its budget"))
            continue
        if hole is not None:
            continue  # graph is imperfect or undecided-above-bound: vacuous
        if b.classification.solvable:
            findings.append(HuntFinding(
                "H-4", (b.label,), "supporting",
                "no odd hole/antihole up to length 11 (bounded-check only) "
                "and the group is solvable"))
        else:
            findings.append(HuntFinding(
                "H-4", (b.label,), "counterexample-candidate",
                "non-solvable group whose difference graph passed the "
                "bounded perfectness scan (bounded-check only; lengths > 11 "
                "were not examined)"))
    return findings


def _hunt_h5(bundles):
    findings = []
    for b in bundles:
        if b.classification.solvable:
            continue
        omega = b.report.clique_number
        if omega is None:
            findings.append(HuntFinding(
                "H-5", (b.label,), "unverified",
                "clique number exceeded its budget"))
        else:
            findings.append(HuntFinding(
                "H-5", (b.label,),
                "supporting" if omega > 15 else "counterexample",
                f"non-solvable group with clique number {omega}"))
    return findings


HUNTS = {"H-1": _hunt_h1, "H-2": _hunt_h2, "H-3": _hunt_h3,
         "H-4": _hunt_h4, "H-5": _hunt_h5}


def hunt(target: str, corpus: Corpus, *, tier: str = "fast",
         budgets: Budgets | None = None, cache_dir: str | None = None,
         threads: int = 1) -> list[HuntFinding]:
    """Evaluate one open-problem target (or 'all') over the corpus: the
    findings of a ``sweep`` without checks. ``threads`` is ignored (see
    ``sweep``)."""
    targets = tuple(HUNTS) if target == "all" else (target,)
    return sweep(corpus, hunts=targets, tier=tier, budgets=budgets,
                 cache_dir=cache_dir)[1]


# -- the GAP(32,49)-like fixture -------------------------------------------------

def _all_automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism as an index map, in canonical (sorted) order."""
    orders = group.element_orders
    pools = [[p for i, p in enumerate(group.elements)
              if orders[i] == orders[g]]
             for g in group.generator_indices()]
    auts = []
    for images in product(*pools):
        try:
            phi = _automorphism_from_images(group, list(images))
        except ActionTableError:
            continue
        auts.append(tuple(int(v) for v in phi))
    return sorted(auts)


def find_gap3249_action() -> GroupSpec:
    """Scan the homomorphisms from a rank-2 elementary abelian 2-group into
    the automorphism group of a rank-3 one: return the spec of the first
    semidirect product (in canonical scan order) whose difference graph is
    non-bipartite and whose reduced difference graph is disconnected.

    The winning action table must match the frozen 'gap3249' registry entry.
    """
    from . import perms

    normal = realize("elem_abelian(2,3)")
    acting = realize("elem_abelian(2,2)")
    auts = _all_automorphisms(normal)
    ident = tuple(range(normal.order))
    invs = [a for a in auts
            if tuple(a[a[i]] for i in range(normal.order)) == ident]

    def commute(a, b):
        return all(a[b[i]] == b[a[i]] for i in range(len(a)))

    for a_map, b_map in product(invs, invs):
        if not commute(a_map, b_map):
            continue
        rows = tuple(
            tuple(perms.format_cycles(
                normal.elements[phi[normal.element_index[g]]])
                for g in normal.generators)
            for phi in (a_map, b_map))
        group = _realize_semidirect(normal, acting, rows)
        if is_abelian(group):
            continue
        bundle_lat, _ = cache_mod.load_or_compute(group, None)
        d = build_graph(bundle_lat, "difference")
        if an.is_bipartite(d):
            continue
        star = star_reduction(d)
        if star.n and len(an.components(star)) >= 2:
            if rows != ACTIONS["gap3249"]:
                raise GroupGraphError(
                    "scan result disagrees with the frozen gap3249 action; "
                    f"found {rows}")
            return parse_group_spec(
                "semidirect(elem_abelian(2,3), elem_abelian(2,2), gap3249)")
    raise GroupGraphError(
        "no qualifying action found: the gap_32_49_like fixture could not "
        "be reproduced (red flag)")
