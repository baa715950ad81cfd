"""Acceptance suite: one test per criterion, each printing a PASS line.

The long-running PSL(2,13) golden is optional; set GROUPGRAPH_LONG=1 to
include it (a few seconds).
"""

import os
import random
import time
from itertools import combinations
from types import MappingProxyType

import pytest

from groupgraph import (all_subgroups, build_graph, classify,
                        find_gap3249_action, graphs_isomorphic, realize,
                        star_reduction)
from groupgraph import analytics as an
from groupgraph.cli import _json as cli_json
from groupgraph.cli import main as cli_main
from groupgraph.errors import BudgetExceeded
from groupgraph import specs
from groupgraph.specs import ACTIONS
from oracles import (brute_force_subgroup_masks, cycle_graph, find_induced_p4,
                     graph_from_edges, is_iwasawa)


def test_acceptance_01_subgroup_counts(make):
    checks = [("symmetric(4)", 30, None), ("dicyclic(2)", 6, None),
              ("alternating(5)", 59, 57)]
    for text, total, proper in checks:
        start = time.perf_counter()
        lat = all_subgroups(realize(text))
        elapsed = time.perf_counter() - start
        assert lat.subgroup_count() == total, text
        if proper is not None:
            assert len(lat.nontrivial_proper_ids()) == proper
        assert elapsed < 1.0, f"{text} took {elapsed:.2f}s"
    print("ACCEPTANCE 1: PASS - Sub(S4)=30, Sub(Q8)=6, Sub(A5)=59 "
          "(57 nontrivial proper), each under 1s")


def test_acceptance_02_star_cycles(dgraph):
    star_s3 = star_reduction(dgraph("dihedral(3)"))
    star_d4 = star_reduction(dgraph("dihedral(4)"))
    assert graphs_isomorphic(star_s3, cycle_graph(3))
    assert graphs_isomorphic(star_d4, cycle_graph(4))
    print("ACCEPTANCE 2: PASS - D*(S3) iso C3 and D*(D4) iso C4")


def test_acceptance_03_golden_invariants(dgraph):
    assert an.independence_number(dgraph("alternating(4)")) == 4
    assert an.independence_number(dgraph("dihedral(4)")) == 6
    assert an.independence_number(dgraph("direct(dihedral(4), cyclic(3))")) == 14
    assert an.independence_number(dgraph("alternating(5)")) == 15
    assert an.clique_number(dgraph("alternating(4)")) == 5
    start = time.perf_counter()
    lat = all_subgroups(realize("psl2(7)"))
    alpha = an.independence_number(build_graph(lat, "difference"))
    elapsed = time.perf_counter() - start
    assert alpha == 29
    assert elapsed < 60.0, f"psl2(7) pipeline took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS - alpha goldens 4/6/14/15, omega(D(A4))=5, "
          f"alpha(D(PSL(2,7)))=29 in {elapsed:.1f}s (< 60s)")


@pytest.mark.skipif(not os.environ.get("GROUPGRAPH_LONG"),
                    reason="long tier: set GROUPGRAPH_LONG=1 to run the "
                           "PSL(2,13) golden (a few seconds)")
def test_acceptance_03_long_tier_psl2_13():
    lat = all_subgroups(realize("psl2(13)"))
    d = build_graph(lat, "difference")
    try:
        alpha = an.independence_number(d, budget=50_000_000)
    except BudgetExceeded:
        print("ACCEPTANCE 3 (long): UNVERIFIED - alpha(D(PSL(2,13))) "
              "exceeded its budget; no value reported")
        return
    assert alpha == 91   # never a different number
    print("ACCEPTANCE 3 (long): PASS - alpha(D(PSL(2,13)))=91")


def test_acceptance_04_isomorphic_pairs(dgraph):
    a, b = dgraph("direct(dihedral(3), cyclic(5))"), \
        dgraph("direct(dihedral(3), cyclic(7))")
    assert a.edge_count() == 9 == b.edge_count()
    assert graphs_isomorphic(a, b)
    c, d = dgraph("direct(dihedral(5), cyclic(3))"), \
        dgraph("semidirect(cyclic(5), cyclic(8), z5_by_doubling)")
    assert c.edge_count() == 30 == d.edge_count()   # confirms the fixed action
    assert graphs_isomorphic(c, d)
    # the cross-prime analogues within each family
    assert graphs_isomorphic(dgraph("direct(dihedral(4), cyclic(3))"),
                             dgraph("direct(dihedral(4), cyclic(5))"))
    assert graphs_isomorphic(dgraph("direct(dicyclic(2), cyclic(3))"),
                             dgraph("direct(dicyclic(2), cyclic(5))"))
    print("ACCEPTANCE 4: PASS - D(S3xZ5) iso D(S3xZ7) at 9 edges; "
          "D(D5xZ3) iso D(Z5:Z8) at 30 edges; cross-prime D4/Q8 pairs iso")


@pytest.mark.xfail(strict=True, reason=(
    "Q8 x Z3 is a Dedekind group, so D(Q8 x Z3) is edgeless on 10 vertices, "
    "while D(D4 x Z3) has 12 edges on 18 vertices; the two graphs are not "
    "isomorphic. The isomorphic pairs are the cross-prime ones above."))
def test_acceptance_04_d4z3_q8z3_literal(dgraph):
    assert graphs_isomorphic(dgraph("direct(dihedral(4), cyclic(3))"),
                             dgraph("direct(dicyclic(2), cyclic(3))"))


def test_acceptance_05_edgeless_set(corpus, make, dgraph):
    from groupgraph.classify import is_abelian
    abelian_checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if group.order > 200 or not is_abelian(group):
            continue
        assert dgraph(entry.spec_text).edge_count() == 0, entry.label
        abelian_checked += 1
    assert abelian_checked >= 70
    assert dgraph("dicyclic(2)").edge_count() == 0
    assert dgraph("direct(cyclic(4), dicyclic(2))").edge_count() == 0
    g, lat = make("direct(cyclic(4), dicyclic(2))")
    assert is_iwasawa(g, lat) is False
    print(f"ACCEPTANCE 5: PASS - {abelian_checked} abelian corpus groups, "
          "Q8 and Z4xQ8 all edgeless; Z4xQ8 is not an Iwasawa group")


def test_acceptance_06_nilpotent_girth_3(make, dgraph):
    g, lat = make("semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)")
    assert classify(g, lat).nilpotent
    assert an.girth(dgraph(
        "semidirect(elem_abelian(3,2), cyclic(3), heisenberg3)")) == 3
    print("ACCEPTANCE 6: PASS - girth(D((Z3xZ3):Z3)) = 3 with the group "
          "nilpotent")


def test_acceptance_07_theorem_suite(fast_report):
    assert fast_report.counterexamples() == []
    summary = fast_report.summary()
    required = ["T-2.5", "T-2.6", "T-4.1", "T-4.2", "T-5.1", "T-5.2",
                "T-5.3", "T-5.4", "T-6.1", "T-6.2"]
    coverage = {}
    for tid in required:
        assert summary[tid]["confirmed"] >= 1, tid
        coverage[tid] = (summary[tid]["confirmed"], summary[tid]["vacuous"])
    assert fast_report.elapsed < 300.0, f"{fast_report.elapsed:.0f}s"
    lines = ", ".join(f"{tid}={c}/{v}v" for tid, (c, v) in coverage.items())
    print(f"ACCEPTANCE 7: PASS - fast tier ({len(fast_report.labels)} groups) "
          f"zero counterexamples in {fast_report.elapsed:.0f}s; "
          f"confirmed/vacuous: {lines}")


def test_acceptance_08_derived_edge_goldens(dgraph):
    da4 = dgraph("alternating(4)")
    assert da4.edge_count() == 18
    ds3 = dgraph("dihedral(3)")
    assert ds3.edge_count() == 3
    (iso,) = ds3.isolated()
    assert ds3.lattice.order_of(ds3.vertices[iso]) == 3   # A3 is the isolate
    print("ACCEPTANCE 8: PASS - D(A4) has 18 edges; D(S3) has 3 edges with "
          "A3 isolated")


def test_acceptance_09_gap_32_49_fixture(shared_cache, monkeypatch):
    actions_before = dict(ACTIONS)
    # a read-only action table: registering an action during the scan
    # raises, whichever test ran the scan first in this process
    monkeypatch.setattr(specs, "ACTIONS", MappingProxyType(actions_before))
    spec = find_gap3249_action()
    assert ACTIONS == actions_before
    group = realize(spec)
    assert group.order == 32
    lat = all_subgroups(group)
    cls = classify(group, lat)
    assert cls.nilpotent
    d = build_graph(lat, "difference")
    assert not an.is_bipartite(d)
    star = star_reduction(d)
    assert star.n > 0 and len(an.components(star)) >= 2
    print("ACCEPTANCE 9: PASS - scan reproduces the order-32 nilpotent group "
          "with non-bipartite D and disconnected D*")


def test_acceptance_10_oracle_equivalence(corpus, make, dgraph):
    small = 0
    for entry in corpus:
        group = realize(entry.spec)
        if group.order > 24:
            continue
        _, lat = make(entry.spec_text)
        assert {s.mask for s in lat.subgroups} == \
            brute_force_subgroup_masks(group), entry.label
        small += 1
    assert small >= 40

    def brute_has_claw(g):
        for quad in combinations(range(g.n), 4):
            for center in quad:
                leaves = [v for v in quad if v != center]
                if all(g.adj[center] >> v & 1 for v in leaves) and not any(
                        g.adj[a] >> b & 1 for a, b in combinations(leaves, 2)):
                    return True
        return False

    graphs_checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if group.order > 200:
            continue
        d = dgraph(entry.spec_text)
        if d.n > 40:
            continue
        assert an.is_cograph(d) == (find_induced_p4(d) is None), entry.label
        assert an.is_clawfree(d) == (not brute_has_claw(d)), entry.label
        graphs_checked += 1

    rng = random.Random(20250810)
    for trial in range(200):
        n = rng.randint(2, 30)
        p = rng.uniform(0.1, 0.9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = graph_from_edges(n, edges)
        assert an.clique_number(g) == \
            an.independence_number(an.complement(g)), trial
    print(f"ACCEPTANCE 10: PASS - brute-force lattice agreement on {small} "
          f"groups of order <= 24; recognizer agreement on {graphs_checked} "
          f"difference graphs <= 40 vertices; clique = complement-"
          f"independence on 200 random graphs")


def test_acceptance_11_thread_determinism(fast_report, shared_cache,
                                          tmp_path):
    """A warm ``verify`` (every lattice from the cache that the cold
    ``fast_report`` run filled) with ``--threads 8``, which is accepted
    and ignored, prints the cold run's report byte for byte."""
    out_file = tmp_path / "verify-warm.json"
    code = cli_main(["verify", "--tier", "fast", "--threads", "8",
                     "--cache", shared_cache, "--format", "json",
                     "--out", str(out_file)])
    assert code == 0
    cold = cli_json(fast_report.to_json_dict()).encode("utf-8")
    assert out_file.read_bytes() == cold
    print("ACCEPTANCE 11: PASS - warm verify --tier fast --threads 8 "
          "produced the cold run's verdict matrix byte for byte")
