import gc
import hashlib
import json
import logging
import os
import re
import weakref
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from groupgraph import (HUNTS, REGISTRY, Budgets, build_bundle, hunt,
                        load_corpus, run_corpus, sweep, verify)
from groupgraph.corpus import Corpus, parse_manifest, tier_allows
from groupgraph.errors import BudgetExceeded, GroupGraphError, RealizeError
from groupgraph import analytics as an
from groupgraph import cache, graphs, harness
from groupgraph.harness import (TheoremCheck, TheoremVerdict,
                                _all_automorphisms, _conjugate_edge_split,
                                registry_table)
from groupgraph.specs import realize
from oracles import (networkx_graph, networkx_invariants,
                     quotient_by_one_subgroup, quotient_differences,
                     quotient_with_projection, report_invariants)

EXPECTED_IDS = [
    "T-2.2a", "T-2.2b", "T-2.2c", "T-2.2d", "T-2.2e", "T-2.2f", "T-2.2g",
    "T-2.3", "T-2.4a", "T-2.4b", "T-2.5", "T-2.6", "T-2.7", "T-2.8",
    "T-2.9", "T-2.10", "T-3.1", "T-3.2", "T-3.3", "T-3.4", "T-4.1",
    "T-4.2", "T-5.1", "T-5.2", "T-5.3", "T-5.4", "T-6.1", "T-6.2",
]


@pytest.fixture(scope="module")
def mini_report(mini_corpus):
    return run_corpus(mini_corpus, tier="fast")


def test_registry_is_complete():
    assert list(REGISTRY) == EXPECTED_IDS
    assert all(check.statement for check in REGISTRY.values())
    table = registry_table()
    assert [row["id"] for row in table] == EXPECTED_IDS


def test_verify_t25_on_a5():
    bundle = build_bundle("a5", "alternating(5)")
    verdict = verify(REGISTRY["T-2.5"], bundle)
    assert verdict.status == "confirmed"


def test_verify_t26_on_d4():
    bundle = build_bundle("d4", "dihedral(4)")
    assert verify(REGISTRY["T-2.6"], bundle).status == "confirmed"


def test_verify_t28_vacuous_on_z6():
    bundle = build_bundle("z6", "cyclic(6)")
    assert verify(REGISTRY["T-2.8"], bundle).status == "vacuous"


@pytest.mark.parametrize("text", ["psl2(7)", "symmetric(4)"])
def test_t22e_confirmed_with_no_witness(text):
    verdict = verify(REGISTRY["T-2.2e"], build_bundle(text, text))
    assert (verdict.status, verdict.witness) == ("confirmed", ())


def test_t22e_names_each_vertex_of_a_unique_degree():
    """A path on three vertices has one vertex of degree 2; the star on
    five has one of degree 4, and its four leaves share theirs."""
    for adj, witness in (([0b010, 0b101, 0b010], (1,)),
                         ([0b11110, 0b1, 0b1, 0b1, 0b1], (0,))):
        d = graphs.SubgroupGraph("difference", None,
                                 tuple(range(1, len(adj) + 1)), adj)
        verdict = REGISTRY["T-2.2e"].evaluate(
            SimpleNamespace(label="g", difference=d))
        assert (verdict.status, verdict.witness) \
            == ("counterexample", witness)


def test_failing_hypothesis_is_vacuous_not_confirmed():
    # D(A4) contains triangles and is not bipartite, so T-2.6 must not
    # count A4 as a confirmation
    bundle = build_bundle("a4", "alternating(4)")
    assert verify(REGISTRY["T-2.6"], bundle).status == "vacuous"
    # cyclic(4) has a single-vertex difference graph: T-2.5 skips it
    bundle = build_bundle("z4", "cyclic(4)")
    assert verify(REGISTRY["T-2.5"], bundle).status == "vacuous"


def test_t34_confirmed_on_s3():
    bundle = build_bundle("s3", "dihedral(3)")
    assert verify(REGISTRY["T-3.4"], bundle).status == "confirmed"
    assert verify(REGISTRY["T-3.1"], bundle).status == "confirmed"
    assert verify(REGISTRY["T-3.2"], bundle).status == "confirmed"
    assert verify(REGISTRY["T-3.3"], bundle).status == "confirmed"


def test_t22f_on_semidirect():
    bundle = build_bundle(
        "z5z8", "semidirect(cyclic(5), cyclic(8), z5_by_doubling)")
    assert verify(REGISTRY["T-2.2f"], bundle).status == "confirmed"
    bundle = build_bundle("s4", "symmetric(4)")
    assert verify(REGISTRY["T-2.2f"], bundle).status == "vacuous"


def test_build_bundle_builds_only_the_difference_graph(monkeypatch):
    kinds = []
    real = harness.build_graph

    def spy(lat, kind):
        kinds.append(kind)
        return real(lat, kind)

    monkeypatch.setattr(harness, "build_graph", spy)
    bundle = build_bundle("s4", "symmetric(4)")
    assert kinds == ["difference"]
    assert bundle.star.kind == "difference_star"
    assert bundle.star.vertices == tuple(
        bundle.difference.vertices[i] for i in range(bundle.difference.n)
        if bundle.difference.adj[i])


def test_build_bundle_leaves_a_passed_group_label_alone():
    group = realize("cyclic(6)")
    for _ in range(2):
        build_bundle("c6", group)
    assert group.spec_label == "cyclic(6)"
    assert build_bundle("c6", "cyclic(6)").group.spec_label == "c6=cyclic(6)"


@pytest.fixture(scope="module")
def mini_bundles(mini_corpus):
    return [build_bundle(e.label, e.spec) for e in mini_corpus]


def test_quotients_match_the_bfs_oracle(mini_bundles):
    count = 0
    for b in mini_bundles:
        lat = b.lattice
        for sid in range(lat.subgroup_count()):
            if lat.is_normal[sid]:
                count += 1
                assert quotient_differences(b.group, lat.mask_of(sid)) == [], \
                    (b.label, sid)
    assert count > 50


def test_derived_star_report_equals_a_direct_sweep(mini_bundles):
    for b in mini_bundles:
        assert b.star_report == an.analyze(b.star), b.label


def test_derived_star_report_carries_unverified_over():
    b = build_bundle("psl2_7", "psl2(7)", budgets=Budgets(independence=2),
                     allow_unverified=True)
    assert b.star_report.unverified == ["independence_number"]
    assert b.star_report == an.analyze(b.star, indep_budget=2,
                                       allow_unverified=True)


def test_reports_match_networkx(mini_bundles):
    for b in mini_bundles:
        assert report_invariants(b.report) \
            == networkx_invariants(b.difference), b.label
        assert report_invariants(b.star_report) \
            == networkx_invariants(b.star), b.label


def test_reports_match_networkx_on_the_fast_tier(corpus, fast_report,
                                                 shared_cache):
    """``analyze`` on every fast-tier D and the derived D* report against
    networkx; lattices come from the fast-tier cache."""
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat, _ = cache.load_or_compute(group, shared_cache)
        difference = graphs.build_graph(lat, "difference")
        star = graphs.star_reduction(difference)
        report = an.analyze(difference)
        assert report_invariants(report) \
            == networkx_invariants(difference), entry.label
        assert report_invariants(an.reduced_report(report, star)) \
            == networkx_invariants(star), entry.label
        checked += 1
    assert checked == len(fast_report.labels)


def test_isomorphism_matches_networkx_on_the_h3_buckets(mini_bundles):
    import networkx as nx
    buckets: dict[tuple, list] = {}
    for b in mini_bundles:
        if b.report.edge_count:
            key = (b.report.vertex_count, b.report.edge_count,
                   tuple(b.report.degree_sequence))
            buckets.setdefault(key, []).append(b.difference)
    pairs = [pair for bucket in buckets.values()
             for pair in combinations(bucket, 2)]
    assert len(pairs) == 1  # D(S3 x Z5) and D(S3 x Z7)
    for g1, g2 in pairs:
        assert an.graphs_isomorphic(g1, g2) \
            == nx.is_isomorphic(networkx_graph(g1), networkx_graph(g2))


def test_isomorphism_matches_networkx_on_the_fast_tier_h3_buckets(
        corpus, fast_report, shared_cache):
    """``graphs_isomorphic`` against networkx on every pair of fast-tier
    difference graphs with edges that H-3 buckets together (same vertex
    count, edge count and degree sequence); lattices come from the
    fast-tier cache."""
    import networkx as nx
    buckets: dict[tuple, list] = {}
    checked = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        checked += 1
        lat, _ = cache.load_or_compute(group, shared_cache)
        difference = graphs.build_graph(lat, "difference")
        if an.edge_count(difference):
            key = (difference.n, an.edge_count(difference),
                   tuple(an.degree_sequence(difference)))
            buckets.setdefault(key, []).append(difference)
    assert checked == len(fast_report.labels)
    pairs = [pair for bucket in buckets.values()
             for pair in combinations(bucket, 2)]
    # dih06 and s3xz2, a5 and psl2_4, s3xz5 and s3xz7, d4xz3 and d4xz5,
    # d5xz3 and z5_rtimes_z8: isomorphic graphs, all five
    assert len(pairs) == 5
    verdicts = [an.graphs_isomorphic(g1, g2) for g1, g2 in pairs]
    assert verdicts == [
        nx.is_isomorphic(networkx_graph(g1), networkx_graph(g2))
        for g1, g2 in pairs]
    assert all(verdicts)


def test_star_reduction_reuses_rows_without_isolated_vertices():
    b = build_bundle("psl2_7", "psl2(7)")
    assert b.report.isolated_count == 0
    assert b.star.vertices == b.difference.vertices
    assert all(s is d for s, d in zip(b.star.adj, b.difference.adj))


def edge_split_by_edge_list(bundle):
    lat, d = bundle.lattice, bundle.difference
    split = [None, None]
    for i, j in d.edges():
        same = lat.conj_class_of[d.vertices[i]] \
            == lat.conj_class_of[d.vertices[j]]
        key = 0 if same else 1
        if split[key] is None:
            split[key] = (i, j)
    return tuple(split)


@pytest.mark.parametrize("spec,expected", [
    ("psl2(7)", ((21, 28), (0, 23))),
    ("symmetric(4)", ((13, 14), (0, 10))),
])
def test_conjugate_edge_split_witnesses(spec, expected):
    bundle = build_bundle("g", spec)
    assert _conjugate_edge_split(bundle) == expected
    assert edge_split_by_edge_list(bundle) == expected


def test_conjugate_edge_split_matches_the_edge_list(mini_bundles):
    for b in mini_bundles:
        assert _conjugate_edge_split(b) == edge_split_by_edge_list(b), b.label


def test_run_corpus_enumerates_each_source_table_once(mini_corpus,
                                                      monkeypatch):
    seen = []
    real = graphs.all_subgroups

    def spy(group, *args, **kwargs):
        seen.append(group.table_digest)
        return real(group, *args, **kwargs)

    monkeypatch.setattr(graphs, "all_subgroups", spy)
    first = run_corpus(mini_corpus, tier="fast")
    first_seen, seen[:] = list(seen), []
    # a sweep that verifies and hunts shares one memo between both
    second, findings = sweep(mini_corpus, REGISTRY.values(), tuple(HUNTS))
    assert first_seen and len(set(first_seen)) == len(first_seen)
    # the memo lasts one run: the next run enumerates every table again
    assert seen == first_seen and findings
    assert first.to_json_dict() == second.to_json_dict()


def spy_enumerations(monkeypatch) -> list[str]:
    """The table digest of every lattice enumerated from here on, through
    the cache or around it."""
    seen = []
    real = cache.all_subgroups

    def spy(group, *args, **kwargs):
        seen.append(group.table_digest)
        return real(group, *args, **kwargs)

    monkeypatch.setattr(cache, "all_subgroups", spy)
    monkeypatch.setattr(graphs, "all_subgroups", spy)
    return seen


def cache_files(cache_dir: Path) -> dict[str, int]:
    return {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()}


def report_bytes(report) -> tuple[str, str]:
    return json.dumps(report.to_json_dict(), sort_keys=True), report.to_text()


def test_a_cached_run_reads_its_source_lattices_from_the_cache(
        mini_corpus, mini_report, tmp_path, monkeypatch):
    """The first cached run writes the quotient and complement lattices
    that T-2.2f/T-2.2g embed beside the groups' own; the second enumerates
    nothing and writes nothing. Both reports are those of a run without a
    cache."""
    seen = spy_enumerations(monkeypatch)
    first = run_corpus(mini_corpus, tier="fast", cache_dir=str(tmp_path))
    files = cache_files(tmp_path)
    own = {realize(entry.spec).table_digest for entry in mini_corpus}
    # one file per table enumerated, sources included
    assert len(seen) == len(set(seen))
    assert set(files) == {f"{d}.lattice" for d in seen}
    assert len(set(seen) - own) >= 10
    seen.clear()
    second = run_corpus(mini_corpus, tier="fast", cache_dir=str(tmp_path))
    assert seen == [] and cache_files(tmp_path) == files
    assert report_bytes(first) == report_bytes(second) \
        == report_bytes(mini_report)


def break_checksum(text: str) -> str:
    body, _, _ = text.rstrip("\n").rpartition("\n")
    return body + "\nchecksum " + "0" * 64 + "\n"


def break_hint(text: str) -> str:
    """Subgroup 1 with no hint, checksummed again: the empty hint
    generates the trivial group, not subgroup 1."""
    lines = text.rstrip("\n").splitlines()[:-1]
    lines[3] = lines[3].rpartition(" ")[0] + " -"
    body = "\n".join(lines)
    return body + f"\nchecksum {hashlib.sha256(body.encode()).hexdigest()}\n"


def test_a_bad_source_entry_is_discarded_and_recomputed(
        mini_corpus, mini_report, tmp_path, monkeypatch, caplog):
    """A source lattice's entry with a bad checksum, and one whose hint
    does not generate its subgroup, are each discarded with a log line
    and recomputed, and the report does not change."""
    run_corpus(mini_corpus, tier="fast", cache_dir=str(tmp_path))
    own = {f"{realize(entry.spec).table_digest}.lattice"
           for entry in mini_corpus}
    sources = sorted(p for p in tmp_path.iterdir() if p.name not in own)
    good = {p: p.read_text() for p in sources[:2]}
    sources[0].write_text(break_checksum(good[sources[0]]))
    sources[1].write_text(break_hint(good[sources[1]]))
    seen = spy_enumerations(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="groupgraph.cache"):
        report = run_corpus(mini_corpus, tier="fast",
                            cache_dir=str(tmp_path))
    warnings = [rec.getMessage() for rec in caplog.records]
    assert any(str(sources[0]) in w and "checksum mismatch" in w
               for w in warnings)
    assert any(str(sources[1]) in w and "does not generate subgroup 1" in w
               for w in warnings)
    assert len(warnings) == 2
    assert sorted(seen) == sorted(p.name.removesuffix(".lattice")
                                  for p in sources[:2])
    assert all(p.read_text() == text for p, text in good.items())
    assert report_bytes(report) == report_bytes(mini_report)


def test_conclusions_are_evaluated_only_where_the_hypothesis_holds(
        corpus, fast_report, shared_cache, monkeypatch):
    """Over the fast tier, T-3.1 and T-3.2 look for the split shape, and
    T-2.4a for a conjugate edge, only on the groups that meet their
    hypotheses; the verdicts are those of the full run."""
    calls = []
    real_shape = harness._split_shape
    real_split = harness._conjugate_edge_split

    def shape_spy(bundle, *, beta_one):
        srep = bundle.star_report
        assert harness._star_complete(bundle) if beta_one else (
            srep.vertex_count >= 2 and srep.universal_vertices), bundle.label
        calls.append(("T-3.2" if beta_one else "T-3.1", bundle.label))
        return real_shape(bundle, beta_one=beta_one)

    def split_spy(bundle):
        assert bundle.classification.nilpotent \
            and bundle.difference.edge_count() > 0, bundle.label
        calls.append(("T-2.4a", bundle.label))
        return real_split(bundle)

    monkeypatch.setattr(harness, "_split_shape", shape_spy)
    monkeypatch.setattr(harness, "_conjugate_edge_split", split_spy)
    tids = ["T-2.4a", "T-3.1", "T-3.2"]
    report = run_corpus(corpus, [REGISTRY[t] for t in tids], tier="fast",
                        cache_dir=shared_cache)
    assert report.verdicts == {
        label: {t: fast_report.verdicts[label][t] for t in tids}
        for label in fast_report.labels}
    assert sorted(calls) == sorted(
        (t, label) for label in report.labels for t in tids
        if report.verdicts[label][t].status != "vacuous")
    assert sum(t == "T-3.1" for t, _ in calls) == 16


@pytest.mark.skipif(not os.environ.get("GROUPGRAPH_LONG"),
                    reason="long tier: set GROUPGRAPH_LONG=1 to run it")
def test_t22g_on_symmetric_7():
    """S7's one candidate is A7, of index 2 among 5,040 elements. The
    check runs on the parts of a bundle it reads (the whole bundle would
    also run the independence search)."""
    group = realize("symmetric(7)")
    lat = cache.all_subgroups(group)
    bundle = SimpleNamespace(label="s7", group=group, lattice=lat,
                             difference=graphs.build_graph(lat, "difference"),
                             embedding_sources={}, cache_dir=None)
    verdict = verify(REGISTRY["T-2.2g"], bundle)
    assert (verdict.status, verdict.note) == (
        "confirmed", "checked 1 normal subgroup(s) with index <= 24")
    a7 = lat.mask_of(next(sid for sid in lat.nontrivial_proper_ids()
                          if lat.is_normal[sid]))
    assert a7.bit_count() == 2520
    q, proj = quotient_with_projection(group, a7)
    ref, ref_proj = quotient_by_one_subgroup(group, a7)
    assert (q.elements, q.generators, proj.tolist()) \
        == (ref.elements, ref.generators, ref_proj.tolist())


def test_bundles_built_alone_share_no_memo():
    a = build_bundle("s4", "symmetric(4)")
    b = build_bundle("s4", "symmetric(4)")
    assert verify(REGISTRY["T-2.2g"], a).status == "confirmed"
    assert a.embedding_sources and not b.embedding_sources


def test_unverified_propagates_from_budget():
    bundle = build_bundle("psl2_7", "psl2(7)",
                          budgets=Budgets(independence=2),
                          allow_unverified=True)
    verdict = verify(REGISTRY["T-5.4"], bundle)
    assert verdict.status == "unverified"
    # clique side still fine
    assert verify(REGISTRY["T-6.2"], bundle).status == "vacuous"


def test_omega_checks_are_unverified_when_the_clique_search_runs_out():
    # budget 0: psl2(7)'s greedy clique meets the coloring bound at the
    # root, so any budget of one node or more solves it
    report = run_corpus(parse_manifest("psl2_7 = psl2(7)\n"),
                        checks=[REGISTRY["T-6.1"], REGISTRY["T-6.2"]],
                        budgets=Budgets(clique=0))
    row = report.verdicts["psl2_7"]
    assert {tid: (v.status, v.note) for tid, v in row.items()} == {
        tid: ("unverified", "clique number exceeded its budget")
        for tid in ("T-6.1", "T-6.2")}
    assert report.exit_code() == 3
    assert "UNVERIFIED T-6.1 on psl2_7: clique number exceeded its budget" \
        in report.to_text().splitlines()


def test_a_counterexample_without_a_witness_is_reported_end_to_end():
    """A check's counterexample with no witness gets the group label as
    its witness, a COUNTEREXAMPLE line and exit code 2."""
    def evaluate(bundle):
        status = "counterexample" if bundle.group.order == 6 else "confirmed"
        return TheoremVerdict("T-X", bundle.label, status)

    check = TheoremCheck("T-X", "every group has order other than 6",
                         evaluate)
    report = run_corpus(parse_manifest("s3 = dihedral(3)\nz4 = cyclic(4)\n"),
                        checks=[check])
    assert report.theorem_ids == ["T-X"]
    assert [(v.group_label, v.witness) for v in report.counterexamples()] \
        == [("s3", ("s3",))]
    assert report.verdicts["z4"]["T-X"].status == "confirmed"
    assert report.exit_code() == 2
    assert report.to_json_dict()["verdicts"]["s3"]["T-X"] == {
        "status": "counterexample", "witness": ["s3"]}
    lines = report.to_text().splitlines()
    assert [line for line in lines if line.startswith("COUNTEREXAMPLE")] \
        == ["COUNTEREXAMPLE T-X on s3: ('s3',)"]
    assert "T-X: confirmed=1 vacuous=0 counterexample=1 unverified=0" in lines


def test_run_corpus_mini_is_clean(mini_report):
    assert mini_report.exit_code() == 0
    assert mini_report.counterexamples() == []
    assert mini_report.labels[0] == "s3"
    assert mini_report.theorem_ids == EXPECTED_IDS


def test_run_corpus_nonvacuous_coverage(mini_report):
    summary = mini_report.summary()
    for tid in ["T-2.5", "T-2.6", "T-4.1", "T-4.2", "T-5.1", "T-5.2",
                "T-5.3", "T-5.4", "T-6.1", "T-6.2"]:
        assert summary[tid]["confirmed"] >= 1, tid


def test_run_corpus_gap3249_row(mini_report):
    row = mini_report.verdicts["gap_32_49_like"]
    assert row["T-2.4a"].status == "confirmed"
    assert row["T-2.4b"].status == "confirmed"
    assert row["T-2.6"].status == "vacuous"   # non-bipartite with triangles


def test_run_corpus_deterministic_across_threads(mini_corpus):
    """Rows do not depend on manifest order; ``threads`` is ignored."""
    reversed_corpus = Corpus(tuple(reversed(mini_corpus.entries)),
                             mini_corpus.manifest_sha256)
    a = run_corpus(mini_corpus, tier="fast")
    b = run_corpus(reversed_corpus, tier="fast", threads=4)
    assert b.labels == a.labels[::-1]

    def rows(report):
        return {label: {tid: v.to_json_dict() for tid, v in row.items()}
                for label, row in report.verdicts.items()}

    assert rows(a) == rows(b)


def test_all_automorphisms_counts():
    # |GL(3, 2)| = 168, Aut(D4) = D4, Aut(Z8) = (Z/8)^*
    for text, count in (("elem_abelian(2,3)", 168), ("dihedral(4)", 8),
                        ("cyclic(8)", 4)):
        auts = _all_automorphisms(realize(text))
        assert len(auts) == count == len(set(auts)), text
        assert auts == sorted(auts) and auts[0] == tuple(range(len(auts[0])))


def test_run_corpus_empty():
    report = run_corpus(parse_manifest(""), tier="fast")
    assert report.labels == [] and report.exit_code() == 0


def test_an_unknown_tier_is_caught_before_any_spec_is_realized(
        mini_corpus, monkeypatch):
    realized = []
    real = harness.realize
    monkeypatch.setattr(harness, "realize",
                        lambda spec: realized.append(spec) or real(spec))
    for corpus in (parse_manifest(""), mini_corpus):
        with pytest.raises(GroupGraphError, match="unknown tier 'nope'"):
            run_corpus(corpus, tier="nope")
        with pytest.raises(GroupGraphError, match="unknown tier 'nope'"):
            hunt("all", corpus, tier="nope")
    assert realized == []


def test_one_sweep_verifies_and_hunts_on_one_bundle_per_group(
        mini_corpus, mini_report, monkeypatch):
    findings = hunt("all", mini_corpus)
    built = []
    real = harness.build_bundle

    def spy(label, *args, **kwargs):
        built.append(label)
        return real(label, *args, **kwargs)

    monkeypatch.setattr(harness, "build_bundle", spy)
    report, swept = sweep(mini_corpus, list(REGISTRY.values()), tuple(HUNTS))
    assert built == mini_report.labels == [e.label for e in mini_corpus]
    assert report.to_json_dict() == mini_report.to_json_dict()
    assert swept == findings


def test_run_corpus_holds_one_bundle_at_a_time(mini_corpus, monkeypatch):
    """Each bundle is gone before the next is built, and none outlives
    the run, so a verify pass holds one bundle's memory at a time."""
    alive = []
    real = harness.build_bundle

    def spy(*args, **kwargs):
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []
        bundle = real(*args, **kwargs)
        alive.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(harness, "build_bundle", spy)
    run_corpus(mini_corpus, tier="fast")
    gc.collect()
    assert len(alive) == len(mini_corpus)
    assert [ref for ref in alive if ref() is not None] == []


def test_readme_states_the_default_manifest_size():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.search(r"corpus_default\.txt`\) lists\s+(\d+)\s", readme)
    assert stated is not None
    assert int(stated.group(1)) == len(load_corpus())


def test_run_corpus_tier_filter(mini_corpus):
    big = parse_manifest("s3 = dihedral(3)\nbig = psl2(7)\n")
    fast_only = run_corpus(big, tier="fast",
                           checks=[REGISTRY["T-2.9"]])
    assert fast_only.labels == ["s3", "big"]   # psl2(7) has order 168 <= 200
    tiny = parse_manifest("s3 = dihedral(3)\n")
    assert run_corpus(tiny, tier="fast").labels == ["s3"]


def test_run_corpus_check_filter(mini_corpus):
    report = run_corpus(mini_corpus, checks=[REGISTRY["T-6.1"]], tier="fast")
    assert report.theorem_ids == ["T-6.1"]
    assert set(report.verdicts["s3"]) == {"T-6.1"}


def test_run_corpus_aborts_on_bad_spec():
    bad = parse_manifest("huge = symmetric(9)\n")
    with pytest.raises(RealizeError, match="huge"):
        run_corpus(bad, tier="fast")


def test_hunt_names_the_entry_it_cannot_realize():
    bad = parse_manifest("s3 = dihedral(3)\nhuge = symmetric(9)\n")
    with pytest.raises(RealizeError, match="^huge: "):
        hunt("H-1", bad)


def test_report_text_format(mini_report):
    text = mini_report.to_text()
    assert "tier=fast" in text
    assert "T-2.5: confirmed=" in text
    assert "COUNTEREXAMPLE" not in text


def test_hunt_h1_boundary_fixture(mini_corpus):
    findings = hunt("H-1", mini_corpus)
    by_group = {f.groups: f for f in findings}
    boundary = by_group[("gap_32_49_like",)]
    assert boundary.status == "outside-hypothesis"
    assert "nilpotent" in boundary.detail
    assert all(f.status != "counterexample" for f in findings)
    supporting = [f for f in findings if f.status == "supporting"]
    assert supporting   # s3, a4, a5 ... all connected reduced graphs


def test_hunt_h2_girth3(mini_corpus):
    findings = hunt("H-2", mini_corpus)
    es27 = [f for f in findings if f.groups == ("es27_exp3",)]
    assert es27 and es27[0].status == "supporting"
    assert "girth=3" in es27[0].detail


def test_hunt_h3_isomorphic_pair(mini_corpus):
    findings = hunt("H-3", mini_corpus)
    pair = [f for f in findings if set(f.groups) == {"s3xz5", "s3xz7"}]
    assert pair and all(f.status == "supporting" for f in pair)
    notes = [f for f in findings if f.status == "coverage-note"]
    assert notes and "a5" in notes[0].groups


def test_hunt_h4_bounded_perfectness(mini_corpus):
    findings = hunt("H-4", mini_corpus)
    assert [f.groups for f in findings] == [
        ("s3",), ("d4",), ("a4",), ("s3xz5",), ("s3xz7",), ("es27_exp3",),
        ("gap_32_49_like",)]
    assert all(f.status == "supporting" for f in findings)


def test_odd_hole_scan_finds_none_on_fast_tier_cographs(corpus, fast_report,
                                                       shared_cache):
    """Every fast-tier D that ``analyze`` reports as a cograph has no odd
    hole or antihole, which is why H-4 does not scan it."""
    cographs = 0
    for entry in corpus:
        group = realize(entry.spec)
        if not tier_allows("fast", group.order):
            continue
        lat, _ = cache.load_or_compute(group, shared_cache)
        difference = graphs.build_graph(lat, "difference")
        report = an.analyze(difference)
        if report.cograph and report.edge_count:
            assert an.find_odd_hole_or_antihole(difference) is None, \
                entry.label
            cographs += 1
    assert cographs == 29


def test_hunt_h4_scans_only_graphs_that_are_not_cographs(mini_corpus,
                                                         monkeypatch):
    scanned = []
    real = an.find_odd_hole_or_antihole

    def spy(g, *args, **kwargs):
        scanned.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(an, "find_odd_hole_or_antihole", spy)
    findings = hunt("H-4", mini_corpus)
    assert scanned and not any(an.is_cograph(g) for g in scanned)
    assert [f.groups for f in findings] == [
        ("s3",), ("d4",), ("a4",), ("s3xz5",), ("s3xz7",), ("es27_exp3",),
        ("gap_32_49_like",)]


def test_hunt_h5(mini_corpus):
    findings = hunt("H-5", mini_corpus)
    a5 = [f for f in findings if f.groups == ("a5",)]
    assert a5 and a5[0].status == "supporting"
    assert "clique number" in a5[0].detail


def test_hunt_unknown_target(mini_corpus):
    with pytest.raises(GroupGraphError):
        hunt("H-9", mini_corpus)


# acceptance 4's nilpotent pair, and A5 in two presentations
PAIRS = parse_manifest("""
d4xz3 = direct(dihedral(4), cyclic(3))
d4xz5 = direct(dihedral(4), cyclic(5))
a5 = alternating(5)
psl2_4 = psl2(4)
""")


def findings_of(target, corpus, **kwargs):
    return [(f.groups, f.status, f.detail)
            for f in hunt(target, corpus, **kwargs)]


def test_hunt_h3_compares_isomorphic_pairs():
    d4, a5 = ("d4xz3", "d4xz5"), ("a5", "psl2_4")
    assert findings_of("H-3", PAIRS) == [
        (a5, "coverage-note", "connected difference graphs in this corpus; "
         "pairs outside this list cannot exercise the connected-graph "
         "conjecture"),
        (d4, "supporting", "isomorphic but disconnected difference graphs; "
         "consistent with the conjecture's connectivity restriction"),
        (d4, "supporting", "nilpotency transfer across isomorphic "
         "difference graphs"),
        (a5, "supporting", "isomorphic connected difference graphs; group "
         "orders match (group isomorphism not decided here)"),
    ]


def test_hunt_h3_reports_an_isomorphism_search_out_of_budget(monkeypatch):
    def out_of_budget(g1, g2, budget=an.DEFAULT_ISO_BUDGET):
        raise BudgetExceeded("isomorphism search exceeded 0 nodes")

    monkeypatch.setattr(an, "graphs_isomorphic", out_of_budget)
    assert findings_of("H-3", PAIRS)[1:] == [
        (pair, "unverified", "isomorphism search exceeded its budget")
        for pair in (("d4xz3", "d4xz5"), ("a5", "psl2_4"))]


A5 = parse_manifest("a5 = alternating(5)\n")


def test_hunt_h4_reports_a_scan_out_of_budget(monkeypatch):
    def out_of_budget(g, max_length=11, budget=an.DEFAULT_SOLVER_BUDGET):
        raise BudgetExceeded("odd-hole scan exceeded its budget")

    monkeypatch.setattr(an, "find_odd_hole_or_antihole", out_of_budget)
    assert findings_of("H-4", A5) == [
        (("a5",), "unverified", "bounded odd-hole scan exceeded its budget")]


def test_hunt_h4_names_a_non_solvable_group_that_passes_the_scan(
        monkeypatch):
    # D(A5) has an odd hole or antihole, so without the patch A5 gives
    # no finding
    assert findings_of("H-4", A5) == []
    monkeypatch.setattr(an, "find_odd_hole_or_antihole",
                        lambda g, max_length=11, budget=0: None)
    [(groups, status, detail)] = findings_of("H-4", A5)
    assert (groups, status) == (("a5",), "counterexample-candidate")
    assert detail.startswith("non-solvable group whose difference graph "
                             "passed the bounded perfectness scan")


def test_hunt_h5_reports_a_clique_search_out_of_budget():
    assert findings_of("H-5", PAIRS, budgets=Budgets(clique=0)) == [
        ((label,), "unverified", "clique number exceeded its budget")
        for label in ("a5", "psl2_4")]
