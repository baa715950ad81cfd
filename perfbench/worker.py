"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py '<job as JSON>'

The job names a mode, its inputs, a cache directory, a thread count,
whether to trace, and the file to write the result to. Each pass runs in
its own process so that its peak RSS is its own and no state (imported
tables, allocator growth) leaks from one pass into the next.

Modes, each calling only the library's public entry points:

- ``corpus``: ``run_corpus`` over a manifest, as ``verify --tier fast``.
- ``corpus_hunt``: ``run_corpus`` and then ``hunt("all")``, as
  ``verify`` followed by ``hunt --target all``.
- ``bundle``: ``build_bundle`` on one spec, then ``verify`` of every
  registry check, as ``verify`` does per group.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from groupgraph import harness  # noqa: E402
from groupgraph.corpus import parse_manifest  # noqa: E402
from groupgraph.specs import parse_group_spec  # noqa: E402
from tracer import Tracer  # noqa: E402


def corpus_rows(report) -> dict:
    """Verdict rows keyed by group label, as ``verify --format json``."""
    return {label: {tid: v.to_json_dict() for tid, v in row.items()}
            for label, row in report.verdicts.items()}


def canonical_findings(findings) -> list:
    """Hunt findings in an order that does not depend on manifest order.

    The scanners walk bundles in manifest order, so a permuted manifest
    lists findings, and the two labels of a pair, in another order.
    """
    return sorted([f.target, sorted(f.groups), f.status, f.detail]
                  for f in findings)


def bundle_summary(bundle, verdicts) -> dict:
    d, star = bundle.difference, bundle.star
    return {
        "order": bundle.group.order,
        "subgroups": bundle.lattice.subgroup_count(),
        "d": [d.n, d.edge_count()],
        "dstar": [star.n, star.edge_count()],
        "omega": bundle.report.clique_number,
        "alpha": bundle.report.independence_number,
        # statuses only: witnesses name element and vertex ids, which a
        # relabeling of the points renumbers
        "statuses": {tid: v.status for tid, v in verdicts.items()},
    }


def run_pass(job: dict):
    """The timed calls of one job; returns what they returned."""
    if job["mode"] == "bundle":
        spec = parse_group_spec(job["spec"])
        bundle = harness.build_bundle(job["label"], spec,
                                      cache_dir=job.get("cache_dir"))
        return bundle, {c.id: harness.verify(c, bundle)
                        for c in harness.REGISTRY.values()}
    corpus = parse_manifest(Path(job["manifest"]).read_text())
    report = harness.run_corpus(corpus, tier="fast", threads=job["threads"],
                                cache_dir=job["cache_dir"])
    if job["mode"] == "corpus":
        return report, None
    return report, harness.hunt("all", corpus, threads=job["threads"],
                                cache_dir=job["cache_dir"])


def outputs_of(job: dict, first, second) -> dict:
    """The outputs of ``run_pass`` in the form the goldens hold."""
    if job["mode"] == "bundle":
        return {"bundle": bundle_summary(first, second)}
    out = {"rows": corpus_rows(first)}
    if second is not None:
        out["findings"] = canonical_findings(second)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    if job.get("cache_dir"):
        Path(job["cache_dir"]).mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if job.get("trace") else None
    setup_s = time.perf_counter() - T_START
    result: dict = {"setup_s": setup_s}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            returned = run_pass(job)
        else:
            with tracer.installed():
                returned = run_pass(job)
    except Exception as exc:  # the parent counts every row of the pass failed
        returned = None
        result["error"] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    outputs = None if returned is None else outputs_of(job, *returned)
    result.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024,
        outputs=outputs)
    if tracer is not None:
        metrics, bundles = tracer.layer_metrics(wall)
        result.update(layers=metrics, bundle_s=bundles)
        if job.get("spans"):
            tracer.write_jsonl(job["spans"])
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
