"""Regenerate the golden outputs the benchmark checks every pass against.

    python3 perfbench/make_goldens.py

Goldens come from the library's own named constructions in manifest
order, so they also check that the benchmark's seeded inputs (a permuted
manifest, a relabeled ``raw(...)`` spec) do not change any answer. Run it
only when a change is meant to alter verdicts, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import BUNDLE_LABEL, BUNDLE_SPEC, bench_manifest  # noqa: E402
from worker import outputs_of, run_pass  # noqa: E402

GOLDEN = HERE / "golden"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="goldens-", dir=HERE))
    try:
        manifest = work / "manifest.txt"
        manifest.write_text(bench_manifest(None))
        job = {"mode": "corpus_hunt", "manifest": str(manifest),
               "cache_dir": str(work / "cache"), "threads": 1}
        out = outputs_of(job, *run_pass(job))
    finally:
        shutil.rmtree(work)
    bundles = {}
    for label, spec in ((BUNDLE_LABEL, BUNDLE_SPEC), ("psl2_7", "psl2(7)")):
        job = {"mode": "bundle", "label": label, "spec": spec}
        bundles[label] = outputs_of(job, *run_pass(job))["bundle"]
    for name, data in (("corpus_rows", out["rows"]),
                       ("hunt_all", out["findings"]), ("bundles", bundles)):
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{len(out['rows'])} rows, {len(out['findings'])} findings, "
          f"bundles {sorted(bundles)} -> {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
