"""The groupgraph benchmark.

    python3 perfbench/run.py --workload fast_cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout; the library is imported from ``src/``.
Each workload repeats its pass, every pass in a fresh process (see
``worker.py``), until the next one would overrun ``--seconds``, checks
every pass's outputs against ``golden/``, and prints as its last line one
JSON object: ``correct``, ``attempted`` and ``failed`` group rows, and the
metrics. With ``--trace 0`` those are the end-to-end metrics, the median
over passes; with ``--trace 1`` one more, traced pass follows and the
metrics are its per-layer numbers. The line before it gives the spread of
each end-to-end metric (quartiles and sample count) and the error rate.

Workloads (why each was chosen is in BENCHMARK.json):

- ``fast_cold``: ``run_corpus(tier="fast", threads=1)`` into a fresh,
  empty lattice cache: the first ``verify --tier fast``.
- ``fast_warm``: set-up fills a fresh cache with one cold pass; the timed
  pass is ``run_corpus(threads=2)`` then ``hunt("all", threads=2)`` on
  that cache, as ``verify``/``hunt --threads 2 --cache DIR``.
- ``psl2_8``: ``build_bundle`` of the long-tier group psl2(8), points
  relabeled by the seed, then ``verify`` of every registry check.

``--selfcheck`` runs each workload's code path on a small input, traced
and untraced, and checks the outputs and the tracer's bookkeeping.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
WORKER = HERE / "worker.py"
PASS_TIMEOUT_S = 150
SELFCHECK_LABELS = ("c12", "dih06", "ea_2_3", "s4", "a4", "d4xz3", "d4xz5",
                    "q8xz3")

# passes a run makes at least, even when they overrun --seconds
MIN_PASSES = {"fast_cold": 3, "fast_warm": 2, "psl2_8": 3}
# threads of the timed pass; at most 2, the core count the bounds assume
THREADS = {"fast_cold": 1, "fast_warm": 2, "psl2_8": 1}
E2E = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
       ("peak_rss_mb", "MB"))
# the fast tier's slowest bundles once elem_abelian(2,6) is left out
BUNDLE_PROBES = ("ea_2_5", "psl2_7")


def median_quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


class Run:
    """One benchmark run: its work directory, passes and output checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        # imported here: inputs imports groupgraph, whose sources main()
        # has just found and put on the path
        from inputs import (BUNDLE_LABEL, BUNDLE_SPEC, bench_manifest,
                            relabeled_spec)
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.golden_rows = json.loads((GOLDEN / "corpus_rows.json").read_text())
        self.golden_findings = None
        self.golden_bundles = json.loads((GOLDEN / "bundles.json").read_text())
        self.manifest = work / "manifest.txt"
        self.bundle_label = BUNDLE_LABEL
        if workload == "selfcheck":
            self.manifest.write_text(
                bench_manifest(seed, labels=SELFCHECK_LABELS))
            self.bundle_label = "psl2_7"
            self.bundle_spec = relabeled_spec("psl2(7)", seed)
        else:
            self.manifest.write_text(bench_manifest(seed))
            self.bundle_spec = relabeled_spec(BUNDLE_SPEC, seed)
            self.golden_findings = json.loads(
                (GOLDEN / "hunt_all.json").read_text())
        self.labels = [line.split("=")[0].strip()
                       for line in self.manifest.read_text().splitlines()]
        self._count = 0

    # -- passes ------------------------------------------------------------

    def spawn(self, mode: str, *, cache: Path | None = None,
              threads: int = 1, trace: bool = False) -> dict:
        self._count += 1
        out = self.work / f"pass{self._count}.json"
        job = {"mode": mode, "manifest": str(self.manifest),
               "label": self.bundle_label, "spec": self.bundle_spec,
               "cache_dir": str(cache) if cache else None,
               "threads": threads, "trace": trace, "out": str(out)}
        if trace:
            job["spans"] = str(HERE / "out" /
                               f"spans-{self.workload}-{os.getpid()}.jsonl")
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                               f"{proc.stderr[-2000:]}")
        result = json.loads(out.read_text())
        self.check(mode, result)
        return result

    def fresh_cache(self) -> Path:
        return self.work / f"cache{self._count + 1}"

    # -- output checks -----------------------------------------------------

    def check(self, mode: str, result: dict) -> None:
        """Count the pass's group rows and the ones that do not match."""
        outputs = result["outputs"]
        if mode == "bundle":
            rows = {self.bundle_label: (outputs or {}).get("bundle")}
            golden = {self.bundle_label: self.golden_bundles[self.bundle_label]}
        else:
            rows = (outputs or {}).get("rows", {})
            # labels outside the fast tier have no golden row: run_corpus
            # must leave them out
            golden = {label: self.golden_rows[label] for label in self.labels
                      if label in self.golden_rows}
            # the hunt counts as one row; the golden holds the findings
            # over the whole corpus, so a corpus subset has none
            if mode == "corpus_hunt" and self.golden_findings is not None:
                rows["hunt"] = (outputs or {}).get("findings")
                golden["hunt"] = self.golden_findings
        bad = [key for key in golden if rows.get(key) != golden[key]]
        bad += [key for key in rows if key not in golden]
        if outputs is None:  # the call raised: every row of the pass failed
            bad = list(golden)
            self.notes.append(result["error"])
        self.attempted += len(golden)
        self.failed += len(bad)
        if bad:
            self.notes.append(f"{mode}: {len(bad)} rows differ, e.g. {bad[:3]}")

    # -- workloads ---------------------------------------------------------

    def one_pass(self, trace: bool = False) -> dict:
        """Run one set-up plus timed pass; return the timed pass's result
        with ``setup_s`` set to the set-up it needed."""
        if self.workload == "fast_cold":
            return self.spawn("corpus", cache=self.fresh_cache(), trace=trace)
        if self.workload == "fast_warm":
            cache = self.fresh_cache()
            fill = self.spawn("corpus", cache=cache)
            warm = self.spawn("corpus_hunt", cache=cache,
                              threads=THREADS["fast_warm"], trace=trace)
            warm["setup_s"] = fill["setup_s"] + fill["wall_s"]
            return warm
        return self.spawn("bundle", trace=trace)


def measure(run: Run, seconds: float) -> list[dict]:
    """Repeat passes until the next one would overrun ``seconds``."""
    passes: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run.one_pass())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES[run.workload]
                and elapsed + statistics.median(durations) > seconds):
            return passes


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    metrics, spread = {}, {}
    for name, unit in E2E:
        med, q1, q3 = median_quartiles([p[name] for p in passes])
        metrics[name] = {"value": med, "unit": unit}
        spread[name] = {"p25": q1, "p50": med, "p75": q3, "n": len(passes)}
    return metrics, spread


def layer_report(result: dict, untraced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics of a traced pass, and what is wrong with it: its
    outputs must equal the untraced passes' outputs, and the layers' self
    times plus the unattributed time must give back its wall time (the
    self times partition the root spans' CPU time, which the tracer sums
    separately)."""
    from tracer import BUSY_METRIC  # imports groupgraph, like inputs
    layers = dict(result["layers"])
    wall = result["wall_s"]
    problems = []
    if result["outputs"] != untraced[-1]["outputs"]:
        problems.append("traced outputs differ from untraced outputs")
    busy = sum(layers[k] for k in BUSY_METRIC.values())
    gap = busy + layers["harness.unattributed_s"] - wall
    if abs(gap) > 1e-6 * max(1.0, wall):
        problems.append(f"self times + unattributed miss the wall by {gap} s")
    bundle_s = sorted(result["bundle_s"].values())
    layers["harness.bundle_p50_s"] = statistics.median(bundle_s)
    layers["harness.bundle_p90_s"] = (
        statistics.quantiles(bundle_s, n=10, method="inclusive")[-1]
        if len(bundle_s) > 1 else bundle_s[0])
    for label in BUNDLE_PROBES:
        layers[f"harness.bundle_s.{label}"] = result["bundle_s"].get(label, 0.0)
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - statistics.median(
        p["wall_s"] for p in untraced)
    return layers, problems


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def bench(args) -> int:
    work = HERE / "out" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        passes = measure(run, args.seconds)
        metrics, spread = end_to_end(passes)
        problems: list[str] = []
        if args.trace:
            layers, problems = layer_report(run.one_pass(trace=True),
                                            passes)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_units().items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in run.notes + problems:
        print("NOTE", note, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "threads": THREADS[args.workload],
                      "spread": spread,
                      "error_rate": run.failed / run.attempted,
                      "env": environment()}))
    print(json.dumps({"correct": run.failed == 0 and not problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def selfcheck(seed: int) -> int:
    """Each workload's code path on a small input, untraced then traced."""
    work = HERE / "out" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    ok = True
    try:
        run = Run("selfcheck", seed, work)
        warm_cache = run.fresh_cache()
        run.spawn("corpus", cache=warm_cache)
        cases = {
            "fast_cold": lambda trace: run.spawn(
                "corpus", cache=run.fresh_cache(), trace=trace),
            "fast_warm": lambda trace: run.spawn(
                "corpus_hunt", cache=warm_cache, threads=THREADS["fast_warm"],
                trace=trace),
            "psl2_8": lambda trace: run.spawn("bundle", trace=trace),
        }
        for name, call in cases.items():
            plain = call(False)
            result = call(True)
            layers, problems = layer_report(result, [plain])
            if name == "fast_warm" and (layers["cache.misses"]
                                        or not layers["cache.hits"]):
                problems.append("the warm pass did not run from the cache")
            ok = ok and not problems
            print("PASS" if not problems else "FAIL", name,
                  f"wall {result['wall_s']:.2f} s,",
                  f"{len(layers)} layer metrics", *problems)
        ok = ok and run.failed == 0
        print("PASS" if run.failed == 0 else "FAIL", "goldens:",
              f"{run.attempted - run.failed}/{run.attempted} rows match",
              *run.notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groupgraph" / "__init__.py").is_file():
        print(f"no groupgraph sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
