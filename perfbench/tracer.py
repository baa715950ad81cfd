"""Tracing from outside the library.

The tracer wraps the public names that ``groupgraph.harness`` (and the
modules it calls into) resolve at call time, records one span per wrapped
call, and restores every original on exit. Nothing under ``src/`` knows it
is being traced.

A span holds (name, group, start, end, parent) plus the thread's CPU time
at start and end. A span's self time is its CPU time minus its child
spans' CPU time, and a layer's busy time is the sum of the self times of
its spans, so nested calls are never counted twice. Self times are CPU
times because with two threads a span's wall time also holds the time its
thread waited for the interpreter lock; that waiting is reported apart, as
wall minus CPU time summed over spans.

``FiniteGroup.closure_mask`` runs tens of thousands of times per pass, all
from inside lattice enumeration, so it gets no span of its own: each call
adds to a count and a time on the enclosing span, and its time stays part
of the lattice layer's self time.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from groupgraph import analytics, cache, groups, harness

# span name -> layer whose busy time it counts toward
LAYER_OF = {
    "specs.realize": "specs",
    "groups.mul": "groups",
    "cache.load_or_compute": "cache",
    "lattice.all_subgroups": "lattice",
    "classify.classify": "classify",
    "graphs.build_graph": "graphs",
    "graphs.star_reduction": "graphs",
    "analytics.analyze": "analytics",
    "analytics.clique_number": "analytics",
    "analytics.independence_number": "analytics",
    "analytics.graphs_isomorphic": "analytics",
    "analytics.find_odd_hole_or_antihole": "analytics",
    "harness.build_bundle": "harness.glue",
    "harness.verify": "harness.checks",
}
# layer -> the metric that reports its busy time (the sum of its spans'
# self times); together they account for all the CPU time spans record
BUSY_METRIC = {
    "specs": "specs.busy_s",
    "groups": "groups.mul_s",
    "lattice": "lattice.self_s",
    "cache": "cache.busy_s",
    "classify": "classify.busy_s",
    "graphs": "graphs.busy_s",
    "analytics": "analytics.busy_s",
    "harness.checks": "harness.checks_s",
    "harness.glue": "harness.glue_s",
}


class Span:
    __slots__ = ("name", "group", "start", "end", "cpu_start", "cpu_end",
                 "parent", "thread", "child_wall", "child_cpu", "counters")

    def __init__(self, name, group, parent, start, cpu_start):
        self.name = name
        self.group = group
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = start
        self.cpu_start = cpu_start
        self.end = self.cpu_end = None
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.counters: dict = {}

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu

    @property
    def self_wait(self) -> float:
        """Time inside this span, not in a child, when the thread did not
        run: waiting for the interpreter lock or for the host's CPU."""
        return self.wall - self.child_wall - self.self_cpu


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, group: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = parent.group
        span = Span(name, group, parent, time.perf_counter(),
                    time.thread_time())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_wall += span.wall
            span.parent.child_cpu += span.cpu
        self.spans.append(span)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, group_of=None,
               count=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, group_of(*args, **kwargs)
                               if group_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(span, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _patch_closure(self):
        original = groups.FiniteGroup.closure_mask
        tracer = self

        def closure_mask(group, *args, **kwargs):
            t0 = time.thread_time()
            try:
                return original(group, *args, **kwargs)
            finally:
                cpu = time.thread_time() - t0
                stack = tracer._stack()
                if stack:
                    c = stack[-1].counters
                    c["closure_calls"] = c.get("closure_calls", 0) + 1
                    c["closure_s"] = c.get("closure_s", 0.0) + cpu

        groups.FiniteGroup.closure_mask = closure_mask
        self._patches.append((groups.FiniteGroup, "closure_mask", original))

    def _patch_load_or_compute(self):
        original = cache.load_or_compute
        tracer = self

        def load_or_compute(group, cache_dir=None, **kwargs):
            span = tracer.open("cache.load_or_compute")
            try:
                mul = tracer.open("groups.mul")
                try:
                    group.mul  # force the table so the lattice span excludes it
                finally:
                    tracer.close(mul)
                lat, hit = original(group, cache_dir, **kwargs)
            finally:
                tracer.close(span)
            if cache_dir is not None:
                span.counters["hit" if hit else "miss"] = 1
            return lat, hit

        cache.load_or_compute = load_or_compute
        self._patches.append((cache, "load_or_compute", original))

    def install(self) -> None:
        def label_of(label, *args, **kwargs):
            return label

        def spec_of(spec, *args, **kwargs):
            return str(spec)

        def count_lattice(span, lat, *args, **kwargs):
            span.counters["subgroups"] = lat.subgroup_count()

        def count_graph(span, graph, *args, **kwargs):
            span.counters["pairs"] = graph.n * (graph.n - 1) // 2
            span.counters["edges"] = graph.edge_count()

        def count_report(span, report, graph, *args, **kwargs):
            if getattr(graph, "kind", None) == "difference":
                span.counters["vertices"] = report.vertex_count
                span.counters["isolated"] = report.isolated_count

        self._patch(harness, "build_bundle", "harness.build_bundle",
                    group_of=label_of)
        self._patch(harness, "realize", "specs.realize", group_of=spec_of)
        self._patch(harness, "classify", "classify.classify")
        self._patch(harness, "build_graph", "graphs.build_graph",
                    count=count_graph)
        self._patch(harness, "star_reduction", "graphs.star_reduction")
        self._patch(harness, "verify", "harness.verify")
        self._patch(cache, "all_subgroups", "lattice.all_subgroups",
                    count=count_lattice)
        self._patch_load_or_compute()
        self._patch_closure()
        self._patch(analytics, "analyze", "analytics.analyze",
                    count=count_report)
        for fn in ("clique_number", "independence_number",
                   "graphs_isomorphic", "find_odd_hole_or_antihole"):
            self._patch(analytics, fn, f"analytics.{fn}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting -------------------------------------------------------

    def write_jsonl(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "group": s.group,
                    "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)),
                    "thread": s.thread, "self_cpu_s": s.self_cpu,
                    **s.counters}) + "\n")

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer numbers for a traced pass that took ``wall`` seconds.

        Returns the metrics and the wall time of each group's bundle.
        """
        busy = dict.fromkeys(BUSY_METRIC, 0.0)
        total: dict[str, float] = {}
        bundles: dict[str, float] = {}
        roots_cpu = 0.0
        wait = 0.0

        def add(key, value):
            total[key] = total.get(key, 0) + value

        for s in self.spans:
            busy[LAYER_OF[s.name]] += s.self_cpu
            wait += s.self_wait
            if s.parent is None:
                roots_cpu += s.cpu
            c = s.counters
            for key in ("closure_calls", "closure_s"):
                add(key, c.get(key, 0))
            if s.name == "lattice.all_subgroups":
                add("lattice_closures", c.get("closure_calls", 0))
            add(f"span.{s.name}", s.cpu)
            add(f"calls.{s.name}", 1)
            for key in ("subgroups", "pairs", "edges", "vertices", "isolated",
                        "hit", "miss"):
                add(key, c.get(key, 0))
            if s.name == "cache.load_or_compute" and "hit" in c:
                add("cache.read_s", s.self_cpu)
            elif s.name == "cache.load_or_compute" and "miss" in c:
                add("cache.write_s", s.self_cpu)
            elif s.name == "harness.build_bundle":
                bundles[s.group] = bundles.get(s.group, 0.0) + s.wall
        subs = total.get("subgroups", 0)
        vertices = total.get("vertices", 0)
        metrics = {BUSY_METRIC[layer]: t for layer, t in busy.items()}
        metrics.update({
            "specs.calls": total.get("calls.specs.realize", 0),
            "groups.closure_calls": total.get("closure_calls", 0),
            "groups.closure_s": total.get("closure_s", 0.0),
            "lattice.subgroups": subs,
            "lattice.closures_per_subgroup":
                total.get("lattice_closures", 0) / subs if subs else 0.0,
            "cache.hits": total.get("hit", 0),
            "cache.misses": total.get("miss", 0),
            "cache.read_s": total.get("cache.read_s", 0.0),
            "cache.write_s": total.get("cache.write_s", 0.0),
            "graphs.pairs": total.get("pairs", 0),
            "graphs.edges": total.get("edges", 0),
            "analytics.clique_s": total.get("span.analytics.clique_number", 0.0),
            "analytics.indep_s":
                total.get("span.analytics.independence_number", 0.0),
            "analytics.iso_s":
                total.get("span.analytics.graphs_isomorphic", 0.0),
            "analytics.hole_s":
                total.get("span.analytics.find_odd_hole_or_antihole", 0.0),
            "analytics.isolated_share":
                total.get("isolated", 0) / vertices if vertices else 0.0,
            "harness.checks": total.get("calls.harness.verify", 0),
            "harness.wait_s": wait,
            # the part of the wall no thread spent running inside a span:
            # run_corpus and hunt bookkeeping, the pool's hand-offs, the
            # hunt scanners' own loops. Negative when two threads ran at
            # once (numpy releases the interpreter lock).
            "harness.unattributed_s": wall - roots_cpu,
        })
        return metrics, bundles
