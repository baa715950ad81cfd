"""Command-line surface.

Subcommands: group, lattice, graph, analyze, verify, registry, hunt,
gap3249, export.
Exit codes: 0 clean, 1 usage or realization error, 2 counterexample found,
3 unverified entries present.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import __version__
from . import analytics as an
from . import cache as cache_mod
from .corpus import TIER_BOUNDS, load_corpus
from .errors import BudgetExceeded, GroupGraphError
from .graphs import build_graph, graph_to_json_dict, to_dot
from .harness import (HUNTS, REGISTRY, Budgets, build_bundle,
                      find_gap3249_action, hunt, registry_table, run_corpus)
from .specs import realize

KIND_ALIASES = {"gamma": "gamma", "delta": "delta", "d": "difference",
                "dstar": "difference_star"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_payload(payload: dict, args) -> None:
    """The payload as JSON, or as one ``key: value`` line per entry."""
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in payload.items()) + "\n",
              args.out)


def _lattice_for(spec_text: str, cache_dir: str | None):
    group = realize(spec_text)
    lat, _ = cache_mod.load_or_compute(group, cache_dir)
    return group, lat


def cmd_group(args) -> int:
    group, lat = _lattice_for(args.spec, args.cache)
    from .classify import classify
    cls = classify(group, lat)
    payload = {
        "spec": group.spec_label,
        "order": group.order,
        "degree": group.degree,
        "subgroup_count": lat.subgroup_count(),
        "nontrivial_proper_subgroups": len(lat.nontrivial_proper_ids()),
        "classification": cls.to_json_dict(),
    }
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        lines = [f"{key}: {value}" for key, value in payload.items()
                 if key != "classification"]
        lines += [f"  {key}: {value}"
                  for key, value in payload["classification"].items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_lattice(args) -> int:
    group, lat = _lattice_for(args.spec, args.cache)
    by_order = Counter(s.order for s in lat.subgroups)
    payload = {
        "spec": group.spec_label,
        "order": group.order,
        "subgroup_count": lat.subgroup_count(),
        "subgroups_by_order": {str(k): v for k, v in sorted(by_order.items())},
        "normal_count": sum(lat.is_normal),
        "maximal_count": len(lat.maximal_subgroups()),
        "conjugacy_class_count": len(lat.conj_classes),
        "sylow": {str(p): len(ids) for p, ids in sorted(lat.sylow_index.items())},
        "frattini_order": lat.order_of(lat.frattini()),
    }
    _emit_payload(payload, args)
    return 0


def _graph_for(args):
    group, lat = _lattice_for(args.spec, args.cache)
    return build_graph(lat, KIND_ALIASES[args.kind])


def cmd_graph(args) -> int:
    graph = _graph_for(args)
    if args.format == "dot":
        _emit(to_dot(graph), args.out)
    elif args.format == "json":
        _emit(_json(graph_to_json_dict(graph)), args.out)
    else:
        payload = graph_to_json_dict(graph)
        lines = [f"kind: {payload['kind']}", f"group: {payload['group']}",
                 f"vertices: {payload['vertex_count']}",
                 f"edges: {len(payload['edges'])}"]
        lines += [f"  {v['id']} {v['label']}" for v in payload["vertices"]]
        lines += [f"  edge {i} -- {j}" for i, j in payload["edges"]]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_analyze(args) -> int:
    graph = _graph_for(args)
    report = an.analyze(graph, clique_budget=args.budget_clique,
                        indep_budget=args.budget_indep, allow_unverified=True)
    payload = {"spec": graph.lattice.group.spec_label, "kind": graph.kind,
               **report.to_json_dict()}
    _emit_payload(payload, args)
    return 3 if report.unverified else 0


def cmd_verify(args) -> int:
    corpus = load_corpus(args.corpus)
    checks = None
    if args.theorem is not None:
        wanted = [t.strip() for t in args.theorem.split(",") if t.strip()]
        if not wanted:
            raise GroupGraphError("--theorem names no theorem id")
        missing = [t for t in wanted if t not in REGISTRY]
        if missing:
            raise GroupGraphError(f"unknown theorem id(s): {missing}")
        checks = [REGISTRY[t] for t in dict.fromkeys(wanted)]
    budgets = Budgets(clique=args.budget_clique, independence=args.budget_indep)
    report = run_corpus(corpus, checks, tier=args.tier, budgets=budgets,
                        cache_dir=args.cache)
    if args.format == "json":
        _emit(_json(report.to_json_dict()), args.out)
    else:
        _emit(report.to_text(), args.out)
    return report.exit_code()


def cmd_registry(args) -> int:
    table = registry_table()
    if args.format == "json":
        _emit(_json(table), args.out)
    else:
        _emit("".join(f"{row['id']}: {row['statement']}\n" for row in table),
              args.out)
    return 0


def cmd_hunt(args) -> int:
    budgets = Budgets(clique=args.budget_clique, independence=args.budget_indep)
    corpus = load_corpus(args.corpus)
    findings = hunt(args.target, corpus, tier=args.tier, budgets=budgets,
                    cache_dir=args.cache)
    if args.format == "json":
        _emit(_json([f.to_json_dict() for f in findings]), args.out)
    else:
        lines = [f"[{f.target}] {f.status}: {', '.join(f.groups)}: {f.detail}"
                 for f in findings]
        _emit("\n".join(lines) + "\n", args.out)
    if any(f.status == "counterexample" for f in findings):
        return 2
    if any(f.status == "unverified" for f in findings):
        return 3
    return 0


def cmd_gap3249(args) -> int:
    budgets = Budgets(clique=args.budget_clique, independence=args.budget_indep)
    spec = find_gap3249_action()
    bundle = build_bundle("gap_32_49_like", spec, budgets=budgets,
                          cache_dir=args.cache)
    _emit_payload({
        "target": "gap3249",
        "spec": str(spec),
        "order": bundle.group.order,
        "nilpotent": bundle.classification.nilpotent,
        "difference_bipartite": bundle.report.bipartite,
        "reduced_components": bundle.star_report.component_count,
    }, args)
    return 0


def cmd_export(args) -> int:
    if not args.out:
        raise GroupGraphError("export requires --out FILE")
    return cmd_graph(args)


def build_parser() -> _Parser:
    parser = _Parser(prog="groupgraph",
                     description="subgroup-graph computations on finite "
                                 "permutation groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def common(p, formats=("json", "text"), spec=True, cache=True):
        if spec:
            p.add_argument("spec", help="group spec, e.g. 'dihedral(4)'")
        if cache:
            p.add_argument("--cache", help="lattice cache directory")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    def budgets(p):
        p.add_argument("--budget-clique", type=int,
                       default=an.DEFAULT_SOLVER_BUDGET, metavar="N")
        p.add_argument("--budget-indep", type=int,
                       default=an.DEFAULT_SOLVER_BUDGET, metavar="N")

    p = sub.add_parser("group", help="order, degree, classification")
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("lattice", help="subgroup lattice summary")
    common(p)
    p.set_defaults(func=cmd_lattice)

    for name, fn, formats, help_text in (
            ("graph", cmd_graph, ("json", "text", "dot"),
             "emit one subgroup graph"),
            ("analyze", cmd_analyze, ("json", "text"),
             "exact invariants of one subgroup graph"),
            ("export", cmd_export, ("json", "text", "dot"),
             "write a graph to a file")):
        p = sub.add_parser(name, help=help_text)
        common(p, formats)
        p.add_argument("--kind", choices=tuple(KIND_ALIASES), default="d")
        p.set_defaults(func=fn)
        if name == "analyze":
            budgets(p)

    p = sub.add_parser("verify", help="run the statement registry over a corpus")
    common(p, spec=False)
    budgets(p)
    p.add_argument("--corpus", default=None, help="manifest path (default: built-in)")
    p.add_argument("--tier", choices=tuple(TIER_BOUNDS), default="fast")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored; bundles are built one at a time")
    p.add_argument("--theorem", default=None, metavar="ID[,ID...]")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("registry", help="print the statement registry")
    common(p, spec=False, cache=False)
    p.set_defaults(func=cmd_registry)

    p = sub.add_parser("hunt", help="scan the corpus for the open problems")
    common(p, spec=False)
    budgets(p)
    p.add_argument("--target", default="all", choices=(*HUNTS, "all"))
    p.add_argument("--corpus", default=None)
    p.add_argument("--tier", choices=tuple(TIER_BOUNDS), default="fast")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored; bundles are built one at a time")
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("gap3249", help="re-derive the order-32 fixture")
    common(p, spec=False)
    budgets(p)
    p.set_defaults(func=cmd_gap3249)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"groupgraph: unverified: {exc}", file=sys.stderr)
        return 3
    except GroupGraphError as exc:
        print(f"groupgraph: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"groupgraph: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
