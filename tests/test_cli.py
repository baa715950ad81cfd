import json
import shlex
from pathlib import Path

import pytest

from groupgraph.cli import build_parser, main
from groupgraph import cli, harness
from groupgraph.harness import (Budgets, HuntFinding, build_bundle, hunt,
                                registry_table)
from groupgraph.corpus import load_corpus

MINI = """\
s3 = dihedral(3)
z6 = cyclic(6)
d4 = dihedral(4)
a4 = alternating(4)
"""


@pytest.fixture()
def mini_corpus_file(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(MINI)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_info_s4(capsys):
    code, out, _ = run_cli(capsys, "group", "symmetric(4)")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24
    assert payload["subgroup_count"] == 30
    assert payload["classification"]["solvable"] is True
    assert payload["classification"]["supersolvable"] is False


def test_group_info_cyclic7(capsys):
    code, out, _ = run_cli(capsys, "group", "cyclic(7)")
    payload = json.loads(out)
    assert payload["order"] == 7
    assert payload["nontrivial_proper_subgroups"] == 0


def test_group_info_psl27(capsys):
    code, out, _ = run_cli(capsys, "group", "psl2(7)")
    payload = json.loads(out)
    assert payload["order"] == 168
    assert payload["classification"]["simple"] is True


def test_group_info_as_text(capsys):
    code, out, _ = run_cli(capsys, "group", "symmetric(4)", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "spec: symmetric(4)", "order: 24", "degree: 4", "subgroup_count: 30",
        "nontrivial_proper_subgroups: 28", "  abelian: False",
        "  dedekind: False", "  iwasawa: False", "  nilpotent: False",
        "  solvable: True", "  supersolvable: False", "  simple: False",
        "  p_group: False"]


def test_lattice_summary(capsys):
    code, out, _ = run_cli(capsys, "lattice", "dicyclic(2)", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["subgroup_count"] == 6
    assert payload["frattini_order"] == 2


def test_graph_json_d_s3(capsys):
    code, out, _ = run_cli(capsys, "graph", "dihedral(3)", "--kind", "d")
    payload = json.loads(out)
    assert payload["vertex_count"] == 4
    assert payload["edges"] == [[1, 2], [1, 3], [2, 3]]


def test_graph_json_edges_name_printed_vertex_ids(capsys):
    """D* of D4 drops isolated vertices, so its lattice ids are not its
    positions; every edge endpoint is one of the printed ids."""
    code, out, _ = run_cli(capsys, "graph", "dihedral(4)", "--kind", "dstar")
    payload = json.loads(out)
    ids = [v["id"] for v in payload["vertices"]]
    assert code == 0 and ids != list(range(len(ids)))
    assert len(payload["edges"]) == 4
    assert all(i in ids and j in ids and i < j for i, j in payload["edges"])


def test_graph_dot_dstar_d4(capsys):
    code, out, _ = run_cli(capsys, "graph", "dihedral(4)", "--kind", "dstar",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("graph difference_star {")
    assert out.count(" -- ") == 4


def test_graph_as_text(capsys):
    code, out, _ = run_cli(capsys, "graph", "dihedral(3)", "--kind", "d",
                           "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "kind: difference", "group: dihedral(3)", "vertices: 4", "edges: 3",
        "  1 2:<(1 2)>", "  2 2:<(0 1)>", "  3 2:<(0 2)>", "  4 3:<(0 1 2)>",
        "  edge 1 -- 2", "  edge 1 -- 3", "  edge 2 -- 3"]


def test_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "alternating(4)", "--kind", "d")
    payload = json.loads(out)
    assert code == 0
    assert payload["clique_number"] == 5
    assert payload["independence_number"] == 4


def test_realization_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "group", "psl2(6)")
    assert code == 1
    assert "prime power" in err


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "cyclic(6)", "--kind", "nonsense"])
    assert exc.value.code == 1
    code, _, err = run_cli(capsys, "verify", "--theorem", "T-9.9")
    assert code == 1 and "unknown theorem" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "registry")
    assert code == 0
    assert json.loads(out) == [{"id": c.id, "statement": c.statement}
                               for c in harness.REGISTRY.values()]


def test_verify_list_as_text(capsys):
    """One ``id: statement`` line per check, in registry order; the JSON
    listing is unchanged by the text form."""
    code, out, _ = run_cli(capsys, "registry", "--format", "text")
    assert code == 0
    assert out.splitlines() == [f"{row['id']}: {row['statement']}"
                                for row in registry_table()]
    _, json_out, _ = run_cli(capsys, "registry")
    assert json_out == json.dumps(registry_table(), sort_keys=True,
                                  indent=2) + "\n"


def test_verify_mini_corpus(capsys, mini_corpus_file, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--corpus", mini_corpus_file,
                           "--cache", str(tmp_path / "c"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [g["label"] for g in payload["groups"]] == ["s3", "z6", "d4", "a4"]
    assert payload["summary"]["T-2.5"]["counterexample"] == 0
    assert payload["exit_code"] == 0


def test_verify_theorem_filter(capsys, mini_corpus_file):
    code, out, _ = run_cli(capsys, "verify", "--corpus", mini_corpus_file,
                           "--theorem", "T-6.1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["theorems"] == ["T-6.1"]
    assert set(payload["verdicts"]["s3"]) == {"T-6.1"}


@pytest.mark.parametrize("ids", [",", "", " , "])
def test_verify_theorem_naming_no_id_is_a_usage_error(capsys, monkeypatch,
                                                      mini_corpus_file, ids):
    """An empty ``--theorem`` list is refused before any group is
    realized, instead of running every bundle for an empty matrix."""
    realized = []
    monkeypatch.setattr(harness, "realize",
                        lambda spec: realized.append(spec))
    code, out, err = run_cli(capsys, "verify", "--corpus", mini_corpus_file,
                             "--theorem", ids)
    assert code == 1 and out == "" and "--theorem" in err
    assert realized == []


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_theorem_repeated_id_runs_once(capsys, mini_corpus_file, fmt):
    """A repeated id is one check, kept in first-seen order: the report
    is the one its deduplicated list gives."""
    argv = ("verify", "--corpus", mini_corpus_file, "--format", fmt)
    code, out, _ = run_cli(capsys, *argv, "--theorem", "T-6.1,T-2.5,T-6.1")
    assert code == 0
    assert out == run_cli(capsys, *argv, "--theorem", "T-6.1,T-2.5")[1]
    if fmt == "json":
        assert json.loads(out)["theorems"] == ["T-6.1", "T-2.5"]


def test_verify_corrupt_manifest(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("s3 = dihedral(3)\noops\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", str(bad))
    assert code == 1
    assert "line 2" in err


def test_verify_threads_deterministic(capsys, mini_corpus_file, tmp_path):
    """``--threads`` still parses, and changes nothing."""
    cache = str(tmp_path / "cache")
    outputs = []
    for threads in ((), ("--threads", "8")):
        code, out, _ = run_cli(capsys, "verify", "--corpus", mini_corpus_file,
                               *threads, "--cache", cache, "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_budget_exhaustion_gives_unverified_cells(capsys, tmp_path):
    """An independence search that runs out of budget turns its group's
    T-5.x cells into U; the rest of the matrix is the default run's."""
    specs = {"s3": "dihedral(3)", "psl2_7": "psl2(7)", "c4": "cyclic(4)"}
    manifest = tmp_path / "m.txt"
    manifest.write_text("".join(f"{k} = {v}\n" for k, v in specs.items()))
    argv = ("verify", "--corpus", str(manifest), "--cache",
            str(tmp_path / "c"))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    default = json.loads(out)["verdicts"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json",
                           "--budget-indep", "2")
    assert code == 3
    payload = json.loads(out)
    labels = [g["label"] for g in payload["groups"]]
    assert labels == list(specs) and payload["exit_code"] == 3
    ran_out = {label for label in labels
               if "independence_number" in build_bundle(
                   label, specs[label], budgets=Budgets(independence=2),
                   allow_unverified=True).report.unverified}
    assert ran_out == {"psl2_7"}
    for label in labels:
        for tid, cell in payload["verdicts"][label].items():
            if tid.startswith("T-5.") and label in ran_out:
                assert cell["status"] == "unverified", (label, tid)
            else:
                assert cell == default[label][tid], (label, tid)
    code, out, _ = run_cli(capsys, *argv, "--format", "text",
                           "--budget-indep", "2")
    assert code == 3
    lines = out.splitlines()
    row = next(line for line in lines if line.startswith("psl2_7 "))
    cells = dict(zip(lines[1].split(), row.split()[1:]))
    assert [cells[t] for t in ("5.1", "5.2", "5.3", "5.4")] == ["U"] * 4


def test_export_writes_file(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(capsys, "export", "dihedral(3)", "--kind", "d",
                           "--format", "dot", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("graph difference {")
    code, _, err = run_cli(capsys, "export", "dihedral(3)")
    assert code == 1 and "--out" in err


def test_hunt_text_output(capsys, mini_corpus_file):
    code, out, _ = run_cli(capsys, "hunt", "--target", "all", "--corpus",
                           mini_corpus_file, "--format", "text")
    findings = hunt("all", load_corpus(mini_corpus_file))
    assert code == 0 and findings
    assert out.splitlines() == [
        f"[{f.target}] {f.status}: {', '.join(f.groups)}: {f.detail}"
        for f in findings]


def test_hunt_json_output(capsys, mini_corpus_file):
    code, out, _ = run_cli(capsys, "hunt", "--target", "all", "--corpus",
                           mini_corpus_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [f.to_json_dict()
                       for f in hunt("all", load_corpus(mini_corpus_file))]
    assert {f["target"] for f in payload} >= {"H-1", "H-3", "H-4"}


def test_hunt_exit_3_when_a_search_runs_out(capsys, tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("s3 = dihedral(3)\npsl2_7 = psl2(7)\n")
    code, out, _ = run_cli(capsys, "hunt", "--target", "H-5", "--corpus",
                           str(manifest), "--budget-clique", "0")
    assert code == 3
    assert json.loads(out) == [{
        "target": "H-5", "groups": ["psl2_7"], "status": "unverified",
        "detail": "clique number exceeded its budget"}]


def test_hunt_exit_2_on_a_counterexample_even_beside_unverified(
        capsys, monkeypatch, mini_corpus_file):
    findings = [HuntFinding("H-5", ("a",), "unverified", "out of budget"),
                HuntFinding("H-1", ("b",), "counterexample", "disconnected")]
    monkeypatch.setattr(cli, "hunt", lambda *args, **kwargs: findings)
    code, out, _ = run_cli(capsys, "hunt", "--corpus", mini_corpus_file,
                           "--format", "text")
    assert code == 2
    assert out.splitlines() == ["[H-5] unverified: a: out of budget",
                                "[H-1] counterexample: b: disconnected"]
    monkeypatch.setattr(cli, "hunt", lambda *args, **kwargs: findings[:1])
    assert run_cli(capsys, "hunt", "--corpus", mini_corpus_file)[0] == 3


def test_hunt_gap3249(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gap3249", "--cache", str(tmp_path / "c"))
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 32
    assert payload["nilpotent"] is True
    assert payload["difference_bipartite"] is False
    assert payload["reduced_components"] >= 2


def test_hunt_gap3249_text_and_budgets(capsys, tmp_path):
    cache = str(tmp_path / "c")
    code, out, _ = run_cli(capsys, "gap3249", "--cache", cache,
                           "--format", "text")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    lines = out.splitlines()
    assert lines[0] == "target: gap3249" and "order: 32" in lines
    code, out, err = run_cli(capsys, "gap3249", "--cache", cache,
                             "--budget-clique", "0")
    assert code == 3 and out == "" and "unverified" in err


GROUP_COMMANDS = ("group", "lattice", "graph", "export", "analyze")
SOLVER_COMMANDS = ("analyze", "verify", "hunt", "gap3249")
BUDGETS = ("--budget-clique=7", "--budget-indep=7")


def _argv(command, flag):
    return [command, *(("cyclic(2)",) if command in GROUP_COMMANDS else ()),
            flag]


@pytest.mark.parametrize("command,flag", [
    *((c, b) for c in ("group", "lattice", "graph", "export", "registry")
      for b in BUDGETS),
    *((c, "--format=dot") for c in ("group", "lattice", "analyze", "verify",
                                    "registry", "hunt", "gap3249")),
    ("verify", "--list"), ("hunt", "--target=gap3249"),
    *(("registry", f) for f in ("--tier=fast", "--corpus=X", "--cache=D",
                                "--theorem=T-6.1", "--threads=2")),
    *(("gap3249", f) for f in ("--corpus=X", "--tier=long", "--threads=2",
                               "--target=all")),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command,
                                                               flag):
    with pytest.raises(SystemExit) as exc:
        main(_argv(command, flag))
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,attr,value", [
    *((c, "--budget-clique=7", "budget_clique", 7) for c in SOLVER_COMMANDS),
    *((c, "--budget-indep=7", "budget_indep", 7) for c in SOLVER_COMMANDS),
    *((c, "--format=dot", "format", "dot") for c in ("graph", "export")),
    *((c, "--threads=3", "threads", 3) for c in ("verify", "hunt")),
    ("registry", "--format=text", "format", "text"),
    ("gap3249", "--cache=D", "cache", "D"),
])
def test_each_kept_flag_still_parses(command, flag, attr, value):
    assert getattr(build_parser().parse_args(_argv(command, flag)),
                   attr) == value


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("groupgraph ")]


def test_readme_cli_block_names_every_subcommand():
    commands = {shlex.split(line)[1] for line in _readme_cli_lines()}
    assert commands == {"group", "lattice", "graph", "analyze", "verify",
                        "registry", "hunt", "gap3249", "export"}


@pytest.mark.parametrize("line", _readme_cli_lines(),
                         ids=lambda line: line.split("#")[0].strip())
def test_readme_cli_line_parses(line):
    """Every example in README's CLI block parses, so the docs cannot
    name a removed subcommand or flag."""
    argv = shlex.split(line, comments=True)
    assert build_parser().parse_args(argv[1:]).command == argv[1]


def test_analyze_unverified_exit_3(capsys):
    code, out, _ = run_cli(capsys, "analyze", "psl2(7)", "--kind", "d",
                           "--budget-indep", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["independence_number"] is None
    assert payload["unverified"] == ["independence_number"]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
