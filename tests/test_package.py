import ast
import os
import subprocess
import sys
from pathlib import Path

import groupgraph
from conftest import MINI_MANIFEST

SRC = Path(groupgraph.__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    """Invariants raise errors, so they still hold under ``python -O``."""
    sources = sorted(Path(groupgraph.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_makes_no_np_unique_call():
    """``np.unique`` sorts, and a plain call imports ``numpy.ma``; the
    package tells values apart by scatters into index-sized arrays."""
    sources = sorted(Path(groupgraph.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "unique"]
    assert found == []


def test_a_bundle_and_a_corpus_run_never_import_numpy_ma():
    """A plain ``np.unique(x)`` imports ``numpy.ma`` (15-19 ms on numpy
    2.4), a cost every process would pay; the package calls none."""
    script = """if True:
        import sys
        from groupgraph import harness
        from groupgraph.corpus import parse_manifest
        bundle = harness.build_bundle("psl2_7", "psl2(7)")
        verdicts = [harness.verify(c, bundle)
                    for c in harness.REGISTRY.values()]
        assert len(verdicts) == 28
        harness.run_corpus(parse_manifest(sys.stdin.read()), tier="fast")
        print("numpy.ma" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            input=MINI_MANIFEST, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
