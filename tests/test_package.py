import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


BLAS_ROUTINES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def blas_uses(tree) -> list[int]:
    """Lines of the calls to BLAS-backed numpy routines, by name or as a
    method, of ``@``, and of every use or import of ``linalg``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in BLAS_ROUTINES:
                found.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            names.append(getattr(node, "module", None) or "")
            if any("linalg" in name.split(".") or name in BLAS_ROUTINES
                   for name in names):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("source", [
    "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)", "a @ b", "a @= b",
    "np.linalg.norm(a)", "from numpy import linalg",
    "from numpy.linalg import norm", "import numpy.linalg",
    "from numpy import dot", "np.einsum('i,i', a, b)",
    "np.tensordot(a, b)", "np.inner(a, b)", "np.vdot(a, b)"])
def test_blas_uses_finds_each_form(source):
    assert blas_uses(ast.parse(source)) == [1]


def test_package_calls_no_blas_routine():
    """The package's array passes are gathers, scatters and reductions;
    no BLAS routine, so the single OpenBLAS thread that ``groupgraph``
    asks for at import loses nothing."""
    sources = sorted(Path(groupgraph.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{line}" for path in sources
             for line in blas_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def run_import(script: str, **preset) -> str:
    """The output of ``script`` in a fresh interpreter whose environment
    has none of the thread-count variables but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to count the threads")
def test_importing_groupgraph_starts_no_thread():
    script = ("import os, groupgraph; "
              "print(len(os.listdir('/proc/self/task')), "
              "os.environ['OPENBLAS_NUM_THREADS'])")
    assert run_import(script) == "1 1"


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_a_preset_thread_count_is_left_alone(name):
    script = ("import os, groupgraph; "
              "print([os.environ.get(v) for v in %r])" % (THREAD_VARIABLES,))
    expected = [("3" if v == name else None) for v in THREAD_VARIABLES]
    assert run_import(script, **{name: "3"}) == str(expected)


def test_numpy_imported_first_keeps_its_thread_count():
    script = ("import os, numpy, groupgraph; "
              "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert run_import(script) == "None"


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
