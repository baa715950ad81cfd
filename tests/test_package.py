import ast
from pathlib import Path

import groupgraph


def test_package_has_no_assert_statements():
    """Invariants raise errors, so they still hold under ``python -O``."""
    sources = sorted(Path(groupgraph.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
