"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "nfakit"


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may live in one
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
