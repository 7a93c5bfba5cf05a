"""Checks on the library's source text itself."""

import ast
from pathlib import Path

import ptop


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so behaviour must never hang on one.
    offenders = []
    for path in sorted(Path(ptop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []
