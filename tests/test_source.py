"""Source-level guards over the ``lef`` package."""

import ast
from pathlib import Path

import lef

MODULES = sorted(Path(lef.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so no correctness check of the
    # program may rely on one
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(MODULES) >= 8
    assert found == []
