"""Source-level guards over the ``lef`` package."""

import ast
import json
import os
import subprocess
import sys
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


def loaded_scipy(code: str) -> list:
    """The scipy modules in sys.modules after ``code`` runs in a fresh
    interpreter that imports ``lef`` from this checkout."""
    src = str(Path(lef.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps("
         "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_the_radial_layer_loads_no_scipy():
    assert loaded_scipy("import lef.radial") == []


def test_lef_radial_loads_no_optimize_integrate_or_interpolate(tmp_path):
    out = tmp_path / "radial.csv"
    loaded = loaded_scipy(
        "from lef import cli\n"
        f"assert cli.main(['radial', '--p', '8', '--alpha', 'optimal', "
        f"'--out', {str(out)!r}]) == 0")
    assert out.read_text(encoding="utf-8").count("\n") == 2
    assert "scipy.sparse.linalg" in loaded
    dropped = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")
    assert [m for m in loaded if m.startswith(dropped)] == []
