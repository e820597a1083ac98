"""Two scans of the src/deltasums modules with the standard-library ast parser.

* Every name a module imports is used in that module: a name bound by an
  import statement counts as used when it appears as a name anywhere in the
  module or is listed in __all__ (a re-export).
* No code outside CoefficientSequence.values touches a .lam attribute.  The
  divisor kind keeps uint16 counts there, and values() is the one read that
  checks the range and returns float64, so no package arithmetic can wrap.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deltasums"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .modular import divisors, primes_in as pin\n"
        "from .characters import *\n"
        "__all__ = ['divisors']\n"
        "x = np.pi\n"
    )
    assert _unused_imports(ast.parse(source)) == ["os (line 2)", "pin (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _lam_accesses(tree: ast.Module) -> list[int]:
    """Lines of every .lam attribute outside CoefficientSequence.values."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "CoefficientSequence":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "values":
                    allowed |= {id(node) for node in ast.walk(fn)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "lam" and id(node) not in allowed
    )


def test_the_scan_sees_a_lam_read():
    source = (
        "class CoefficientSequence:\n"
        "    def values(self, n):\n"
        "        return self.lam[n]\n"
        "    def total(self):\n"
        "        return self.lam.sum()\n"
        "def weights(seq, k):\n"
        "    lam = seq.values(k)\n"
        "    return seq.lam[k] * lam\n"
    )
    assert _lam_accesses(ast.parse(source)) == [5, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_coefficients_only_through_values(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _lam_accesses(tree) == []
