"""Source hygiene: every name a module imports is used in that module.

`twophase/__init__.py` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "twophase").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport numpy as np\n"
                          "from a.b import c, d as e\nnp.ones(e)\n") == [
        "c", "math"]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.relative_to(ROOT).as_posix()
                              for p in MODULES + TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
