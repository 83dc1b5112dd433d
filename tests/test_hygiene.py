"""Source hygiene: every name a module imports is used in that module, and
the package's count of defaulted parameters does not creep back up.

`twophase/__init__.py` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "twophase").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))

#: defaulted parameters over src/twophase/*.py; lower it when a change pins more
MAX_DEFAULTED_PARAMETERS = 57


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


def defaulted_parameters(source: str) -> int:
    """Parameters with a default value, over every function in the source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_defaulted_parameters_are_counted():
    assert defaulted_parameters("def f(a, b=1, *c, d, e=2, **g):\n"
                                "    def h(x=0):\n        pass\n"
                                "k = lambda y=1: y\n") == 4


def test_defaulted_parameters_stay_capped():
    total = sum(defaulted_parameters(p.read_text())
                for p in (ROOT / "src" / "twophase").glob("*.py"))
    assert total <= MAX_DEFAULTED_PARAMETERS
