"""Source hygiene: every name a module imports is used in that module, the
package's count of defaulted parameters and its line count do not creep
back up, the package holds no code that only the tests run, starting the
CLI loads no scipy module it does not need, and importing the package
defaults the BLAS thread counts to one without overriding the caller's.

`twophase/__init__.py` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "twophase").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

#: defaulted parameters over src/twophase/*.py, dataclass fields included;
#: lower it when a change pins more
MAX_DEFAULTED_PARAMETERS = 21

#: lines over src/twophase/*.py, counted as `wc -l` counts them; lower it
#: when a change removes code
MAX_SRC_LINES = 3902

#: exempt from the test-only check: the console script pyproject.toml declares
ENTRY_POINTS = {"cli.main"}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def defaulted_parameters(source: str) -> int:
    """Parameters with a default value, over every function in the source,
    and the fields with a default value of every dataclass."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign) and item.value is not None
                         for item in node.body)
    return count


def test_defaulted_parameters_are_counted():
    assert defaulted_parameters("def f(a, b=1, *c, d, e=2, **g):\n"
                                "    def h(x=0):\n        pass\n"
                                "k = lambda y=1: y\n") == 4


def test_defaulted_dataclass_fields_are_counted():
    assert defaulted_parameters("@dataclass(frozen=True)\nclass A:\n"
                                "    a: int\n    b: int = 1\n    C = 2\n"
                                "@dataclass\nclass B:\n    d: float = 0.0\n"
                                "class E:\n    e: int = 3\n") == 2


def test_defaulted_parameters_stay_capped():
    total = sum(defaulted_parameters(p.read_text())
                for p in (ROOT / "src" / "twophase").glob("*.py"))
    assert total <= MAX_DEFAULTED_PARAMETERS


def test_src_lines_stay_capped():
    total = sum(p.read_text().count("\n")
                for p in (ROOT / "src" / "twophase").glob("*.py"))
    assert total <= MAX_SRC_LINES


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of each top-level function, class and
    module constant, and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield f"{module}.{t.id}", t.id, node


def _reads(tree: ast.AST, owners: dict) -> list:
    """(name, definitions enclosing the read) for each name or attribute
    read; `owners` maps id(node) to the definitions that node opens."""
    out = []

    def visit(node, enclosing):
        enclosing = enclosing | owners.get(id(node), frozenset())
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load):
            out.append((node.id if isinstance(node, ast.Name) else node.attr,
                        enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def definitions_only_tests_use(package: dict, users: dict) -> list:
    """Definitions in `package` ({module: source}) that nothing outside the
    tests uses.

    A definition is used when code in `package` outside its own body, and
    outside every definition found unused, reads its name, or when code in
    `users` ({name: source}) reads it or a string there equals it (a name
    that is patched or exported by name).  The unused set is grown to a
    fixed point, so a helper read only by unused code is unused too.
    Methods of an unused class are reported with the class.
    """
    defs, reads, outside = [], [], set()
    for module, source in package.items():
        tree = ast.parse(source)
        owners = {}
        for qual, name, node in _definitions(module, tree):
            defs.append((qual, name))
            owners[id(node)] = owners.get(id(node), frozenset()) | {qual}
        reads += _reads(tree, owners)
    for source in users.values():
        tree = ast.parse(source)
        outside |= {name for name, _ in _reads(tree, {})}
        outside |= {n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unused = set()
    while True:
        found = {qual for qual, name in defs if name not in outside and not any(
            read == name and qual not in enclosing and not enclosing & unused
            for read, enclosing in reads)}
        if found == unused:
            return sorted(q for q in unused if q.rpartition(".")[0] not in unused)
        unused = found


def test_test_only_definitions_are_found():
    package = {"m": "K = 1\n_T = 2\n"
                    "def used():\n    return helper() + K\n"
                    "def helper():\n    return 0\n"
                    "def only_tests():\n    return chain(_T)\n"
                    "def chain(x):\n    return chain(x - 1)\n"
                    "def patched():\n    pass\n"
                    "class C:\n    def __eq__(self, o):\n        return True\n"
                    "    def _own(self):\n        return self.via_private()\n"
                    "    def via_private(self):\n        return 1\n"
                    "    def unread(self):\n        return 2\n"
                    "class Dead:\n    def method(self):\n        pass\n"}
    users = {"bench": "import m\nm.used()\nm.C()\npatch(m, 'patched')\n"}
    assert definitions_only_tests_use(package, users) == [
        "m.C.unread", "m.Dead", "m._T", "m.chain", "m.only_tests"]


def test_no_test_only_definitions():
    package = {p.stem: p.read_text() for p in MODULES}
    users = {p.name: p.read_text()
             for p in PERFBENCH + [ROOT / "src" / "twophase" / "__init__.py"]}
    found = [q for q in definitions_only_tests_use(package, users)
             if q not in ENTRY_POINTS]
    assert found == [], "move these into tests/oracles.py"


def test_cli_start_loads_no_interpolate_or_optimize():
    # scipy.interpolate pulls in scipy.optimize, a quarter second of every
    # CLI start, and nothing in the package needs either
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, twophase.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'interpolate'], "
            "['scipy', 'optimize'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"}, ["3", "2", "1"]),
])
def test_import_defaults_blas_threads_to_one(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    code = ("import os, twophase; print(' '.join(os.environ[v] for v in "
            f"{BLAS_THREADS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == expected
