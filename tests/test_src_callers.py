"""Every function, class and method in the package has a caller in it, and
no module reads another module's private names.

Code that only the tests call belongs in the tests.  The scan collects the
functions, classes and methods ``src/fcps`` defines and the names its code
uses, and fails on a definition whose name no code outside its own body
uses.  A function or class counts as used by a name, an attribute, an
import or an identifier string; a method only by an attribute or a string,
so a local variable of the same name does not keep a property alive.
Dunder methods are called by Python itself.  ``ENTRY_POINTS`` are the
library functions that the acceptance criteria call directly.

A name with a leading underscore belongs to its module: another module
that imports it, or reads it off the imported module, depends on a detail
the owner may change.

The package's settable values (parameters and dataclass fields with a
default) are counted here too, and may not rise above a recorded bound.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fcps"
ENTRY_POINTS = frozenset({
    "fantasize", "direct_maximize", "dmp_integrate", "imitate_params",
    "generalization_study",
})
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_names(tree: ast.AST) -> tuple[Counter, Counter]:
    """Names used anywhere, and names used as attributes or strings only:
    a method is reached through an attribute or by ``getattr``."""
    anywhere, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            anywhere[node.id] += 1
        elif isinstance(node, ast.alias):
            anywhere[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attributes[node.value] += 1
    return anywhere + attributes, attributes


def _definitions(tree: ast.AST):
    """(definition, is a method) for every function and class in ``tree``."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                yield child, isinstance(node, ast.ClassDef)


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each definition no code outside its body names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = [_used_names(tree) for tree in trees.values()]
    anywhere = sum((u[0] for u in used), Counter())
    attributes = sum((u[1] for u in used), Counter())
    found = []
    for module, tree in trees.items():
        for node, method in _definitions(tree):
            name = node.name
            if name in ENTRY_POINTS or (name.startswith("__") and name.endswith("__")):
                continue
            # the definition's own body may name it (recursion) without a caller
            inside = [_used_names(child) for child in node.body]
            if method:
                calls = attributes[name] - sum(u[1][name] for u in inside)
            else:
                calls = anywhere[name] - sum(u[0][name] for u in inside)
            if calls <= 0:
                found.append(f"{module}.{name}")
    return found


@pytest.mark.parametrize("source,expected", [
    ("def helper():\n    return 1\n", ["mod.helper"]),
    ("class Unused:\n    pass\n", ["mod.Unused"]),
    ("class Model:\n    @property\n    def n_points(self):\n        return 0\n"
     "MODEL = Model()\n", ["mod.n_points"]),
    ("def loop(n):\n    return loop(n - 1) if n else 0\n", ["mod.loop"]),
    ("def outer():\n    def inner():\n        return 1\n    return 2\nouter()\n",
     ["mod.inner"]),
    ("class Reps:\n    def n_contexts(self):\n        return 0\n"
     "def sample(n_contexts):\n    return Reps(), n_contexts\nsample(1)\n",
     ["mod.n_contexts"]),
])
def test_the_scan_finds_definitions_nothing_calls(source, expected):
    assert uncalled_definitions({"mod": source}) == expected


@pytest.mark.parametrize("sources", [
    {"mod": "def helper():\n    return 1\nVALUE = helper()\n"},
    {"a": "def helper():\n    return 1\n", "b": "from .a import helper\n"},
    {"a": "class Model:\n    @property\n    def size(self):\n        return 0\n",
     "b": "from .a import Model\nSIZE = Model().size\n"},
    {"mod": "def fantasize():\n    return 1\n"},
    {"mod": "class A:\n    def __len__(self):\n        return 0\nA()\n"},
    {"mod": "def hook():\n    return 1\nNAMES = ['hook']\n"},
])
def test_the_scan_passes_definitions_with_a_caller(sources):
    assert uncalled_definitions(sources) == []


def test_every_package_definition_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert uncalled_definitions(sources) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import names: ``.gp`` or ``fcps.gp``; ``""``
    for the package itself (``from . import gp``)."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "fcps":
        return node.module.partition(".")[2]
    return None


def foreign_private_reads(sources: dict[str, str]) -> list[str]:
    """``module: owner._name`` for each private name of another package
    module that ``module`` imports or reads off the imported module."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owners = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            owner = _package_module(node) if isinstance(node, ast.ImportFrom) else None
            for alias in node.names if owner is not None else ():
                if owner == "" and alias.name in sources:
                    owners[alias.asname or alias.name] = alias.name
                elif owner != module and _private(alias.name):
                    found.append(f"{module}: {owner}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in owners and owners[node.value.id] != module
                    and _private(node.attr)):
                found.append(f"{module}: {owners[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("sources,expected", [
    ({"gp": "def _solve(): pass\n", "acq": "from . import gp\ngp._solve()\n"},
     ["acq: gp._solve"]),
    ({"gp": "_LIMIT = 1\n", "acq": "from . import gp as g\nx = g._LIMIT\n"},
     ["acq: gp._LIMIT"]),
    ({"gp": "def _solve(): pass\n", "acq": "from .gp import _solve\n"},
     ["acq: gp._solve"]),
    ({"gp": "def _solve(): pass\n", "acq": "from fcps.gp import _solve\n"},
     ["acq: gp._solve"]),
    ({"gp": "def _solve(): pass\n", "acq": "from . import gp\ngp.solve()\n"}, []),
    ({"gp": "class A:\n    def __len__(self):\n        return 0\n",
      "acq": "from . import gp\nn = gp.A.__len__\n"}, []),
    ({"gp": "def _solve(): pass\n_solve()\n"}, []),
    ({"acq": "import numpy as np\nx = np._NoValue\n"}, []),
])
def test_the_scan_finds_private_names_read_across_modules(sources, expected):
    assert foreign_private_reads(sources) == expected


def test_no_package_module_reads_another_modules_private_names():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "gp" in sources and foreign_private_reads(sources) == []


# ROADMAP.md's design-quality aim tracks this count; a new option has to
# raise the bound here, in plain sight
SETTABLE_VALUES_AT_MOST = 28


def settable_values(sources: dict[str, str]) -> int:
    """Parameters with a default, plus fields with a default in dataclasses."""
    count = 0
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def package_settable_values() -> int:
    return settable_values({path.stem: path.read_text(encoding="utf-8")
                            for path in sorted(SRC.glob("*.py"))})


@pytest.mark.parametrize("source,expected", [
    ("def f(a, b=1, *, c, d=2):\n    return lambda x=3: x\n", 3),
    ("async def f(a=1, *args, b=None, **kw):\n    pass\n", 2),
    ("from dataclasses import dataclass, field\n"
     "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 1\n"
     "    c: list = field(default_factory=list)\n    D = 4\n", 2),
    ("class Plain:\n    a: int = 1\n", 0),
])
def test_the_counter_counts_defaults_and_dataclass_fields(source, expected):
    assert settable_values({"mod": source}) == expected


def test_the_package_has_no_more_settable_values_than_recorded():
    assert package_settable_values() <= SETTABLE_VALUES_AT_MOST
