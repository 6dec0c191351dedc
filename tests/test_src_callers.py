"""Every function, class and method in the package has a caller in it.

Code that only the tests call belongs in the tests.  The scan collects the
functions, classes and methods ``src/fcps`` defines and the names its code
uses, and fails on a definition whose name no code outside its own body
uses.  A function or class counts as used by a name, an attribute, an
import or an identifier string; a method only by an attribute or a string,
so a local variable of the same name does not keep a property alive.
Dunder methods are called by Python itself.  ``ENTRY_POINTS`` are the
library functions that the acceptance criteria call directly.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fcps"
ENTRY_POINTS = frozenset({
    "fantasize", "direct_maximize", "dmp_integrate", "imitate_params",
    "cumulative_online", "generalization_study",
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
