"""The package uses scipy through its public names only, and its
searches through ``fcps.optim`` only.

A private scipy module or name (one with a leading underscore anywhere in
its dotted path) can change or vanish in any scipy release, so
``src/fcps`` may not import one, reach one through an attribute, or name
one in a string.  ``optim`` holds the package's one bounded L-BFGS-B, so no
other module reaches ``scipy.optimize``.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fcps"
_PRIVATE_PATH = re.compile(r"^scipy(\.\w+)*\._")


def _private(dotted: str) -> bool:
    return any(part.startswith("_") for part in dotted.split("."))


def private_scipy_names(source: str) -> list[str]:
    """Private scipy modules and names that ``source`` imports or reaches."""
    tree = ast.parse(source)
    bound = set()  # local names bound to scipy modules or objects
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    if _private(alias.name):
                        found.append(alias.name)
                    bound.add(alias.asname or "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "scipy":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if _private(dotted):
                    found.append(dotted)
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2:
            target, name = node.args[0], node.args[1]
            while isinstance(target, ast.Attribute):
                target = target.value
            if isinstance(target, ast.Name) and target.id in bound \
                    and isinstance(name, ast.Constant) and isinstance(name.value, str) \
                    and name.value.startswith("_"):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _PRIVATE_PATH.match(node.value):
            found.append(node.value)
    return found


@pytest.mark.parametrize("source", [
    "import scipy.optimize._lbfgsb",
    "import scipy._lib as lib",
    "from scipy.optimize._lbfgsb import setulb",
    "from scipy.optimize import _minimize",
    "from scipy import _lib",
    "import scipy\nscipy.optimize._minimize._minimize_lbfgsb",
    "from scipy import optimize\noptimize._lbfgsb.setulb",
    "from scipy import optimize as opt\ngetattr(opt, '_lbfgsb')",
    "import importlib\nimportlib.import_module('scipy.optimize._lbfgsb')",
])
def test_the_scan_finds_private_scipy_names(source):
    assert private_scipy_names(source)


@pytest.mark.parametrize("source", [
    "from scipy.optimize import fmin_l_bfgs_b",
    "from scipy.linalg import lapack\nlapack.get_lapack_funcs",
    "import numpy as np\nnp.linalg._umath_linalg",
    "from . import _local\n_POTRF = 1",
])
def test_the_scan_passes_public_names(source):
    assert private_scipy_names(source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_uses_no_private_scipy_name(path):
    assert private_scipy_names(path.read_text()) == []


def scipy_optimize_uses(source: str) -> list[str]:
    """Every import, attribute or string in ``source`` that reaches
    ``scipy.optimize``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.optimize")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [n for n in names if n.startswith("scipy.optimize")]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "scipy.optimize":
            found.append("scipy.optimize")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith("scipy.optimize"):
            found.append(node.value)
    return found


@pytest.mark.parametrize("source", [
    "from scipy.optimize import fmin_l_bfgs_b",
    "from scipy.optimize import minimize as m",
    "import scipy.optimize",
    "import scipy.optimize as opt",
    "from scipy import optimize",
    "import scipy\nscipy.optimize.brentq",
    "import importlib\nimportlib.import_module('scipy.optimize')",
])
def test_the_scan_finds_scipy_optimize(source):
    assert scipy_optimize_uses(source)


@pytest.mark.parametrize("source", [
    "from scipy.special import logsumexp",
    "from scipy.linalg import lapack",
    "from .optim import lbfgs_minimize",
    "from . import optim\noptim.bisect",
])
def test_the_scan_passes_other_scipy_modules(source):
    assert scipy_optimize_uses(source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_optim_reaches_scipy_optimize(path):
    assert bool(scipy_optimize_uses(path.read_text())) == (path.name == "optim.py")
