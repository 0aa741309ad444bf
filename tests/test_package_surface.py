"""The package holds no code that neither it nor its scripts use.

A public function or class defined in src/crossconn is used when its name
is read (as a name or an attribute) somewhere in src/crossconn or scripts/
outside its own definition, and a public method when its name is read as
an attribute there: a local variable of the same spelling does not count.
Imports do not count, so a re-export from `crossconn/__init__.py` is no
use.  The scan goes by name alone: two methods of one name count as used
together.  What only tests call belongs in tests/scalar_reference.py.

The package resolves its re-exports on first access, and the tests at the
end guard that surface: each name the package re-exported is still there,
and importing the package loads none of its modules.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossconn

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crossconn"

# Kept without a caller: the scalar products `FiniteGroup.mul`,
# `GenericSemigroup.mul` and `ReesSemigroup.mul` are public API, which the
# README documents and the tests call, and no suite calls them: every scan
# reads the arrays.  So the list also pins that no suite makes a scalar
# `mul` call.
ALLOWED = {"mul"}


def _public_definitions(tree: ast.Module) -> list[tuple[ast.AST, bool]]:
    """(definition, is a method) of the module's public functions and classes
    and of their classes' public methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item, True)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return out


def _reads(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """(name, node) of every name and attribute read in the tree."""
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def _unused() -> list[str]:
    sources = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    scripts = [ast.parse(path.read_text()) for path in sorted((ROOT / "scripts").glob("*.py"))]
    reads = [read for tree in [*sources.values(), *scripts] for read in _reads(tree)]
    unused = []
    for path, tree in sources.items():
        for definition, method in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                name == definition.name
                and id(node) not in inside
                and (isinstance(node, ast.Attribute) or not method)
                for name, node in reads
            ):
                unused.append(f"{path.stem}.{definition.name}")
    return unused


def test_every_public_definition_has_a_use():
    unused = [name for name in _unused() if name.rsplit(".", 1)[1] not in ALLOWED]
    assert unused == [], f"defined in src/crossconn but used nowhere there or in scripts/: {unused}"


def test_the_allow_list_holds_only_unused_names():
    # a name on the list that has gained a use should leave it
    unused = {name.rsplit(".", 1)[1] for name in _unused()}
    assert ALLOWED <= unused, sorted(ALLOWED - unused)


# Every name the package re-exported when its __init__ imported each module
REEXPORTS = {
    "categories": "ArrowCategory Cone Morphism left_category realize_category right_category",
    "checks": "Check all_passed failures",
    "cones": "cone_table enumerate_TL injectivity_criterion",
    "connections": "LinkedPair pair_arrays pair_cones u_cones verify_crossconnection verify_phi",
    "groups": "FiniteGroup builtin load_cayley load_cayley_file",
    "oracle": "GenericSemigroup associativity_witness green_via_ideals idempotents "
    "is_regular verify_map",
    "rees": "ReesElement ReesSemigroup SandwichMatrix identity_matrix load_matrix_file",
}


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_each_reexport_is_its_modules_object(module):
    source = importlib.import_module(f"crossconn.{module}")
    for name in REEXPORTS[module].split():
        namespace: dict = {}
        exec(f"from crossconn import {name}", namespace)
        assert getattr(crossconn, name) is namespace[name] is getattr(source, name), name
        assert name in dir(crossconn), name


def test_unknown_names_are_still_errors():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        crossconn.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        exec("from crossconn import nonexistent", {})
    # a submodule is not a re-export: it still imports as one
    namespace: dict = {}
    exec("from crossconn import oracle", namespace)
    assert namespace["oracle"] is importlib.import_module("crossconn.oracle")


def test_importing_the_package_loads_no_module():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, crossconn; print(sorted(m for m in sys.modules if 'crossconn' in m))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['crossconn']\n"
