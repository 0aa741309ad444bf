"""The package holds no code that neither it nor its scripts use.

A public function, class or method defined in src/crossconn is used when
its name is read (as a name or an attribute) somewhere in src/crossconn
or scripts/ outside its own definition.  Imports do not count, so a
re-export from `crossconn/__init__.py` is no use.  The scan goes by name
alone: two methods of one name count as used together.  What only tests
call belongs in tests/scalar_reference.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crossconn"

# Kept without a caller: sigma_apply and compose_duals are the arithmetic
# of the normal dual, which an enumeration of candidate connection
# functors needs, and from_table is the entry point that validates a raw
# table.
ALLOWED = {"sigma_apply", "compose_duals", "from_table"}


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    """The module's public functions and classes and their classes' public methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out.extend(
                item
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
        for definition in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in inside for name, node in reads):
                unused.append(f"{path.stem}.{definition.name}")
    return unused


def test_every_public_definition_has_a_use():
    unused = [name for name in _unused() if name.rsplit(".", 1)[1] not in ALLOWED]
    assert unused == [], f"defined in src/crossconn but used nowhere there or in scripts/: {unused}"


def test_the_allow_list_holds_only_unused_names():
    # a name on the list that has gained a use should leave it
    unused = {name.rsplit(".", 1)[1] for name in _unused()}
    assert ALLOWED <= unused, sorted(ALLOWED - unused)
