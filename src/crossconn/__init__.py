"""Completely simple semigroups via Rees matrices, cone semigroups and cross-connections.

The names below are re-exported from their modules on first access (a
module `__getattr__`), so that importing the package, or one module of it,
compiles no module it does not use.
"""

_EXPORTS = {
    "categories": "ArrowCategory Cone Morphism left_category realize_category right_category",
    "checks": "Check all_passed failures",
    "cones": "cone_table enumerate_TL injectivity_criterion",
    "connections": "LinkedPair pair_arrays pair_cones u_cones verify_crossconnection verify_phi",
    "groups": "FiniteGroup builtin load_cayley load_cayley_file",
    "oracle": "GenericSemigroup associativity_witness green_via_ideals idempotents "
    "is_regular verify_map",
    "rees": "ReesElement ReesSemigroup SandwichMatrix identity_matrix load_matrix_file",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
