"""Completely simple semigroups via Rees matrices, cone semigroups and cross-connections."""

from .categories import (
    ArrowCategory,
    Cone,
    Morphism,
    RealizationReport,
    left_category,
    realize_category,
    right_category,
)
from .checks import Check, all_passed, failures
from .cones import CosetHandle, InjectivityResult, cone_table, enumerate_TL, injectivity_criterion
from .connections import (
    CrossConnection,
    DualMorphism,
    LinkedPair,
    PhiReport,
    compose_duals,
    matrix_of,
    pair_arrays,
    pair_cones,
    sigma_apply,
    u_cones,
    verify_crossconnection,
    verify_phi,
)
from .groups import FiniteGroup, builtin, load_cayley, load_cayley_file
from .oracle import (
    GenericSemigroup,
    MapCheck,
    associativity_witness,
    from_table,
    green_via_ideals,
    idempotents,
    is_regular,
    verify_map,
)
from .rees import (
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    identity_matrix,
    load_matrix_file,
)

__version__ = "0.1.0"
