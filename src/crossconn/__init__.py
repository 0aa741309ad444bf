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
from .cones import (
    CosetHandle,
    InjectivityResult,
    act,
    cone_table,
    coset_normalize,
    enumerate_TL,
    green_cones,
    injectivity_criterion,
    is_idempotent_cone,
    mul_L,
    mul_R,
    principal_pair,
)
from .connections import (
    CrossConnection,
    DualMorphism,
    LinkedPair,
    PhiReport,
    bifunctor_delta,
    bifunctor_gamma,
    chi,
    chi_inv,
    compose_duals,
    delta_apply,
    gamma_apply,
    is_linked,
    linked_pairs,
    matrix_of,
    phi,
    rbg,
    s_tilde_mul,
    sigma_apply,
    u_delta,
    u_gamma,
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
