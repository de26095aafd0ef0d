"""Combinatorics, cell closures, class formulas and singularity
classification of regular Hessenberg varieties for the minimal
indecomposable Hessenberg space, in every simple Lie type, with an
independent exact-arithmetic Jacobian oracle in type A."""

from .errors import DomainError, EnumerationBoundError
from .roots import (
    CartanDatum,
    Component,
    ParabolicSubsystem,
    RootSystem,
    bracket_set,
    build_root_system,
    cartan_datum,
    parabolic,
)
from .weyl import (
    Composition,
    WeylElement,
    compositions,
    descent_decomposition,
    enumerate_min_reps,
    from_one_line,
    longest_element,
    min_right_coset_rep,
    one_line,
    root_pair,
)
from .hess import (
    AdmissibleDecomposition,
    HessConfig,
    closure_covers,
    closure_intersecting_cells,
    config_from_mu,
    decompose_admissible,
    delta_v,
    enumerate_admissible,
    hess_config,
    is_admissible,
    poincare_polynomial,
    typeA_point,
)
from .classes import (
    ClassExpression,
    ChernPolynomial,
    expand_typeA,
    hess_schubert_class,
    levi_flag_class,
    peterson_dual_class,
)
from .singular import (
    SmoothnessVerdict,
    cominuscule_check,
    count_smooth_flags,
    hess_fixed_point_smooth,
    hess_schubert_smooth,
    peterson_fixed_point_smooth,
    peterson_singular_locus,
    typeA_fixed_point_smooth,
    typeA_hess_schubert_smooth,
    verify_shared_linear_table,
    w_star_member,
    w_star_star_member,
)
from .oracle import (
    JacobianResult,
    jacobian_at_cell_point,
    jacobian_at_fixed_point,
    linear_terms_closed_form,
    regular_matrix,
)

__version__ = "0.1.0"
