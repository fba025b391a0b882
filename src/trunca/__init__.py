"""Exact truncation combinatorics for reductive groups.

Root data and Weyl groups in exact rational arithmetic, parabolic cone
functions and their alternating-sum identities, complementary polyhedra with
canonical semistable refinements, lattice-point quasi-polynomials, and
norm-one-torus character sums over finite fields.
"""

from .charfield import (
    FiniteField,
    LieTorusModel,
    NormOneTorus,
    TorusCharacter,
    assemble_J,
    build_torus,
    central_character_ok,
    char_sum_regular,
    contragredient_test,
    cuspidal_filter_check,
    general_position,
    lie_char_sum,
    regular_pair,
)
from .cyclotomic import CyclotomicNumber
from .errors import (
    CartanMatrixError,
    ConsistencyError,
    FoldingError,
    LatticeError,
    WallError,
)
from .parabolic import (
    SemiStandardParabolic,
    enumerate_semistandard,
    enumerate_standard,
    projector_to_aP,
    relative_weight,
)
from .polyhedra import (
    ComplementaryPolyhedron,
    ValidationResult,
    canonical_refinement,
    degree,
    generate,
    is_semistable,
    project_polyhedron,
    random_polyhedron,
    semistability_indicator,
    validate,
    vertex_walls_clear,
)
from .quasipoly import (
    LatticeSpec,
    QuasiPolynomial,
    brute_sum,
    fit_quasipolynomial,
    product_eval,
    standard_lattice_spec,
)
from .rootdata import (
    Folding,
    Root,
    RootDatum,
    WeylElement,
    WeylGroup,
    build_root_datum,
    fold,
    generate_weyl,
)
from .truncation import TruncationContext
from .verify import ReportRecord, run_suites

__all__ = [
    "CartanMatrixError",
    "ConsistencyError",
    "FoldingError",
    "LatticeError",
    "WallError",
    "CyclotomicNumber",
    "Folding",
    "Root",
    "RootDatum",
    "WeylElement",
    "WeylGroup",
    "build_root_datum",
    "fold",
    "generate_weyl",
    "SemiStandardParabolic",
    "enumerate_semistandard",
    "enumerate_standard",
    "projector_to_aP",
    "relative_weight",
    "TruncationContext",
    "ComplementaryPolyhedron",
    "ValidationResult",
    "canonical_refinement",
    "degree",
    "generate",
    "is_semistable",
    "project_polyhedron",
    "random_polyhedron",
    "semistability_indicator",
    "validate",
    "vertex_walls_clear",
    "LatticeSpec",
    "QuasiPolynomial",
    "brute_sum",
    "fit_quasipolynomial",
    "product_eval",
    "standard_lattice_spec",
    "FiniteField",
    "LieTorusModel",
    "NormOneTorus",
    "TorusCharacter",
    "assemble_J",
    "build_torus",
    "central_character_ok",
    "char_sum_regular",
    "contragredient_test",
    "cuspidal_filter_check",
    "general_position",
    "lie_char_sum",
    "regular_pair",
    "ReportRecord",
    "run_suites",
]

__version__ = "0.1.0"
