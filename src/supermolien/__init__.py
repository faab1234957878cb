"""Exact bigraded invariant-theory computations for supersymmetric algebras."""

from .groups import (
    MatrixGroup,
    Permutation,
    PermGroup,
    WreathElement,
)
from .molien import GroupAction, invariant_dimension_bruteforce, molien_vs_oracle, reynolds_project, super_molien
from .series import Caps, TrigradedSeries
from .shuffle import (
    InvariantSpaceBasis,
    degree_one_generation_rank,
    generation_sweep,
    invariant_basis,
    shuffle_product,
    verify_associativity,
    verify_supercommutation,
)
from .superalgebra import AlgebraSignature, SuperMonomial, SuperPolynomial, super_mul
from .symfunc import SymFuncPoly, cycle_index, omega, plethystic_compose, plethystic_substitute
from .verify import SUITES, run_suite
from .wreath_series import (
    CollationSpec,
    check_collation,
    check_superspace,
    check_wreath_routes,
    collated_product_series,
    collated_sum_series,
    verify_block_determinant_lemma,
    verify_m_cycle_identity,
    wreath_hilbert_direct,
    wreath_hilbert_plethysm,
    young_exterior_product,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSignature",
    "Caps",
    "CollationSpec",
    "GroupAction",
    "InvariantSpaceBasis",
    "MatrixGroup",
    "PermGroup",
    "Permutation",
    "SUITES",
    "SuperMonomial",
    "SuperPolynomial",
    "SymFuncPoly",
    "TrigradedSeries",
    "WreathElement",
    "check_collation",
    "check_superspace",
    "check_wreath_routes",
    "collated_product_series",
    "collated_sum_series",
    "cycle_index",
    "degree_one_generation_rank",
    "generation_sweep",
    "invariant_basis",
    "invariant_dimension_bruteforce",
    "molien_vs_oracle",
    "omega",
    "plethystic_compose",
    "plethystic_substitute",
    "reynolds_project",
    "run_suite",
    "shuffle_product",
    "super_molien",
    "super_mul",
    "verify_associativity",
    "verify_block_determinant_lemma",
    "verify_m_cycle_identity",
    "verify_supercommutation",
    "wreath_hilbert_direct",
    "wreath_hilbert_plethysm",
    "young_exterior_product",
]
