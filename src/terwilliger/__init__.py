"""Terwilliger algebras of the group association schemes of C_n x| C_2.

Exact construction of the twisted dihedral groups D(n, s), their group
association schemes, the dimension of the Terwilliger algebra at the
identity by three independent routes, the character table, and the
Wedderburn decomposition with a literal audit of the stated dihedral
special cases.
"""

from .algebra import (DimensionCertificate, DualIdempotents, algebra_closure,
                      commutant_oracle, dim_t_tilde, dual_idempotents)
from .characters import (CharTable, IntegralityError, Multiplicities, char_table,
                         conjugation_character_check, multiplicities_closedform,
                         multiplicities_rowsum, orthogonality_check, two_dim_reps)
from .groups import (ConjugacyData, ConsistencyError, GroupParams, GroupTable,
                     build_group, centralizer_counts, conjugacy_classes,
                     generic_conjugacy_classes, orbital_count, valid_twists,
                     validate_params)
from .modular import DEFAULT_PRIMES, PrimeBasis, RationalBasis
from .pipeline import (Analysis, PairFailure, analyze_pair, audit_corollaries,
                       enumerate_pairs, sweep)
from .scheme import (IntersectionTensor, SchemeData, build_scheme, case_counts,
                     closed_form_dimension, dim_t0, expected_case_counts,
                     intersection_numbers, verify_product_identity)
from .wedderburn import (CorollaryAudit, IdempotentReport, WedderburnReport,
                         central_idempotents, corollary_audit, decomposition)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "CharTable", "ConjugacyData", "ConsistencyError", "CorollaryAudit",
    "DEFAULT_PRIMES", "DimensionCertificate", "DualIdempotents", "GroupParams",
    "GroupTable", "IdempotentReport", "IntegralityError", "IntersectionTensor",
    "Multiplicities", "PairFailure", "PrimeBasis", "RationalBasis", "SchemeData",
    "WedderburnReport",
    "algebra_closure", "analyze_pair", "audit_corollaries", "build_group",
    "build_scheme", "case_counts", "central_idempotents", "centralizer_counts",
    "char_table", "closed_form_dimension", "commutant_oracle", "conjugacy_classes",
    "conjugation_character_check", "corollary_audit", "decomposition", "dim_t0",
    "dim_t_tilde", "dual_idempotents", "enumerate_pairs", "expected_case_counts",
    "generic_conjugacy_classes", "intersection_numbers", "multiplicities_closedform",
    "multiplicities_rowsum", "orbital_count", "orthogonality_check", "sweep",
    "two_dim_reps", "valid_twists", "validate_params",
    "verify_product_identity",
]
