"""Exact-arithmetic verification and counterexample search toolkit.

Verifies, by exact expansion over the integers, the identity

    (8rst)^2 (xyz)^(n-2) (x^n + y^n - z^n) = A^2 + B^2 - C^2

for the triple (A, B, C) built from the six linear forms r, s, t, u, v, w;
audits the claim that every Pythagorean triple is (p^2 - q^2, 2pq, p^2 + q^2)
with p > q > 0; and exhaustively searches bounded integer boxes for
counterexamples to the conjecture that the associated three-equation
quadratic system has no nontrivial solution under its side conditions.
"""

from .audit import (
    AuditConfig,
    AuditReport,
    ClaimEntry,
    compare_to_manifest,
    load_default_manifest,
    replay_evidence,
    run_audit,
)
from .checkpoint import CheckpointError
from .conditions import (
    ImplicationCheck,
    replay_condition_counterexample,
    verify_condition_derivations,
)
from .fermat import primitive_square_triples, scan_power_equation
from .lemma import (
    AbcTriple,
    ConsistencyResult,
    DerivationError,
    DerivedSystem,
    EvalPoint,
    build_lemma_terms,
    consistency_residual,
    derive_system,
    fermat_poly,
    lhs_poly,
    linear_forms,
    numeric_cross_check,
    verify_identity,
)
from .poly import ONE, ZERO, NotDivisible, Polynomial, X, Y, Z
from .pythagoras import (
    PythTriple,
    Representation,
    audit_parametrization,
    enumerate_triples,
    euclid_primitive_triples,
    is_pythagorean,
    represent_triple,
    represent_triple_charitable,
)
from .search import (
    ConditionReport,
    ConjectureInstance,
    SearchResult,
    SearchSpace,
    check_conditions,
    system_values,
    write_result_log,
)
from .version import __version__

__all__ = [
    "AbcTriple",
    "AuditConfig",
    "AuditReport",
    "CheckpointError",
    "ClaimEntry",
    "ConditionReport",
    "ConjectureInstance",
    "ConsistencyResult",
    "DerivationError",
    "DerivedSystem",
    "EvalPoint",
    "ImplicationCheck",
    "NotDivisible",
    "ONE",
    "Polynomial",
    "PythTriple",
    "Representation",
    "SearchResult",
    "SearchSpace",
    "X",
    "Y",
    "Z",
    "ZERO",
    "__version__",
    "audit_parametrization",
    "build_lemma_terms",
    "check_conditions",
    "compare_to_manifest",
    "consistency_residual",
    "derive_system",
    "enumerate_triples",
    "euclid_primitive_triples",
    "fermat_poly",
    "is_pythagorean",
    "lhs_poly",
    "linear_forms",
    "load_default_manifest",
    "numeric_cross_check",
    "primitive_square_triples",
    "replay_condition_counterexample",
    "replay_evidence",
    "represent_triple",
    "represent_triple_charitable",
    "run_audit",
    "scan_power_equation",
    "system_values",
    "verify_condition_derivations",
    "verify_identity",
    "write_result_log",
]
