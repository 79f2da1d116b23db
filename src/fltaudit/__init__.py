"""Exact-arithmetic verification and counterexample search toolkit.

Verifies, by exact expansion over the integers, the identity

    (8rst)^2 (xyz)^(n-2) (x^n + y^n - z^n) = A^2 + B^2 - C^2

for the triple (A, B, C) built from the six linear forms r, s, t, u, v, w;
audits the claim that every Pythagorean triple is (p^2 - q^2, 2pq, p^2 + q^2)
with p > q > 0; and exhaustively searches bounded integer boxes for
counterexamples to the conjecture that the associated three-equation
quadratic system has no nontrivial solution under its side conditions.

Each exported name is imported from its module on first access (PEP 562), so
importing the package loads only ``fltaudit.version``.
"""

from .version import __version__

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "audit": "AuditConfig AuditReport ClaimEntry compare_to_manifest "
        "load_default_manifest replay_evidence run_audit",
        "checkpoint": "CheckpointError",
        "conditions": "ImplicationCheck replay_condition_counterexample "
        "verify_condition_derivations",
        "fermat": "primitive_square_triples scan_power_equation",
        "lemma": "AbcTriple ConsistencyResult DerivationError DerivedSystem EvalPoint "
        "build_lemma_terms consistency_residual derive_system fermat_poly lhs_poly "
        "linear_forms numeric_cross_check verify_identity",
        "poly": "ONE ZERO NotDivisible Polynomial X Y Z",
        "pythagoras": "PythTriple Representation audit_parametrization enumerate_triples "
        "euclid_primitive_triples is_pythagorean represent_triple "
        "represent_triple_charitable",
        "resultlog": "write_result_log",
        "search": "ConditionReport ConjectureInstance SearchResult SearchSpace "
        "check_conditions system_values",
    }.items()
    for name in names.split()
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    from importlib import import_module

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
