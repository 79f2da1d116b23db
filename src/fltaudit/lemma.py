"""Construction and exact verification of the squared-triple identity.

For an integer exponent n >= 3, six linear forms in x, y, z are fixed:

    r = x - y    s = y + z    t = z + x
    u = x + y + z    v = y - z - x    w = x - y - z

and three polynomials are built from them:

    A = r^2 (u^4 - 1) (xy)^(n-2) - s^2 (v^4 - 1) (yz)^(n-2) - t^2 (w^4 - 1) (zx)^(n-2)
    B = 2 (ru)^2 (xy)^(n-2) - 2 (sv)^2 (yz)^(n-2) - 2 (tw)^2 (zx)^(n-2)
    C = r^2 (u^4 + 1) (xy)^(n-2) - s^2 (v^4 + 1) (yz)^(n-2) - t^2 (w^4 + 1) (zx)^(n-2)

The claimed identity under audit is

    (8rst)^2 (xyz)^(n-2) (x^n + y^n - z^n) = A^2 + B^2 - C^2.

Each formula is written once, as a plain expression that runs on Python
ints and on Polynomials alike: ``linear_forms`` gives r..w, ``_fermat_side``
the product (k rst)^2 (xyz)^(n-2) (x^n + y^n - z^n) for k = 8 and k = 4, and
the reduced system

    Q = (C - A) / 2    M = B / 2    P = (C + A) / 2

is the search's own ``system_values`` at (a..f) = (r..w) and
(alpha, beta, gamma) = ((xy)^(n-2), (yz)^(n-2), (zx)^(n-2)), so the search
and this module audit one system.  This module builds both sides of the
identity by exact expansion, checks it symbolically (expanding the right
side as (A - C)(A + C) + B^2, where A - C = -2Q is small) and numerically,
re-checks Q, M, P against the halved combinations of A, B, C, and checks the
consistency identity M^2 - P*Q = (4rst)^2 (xyz)^(n-2) (x^n + y^n - z^n),
which is what makes the extraction of integers (p, q) with q^2 = Q, pq = M,
p^2 = P coherent exactly on the Fermat variety x^n + y^n = z^n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from random import Random
from typing import Union

from .ints import at_least, exact_ints
from .poly import ONE, MonomialTable, NotDivisible, Polynomial, X, Y, Z

__all__ = [
    "AbcTriple",
    "ConsistencyResult",
    "DerivationError",
    "DerivedSystem",
    "EvalPoint",
    "build_lemma_terms",
    "consistency_residual",
    "derive_system",
    "fermat_poly",
    "identity_record",
    "lhs_poly",
    "linear_forms",
    "numeric_cross_check",
    "sample_points",
    "verify_identity",
]

EvalPoint = tuple[int, int, int]

Scalar = Union[Polynomial, int]


class DerivationError(Exception):
    """A halving step or a dual-construction cross-check failed.

    This signals either an implementation bug or a genuine defect in the
    audited derivation; callers must surface it, never swallow it.
    """


@dataclass(frozen=True)
class AbcTriple:
    """The triple (A, B, C) for a fixed exponent n."""

    A: Polynomial
    B: Polynomial
    C: Polynomial
    n: int

    @cached_property
    def _table(self) -> MonomialTable:
        # Built from this instance's own A, B, C on first use, never shared.
        return MonomialTable((self.A, self.B, self.C))

    def evaluate(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        return self._table.evaluate(x, y, z)


@dataclass(frozen=True)
class DerivedSystem:
    """The halved combinations Q = (C-A)/2, M = B/2, P = (C+A)/2 at exponent n.

    Q is the expression whose value must be q^2, M the one for pq, and P the
    one for p^2.  Instances are only produced by derive_system, which builds
    them with system_values and independently re-checks each member against
    the halved combination of (A, B, C).
    """

    Q: Polynomial
    M: Polynomial
    P: Polynomial
    n: int

    @cached_property
    def _table(self) -> MonomialTable:
        # As AbcTriple's: built from this instance's Q, M, P on first use.
        return MonomialTable((self.Q, self.M, self.P))

    def evaluate(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        return self._table.evaluate(x, y, z)


@dataclass(frozen=True)
class ConsistencyResult:
    """Outcome of the consistency check M^2 - P*Q on the Fermat factor."""

    residual: Polynomial
    matches_product_form: bool
    fermat_quotient: Polynomial | None
    n: int

    @property
    def holds(self) -> bool:
        return self.matches_product_form and self.fermat_quotient is not None


def linear_forms(x: Scalar, y: Scalar, z: Scalar) -> tuple[Scalar, ...]:
    """The six linear forms (r, s, t, u, v, w) of ints or polynomials x, y, z."""
    return x - y, y + z, z + x, x + y + z, y - z - x, x - y - z


def _pair_powers(n: int) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(xy)^(n-2), (yz)^(n-2), (zx)^(n-2): the coefficients alpha, beta, gamma."""
    return (X * Y) ** (n - 2), (Y * Z) ** (n - 2), (Z * X) ** (n - 2)


def _fermat_side(scale: int, x: Scalar, y: Scalar, z: Scalar, n: int) -> Scalar:
    """(scale * rst)^2 (xyz)^(n-2) (x^n + y^n - z^n) of ints or polynomials."""
    r, s, t = linear_forms(x, y, z)[:3]
    return (scale * r * s * t) ** 2 * (x * y * z) ** (n - 2) * (x**n + y**n - z**n)


@lru_cache(maxsize=64)
def fermat_poly(n: int) -> Polynomial:
    """x^n + y^n - z^n."""
    at_least("exponent", n, 3)
    return X**n + Y**n - Z**n


@lru_cache(maxsize=64)
def build_lemma_terms(n: int) -> AbcTriple:
    """Expand A, B, C for the given exponent."""
    at_least("exponent", n, 3)
    r, s, t, u, v, w = linear_forms(X, Y, Z)
    xy, yz, zx = _pair_powers(n)
    u4, v4, w4 = u**4, v**4, w**4
    a_poly = r**2 * (u4 - ONE) * xy - s**2 * (v4 - ONE) * yz - t**2 * (w4 - ONE) * zx
    b_poly = 2 * ((r * u) ** 2 * xy - (s * v) ** 2 * yz - (t * w) ** 2 * zx)
    c_poly = r**2 * (u4 + ONE) * xy - s**2 * (v4 + ONE) * yz - t**2 * (w4 + ONE) * zx
    return AbcTriple(A=a_poly, B=b_poly, C=c_poly, n=n)


@lru_cache(maxsize=64)
def lhs_poly(n: int) -> Polynomial:
    """Fully expanded (8rst)^2 (xyz)^(n-2) (x^n + y^n - z^n)."""
    at_least("exponent", n, 3)
    return _fermat_side(8, X, Y, Z, n)


def verify_identity(n: int) -> Polynomial:
    """Residual lhs - (A^2 + B^2 - C^2); the zero polynomial iff the identity holds.

    The right side is expanded as (A - C)(A + C) + B^2, the same polynomial:
    A - C has 9 terms, so this is one small product in place of squaring
    A and C.
    """
    abc = build_lemma_terms(n)
    return lhs_poly(n) - ((abc.A - abc.C) * (abc.A + abc.C) + abc.B**2)


def numeric_cross_check(n: int, point: EvalPoint) -> tuple[int, int]:
    """Both sides of the identity at an integer point.

    The left side is computed by direct integer arithmetic on the point, the
    right side by evaluating the expanded polynomials A, B, C, so the two
    values follow independent routes and must agree exactly.
    """
    av, bv, cv = build_lemma_terms(n).evaluate(*exact_ints(point, 3))
    return _fermat_side(8, *point, n), av * av + bv * bv - cv * cv


def _halved(poly: Polynomial, what: str) -> Polynomial:
    """Divide every coefficient by 2, refusing if any is odd."""
    half = Polynomial({mono: coeff // 2 for mono, coeff in poly.terms()})
    if 2 * half != poly:
        raise DerivationError(f"halving {what}: a coefficient is odd")
    return half


@lru_cache(maxsize=64)
def derive_system(n: int) -> DerivedSystem:
    """Build Q, M, P with system_values and re-verify the halving route.

    Each member is constructed twice: by system_values on the linear forms
    and pair powers, e.g. Q = r^2 (xy)^(n-2) - s^2 (yz)^(n-2) - t^2 (zx)^(n-2),
    and from the halved combination of (A, B, C).  Any odd coefficient in a
    combination, or any disagreement between the two routes, raises
    DerivationError.
    """
    # Imported here: verify-identity never derives, so it never loads the search.
    from .search import system_values

    at_least("exponent", n, 3)
    q_poly, m_poly, p_poly = system_values(*linear_forms(X, Y, Z), *_pair_powers(n))

    abc = build_lemma_terms(n)
    checks = [
        ("(C - A)/2 vs Q", _halved(abc.C - abc.A, "C - A"), q_poly),
        ("B/2 vs M", _halved(abc.B, "B"), m_poly),
        ("(C + A)/2 vs P", _halved(abc.C + abc.A, "C + A"), p_poly),
    ]
    for label, via_halving, direct in checks:
        if via_halving != direct:
            diff = via_halving - direct
            raise DerivationError(
                f"dual construction disagrees for {label} at n={n}; "
                f"difference has {diff.term_count} terms"
            )
    return DerivedSystem(Q=q_poly, M=m_poly, P=p_poly, n=n)


def consistency_residual(n: int) -> ConsistencyResult:
    """Check M^2 - P*Q = (4rst)^2 (xyz)^(n-2) (x^n + y^n - z^n).

    Returns the residual M^2 - P*Q together with two witnesses: whether it
    equals the expected product form by expansion, and the exact quotient of
    the residual by x^n + y^n - z^n (None if that division fails).
    """
    system = derive_system(n)
    residual = system.M**2 - system.P * system.Q
    try:
        quotient = residual.div_exact(fermat_poly(n))
    except NotDivisible:
        quotient = None
    return ConsistencyResult(
        residual=residual,
        matches_product_form=residual == _fermat_side(4, X, Y, Z, n),
        fermat_quotient=quotient,
        n=n,
    )


def sample_points(count: int, rng: Random) -> list[EvalPoint]:
    """Uniform integer points in [-50, 50]^3 from the given generator."""
    return [
        (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        for _ in range(at_least("count", count, 0))
    ]


def identity_record(
    n: int, *, points: int = 0, rng: Random | None = None, sabotage: bool = False
) -> dict:
    """One per-exponent verification record for reports.

    Runs the symbolic check and, when ``points`` > 0, a numeric cross-check
    on that many random points drawn from ``rng``.  ``sabotage`` is a
    negative control: it perturbs the residual by 1 so the verification must
    report a nonzero residual.
    """
    started = time.perf_counter()
    residual = verify_identity(n)
    if sabotage:
        residual = residual + ONE
    abc = build_lemma_terms(n)
    mismatches: list[list[int]] = []
    if points:
        if rng is None:
            raise ValueError("numeric cross-checks need a seeded random generator")
        for point in sample_points(points, rng):
            lhs, rhs = numeric_cross_check(n, point)
            if lhs != rhs:
                mismatches.append(list(point))
    return {
        "n": n,
        "residual_zero": residual.is_zero,
        "residual_terms": residual.term_count,
        "lhs_terms": lhs_poly(n).term_count,
        "abc_terms": {
            "A": abc.A.term_count,
            "B": abc.B.term_count,
            "C": abc.C.term_count,
        },
        "numeric_points": points,
        "numeric_mismatches": len(mismatches),
        "mismatch_points": mismatches[:10],
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
