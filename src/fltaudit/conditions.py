"""Bounded audit of the side-condition implications behind the conjecture.

The derivation that feeds the three-equation system rests on a chain of
implications of the shape "if |x|, |y|, |z| satisfy an inequality chain then
the derived quantities satisfy another".  Inequality chains like
"d != e != f != 0" are ambiguous, so every implication is checked under two
readings:

    pairwise: all listed values pairwise distinct, and all of them nonzero;
    adjacent: only neighbouring values distinct, and the last one nonzero.

For each implication and each reading, every integer point (x, y, z) in a
box satisfying the hypothesis is tested, and the points where the conclusion
fails are returned as counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .ints import divides

__all__ = [
    "CLAIM_IDS",
    "READINGS",
    "ImplicationCheck",
    "SystemParams",
    "chain_distinct_nonzero",
    "replay_condition_counterexample",
    "verify_condition_derivations",
]

READINGS = ("pairwise", "adjacent")


@dataclass(frozen=True)
class SystemParams:
    """Power parameter and parity selecting one of the two system shapes.

    The odd shape corresponds to exponent 2k + 1 and is only claimed for
    k > 2; the even shape corresponds to exponent 2k and is claimed for
    k > 1.  Construction outside those regimes is rejected.
    """

    k: int
    parity: str

    def __post_init__(self) -> None:
        if self.parity not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', got {self.parity!r}")
        if self.parity == "odd" and self.k <= 2:
            raise ValueError(f"odd shape needs k > 2, got k={self.k}")
        if self.parity == "even" and self.k <= 1:
            raise ValueError(f"even shape needs k > 1, got k={self.k}")

    @property
    def exponent(self) -> int:
        return 2 * self.k + 1 if self.parity == "odd" else 2 * self.k

    @classmethod
    def from_exponent(cls, n: int) -> "SystemParams":
        if n % 2:
            return cls(k=(n - 1) // 2, parity="odd")
        return cls(k=n // 2, parity="even")


@dataclass(frozen=True)
class ImplicationCheck:
    """Result of one implication under one reading over one box."""

    claim: str
    reading: str
    box_bound: int
    k: int | None
    hypothesis_points: int
    counterexamples: tuple[tuple[int, int, int], ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def chain_distinct_nonzero(values: tuple[int, ...], reading: str) -> bool:
    """Evaluate an inequality chain "v1 != v2 != ... != vk != 0"."""
    if reading == "pairwise":
        return all(v != 0 for v in values) and len(set(values)) == len(values)
    if reading == "adjacent":
        return all(a != b for a, b in zip(values, values[1:])) and values[-1] != 0
    raise ValueError(f"unknown reading {reading!r}")


def _hypothesis(x: int, y: int, z: int, reading: str, needs_coprime: bool) -> bool:
    if needs_coprime and gcd(gcd(x, y), z) != 1:
        return False
    return chain_distinct_nonzero((abs(x), abs(y), abs(z)), reading)


# Conclusions: each computes only the forms r = x - y, s = y + z, t = z + x,
# u = x + y + z, v = y - z - x, w = x - y - z and pair products it needs.


def _uvw_distinct(x: int, y: int, z: int, reading: str, k: int) -> bool:
    return chain_distinct_nonzero((x + y + z, y - z - x, x - y - z), reading)


def _pairprod_distinct(x: int, y: int, z: int, reading: str, k: int) -> bool:
    return chain_distinct_nonzero((abs(x * y), abs(y * z), abs(z * x)), reading)


def _coeff_divides(x: int, y: int, z: int, reading: str, k: int) -> bool:
    xy, yz, zx = x * y, y * z, z * x
    return (
        divides(xy, (x - y) * xy ** (k - 1))
        and divides(yz, (y + z) * yz ** (k - 1))
        and divides(zx, (z + x) * zx ** (k - 1))
    )


def _rst_distinct(x: int, y: int, z: int, reading: str, k: int) -> bool:
    return chain_distinct_nonzero((x - y, y + z, z + x), reading)


def _coeff_not_unit(x: int, y: int, z: int, reading: str, k: int) -> bool:
    xy, yz, zx = x * y, y * z, z * x
    return (
        abs(xy) != (x - y) * xy ** (k - 1)
        and abs(yz) != (y + z) * yz ** (k - 1)
        and abs(zx) != (z + x) * zx ** (k - 1)
    )


# claim id -> (conclusion, hypothesis also assumes gcd(x, y, z) = 1,
# conclusion depends on the power parameter k)
_CLAIMS = {
    "uvw_distinct_nonzero": (_uvw_distinct, False, False),
    "pairprod_distinct_nonzero": (_pairprod_distinct, False, False),
    "coeff_divides_term": (_coeff_divides, False, True),
    "rst_distinct_nonzero": (_rst_distinct, True, False),
    "coeff_not_unit_multiple": (_coeff_not_unit, True, True),
}

CLAIM_IDS = tuple(_CLAIMS)


def verify_condition_derivations(box_bound: int, k: int) -> list[ImplicationCheck]:
    """Exhaustively test every implication over [-box_bound, box_bound]^3.

    ``k`` parametrizes the two power-dependent implications; pass a value in
    the regime where they are claimed (k > 2 covers both shapes).
    """
    if box_bound < 3:
        raise ValueError(f"box_bound must be >= 3, got {box_bound}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    span = range(-box_bound, box_bound + 1)
    points = [(x, y, z) for x in span for y in span for z in span]
    # The hypothesis depends only on (reading, needs_coprime): filter once per pair.
    admitted = {
        (reading, coprime): [pt for pt in points if _hypothesis(*pt, reading, coprime)]
        for reading in READINGS
        for coprime in (False, True)
    }
    checks: list[ImplicationCheck] = []
    for claim, (conclusion, needs_coprime, needs_k) in _CLAIMS.items():
        for reading in READINGS:
            hypothesis = admitted[reading, needs_coprime]
            failures = tuple(pt for pt in hypothesis if not conclusion(*pt, reading, k))
            checks.append(
                ImplicationCheck(
                    claim=claim,
                    reading=reading,
                    box_bound=box_bound,
                    k=k if needs_k else None,
                    hypothesis_points=len(hypothesis),
                    counterexamples=failures,
                )
            )
    return checks


def replay_condition_counterexample(
    claim: str, reading: str, point: tuple[int, int, int], k: int
) -> bool:
    """True iff the point still satisfies the hypothesis and breaks the conclusion."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    conclusion, needs_coprime, _ = _CLAIMS[claim]
    return _hypothesis(*point, reading, needs_coprime) and not conclusion(*point, reading, k)
