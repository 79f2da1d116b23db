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

CLAIM_IDS = (
    "uvw_distinct_nonzero",
    "pairprod_distinct_nonzero",
    "coeff_divides_term",
    "rst_distinct_nonzero",
    "coeff_not_unit_multiple",
)

# Implications whose hypothesis also assumes gcd(x, y, z) = 1, and those
# whose conclusion depends on the power parameter k.
_NEEDS_COPRIME = {"rst_distinct_nonzero", "coeff_not_unit_multiple"}
_NEEDS_K = {"coeff_divides_term", "coeff_not_unit_multiple"}


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


def _conclusion(claim: str, x: int, y: int, z: int, reading: str, k: int) -> bool:
    r, s, t = x - y, y + z, z + x
    u, v, w = x + y + z, y - z - x, x - y - z
    xy, yz, zx = x * y, y * z, z * x
    if claim == "uvw_distinct_nonzero":
        return chain_distinct_nonzero((u, v, w), reading)
    if claim == "pairprod_distinct_nonzero":
        return chain_distinct_nonzero((abs(xy), abs(yz), abs(zx)), reading)
    if claim == "coeff_divides_term":
        return (
            divides(xy, r * xy ** (k - 1))
            and divides(yz, s * yz ** (k - 1))
            and divides(zx, t * zx ** (k - 1))
        )
    if claim == "rst_distinct_nonzero":
        return chain_distinct_nonzero((r, s, t), reading)
    if claim == "coeff_not_unit_multiple":
        return (
            abs(xy) != r * xy ** (k - 1)
            and abs(yz) != s * yz ** (k - 1)
            and abs(zx) != t * zx ** (k - 1)
        )
    raise ValueError(f"unknown claim {claim!r}")


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
    for claim in CLAIM_IDS:
        claim_k = k if claim in _NEEDS_K else None
        for reading in READINGS:
            hypothesis = admitted[reading, claim in _NEEDS_COPRIME]
            failures = tuple(
                (x, y, z)
                for x, y, z in hypothesis
                if not _conclusion(claim, x, y, z, reading, k)
            )
            checks.append(
                ImplicationCheck(
                    claim=claim,
                    reading=reading,
                    box_bound=box_bound,
                    k=claim_k,
                    hypothesis_points=len(hypothesis),
                    counterexamples=failures,
                )
            )
    return checks


def replay_condition_counterexample(
    claim: str, reading: str, point: tuple[int, int, int], k: int
) -> bool:
    """True iff the point still satisfies the hypothesis and breaks the conclusion."""
    x, y, z = point
    return _hypothesis(x, y, z, reading, claim in _NEEDS_COPRIME) and not _conclusion(
        claim, x, y, z, reading, k
    )
