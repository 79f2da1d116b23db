"""Audit of the square-triple parametrization claim.

The claim under audit: every integer solution of A^2 + B^2 = C^2 can be
written as A = p^2 - q^2, B = 2pq, C = p^2 + q^2 for integers p > q > 0.
That is true for primitive positive triples with even middle term (the
classical parametrization) but false in general, and the audit's job is to
surface the gap with concrete triples that admit no such (p, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .ints import at_least, exact_sqrt

__all__ = [
    "PythTriple",
    "Representation",
    "audit_parametrization",
    "enumerate_triples",
    "euclid_primitive_triples",
    "is_pythagorean",
    "represent_triple",
]


@dataclass(frozen=True)
class PythTriple:
    """A triple with A^2 + B^2 = C^2 (checked at construction)."""

    A: int
    B: int
    C: int

    def __post_init__(self) -> None:
        if self.A * self.A + self.B * self.B != self.C * self.C:
            raise ValueError(f"({self.A}, {self.B}, {self.C}) is not Pythagorean")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.A, self.B, self.C)


@dataclass(frozen=True)
class Representation:
    """A witness pair with p > q > 0."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (self.p > self.q > 0):
            raise ValueError(f"representation needs p > q > 0, got p={self.p}, q={self.q}")

    def triple(self) -> tuple[int, int, int]:
        return (
            self.p * self.p - self.q * self.q,
            2 * self.p * self.q,
            self.p * self.p + self.q * self.q,
        )


def is_pythagorean(a: int, b: int, c: int) -> bool:
    return a * a + b * b == c * c


def represent_triple(a: int, b: int, c: int) -> Representation | None:
    """Find (p, q) with p > q > 0 matching (a, b, c) exactly, or None.

    Closed form: a witness has p^2 = (c + a) / 2 and q^2 = (c - a) / 2, so
    it exists iff both halves are perfect squares with p > q > 0 and
    2pq = b, and it is then unique.
    """
    # A witness forces a = p^2 - q^2 > 0, b = 2pq positive and even, c >= 5.
    if a <= 0 or b <= 0 or b % 2 or c < 5 or (c + a) % 2:
        return None
    p = exact_sqrt((c + a) // 2)
    q = exact_sqrt((c - a) // 2)
    if p is None or q is None or not (p > q > 0) or 2 * p * q != b:
        return None
    return Representation(p=p, q=q)


def represent_triple_charitable(a: int, b: int, c: int) -> Representation | None:
    """Most charitable reading: try sign flips of a, b and the (a, b) swap."""
    for aa, bb in ((a, b), (b, a), (abs(a), abs(b)), (abs(b), abs(a))):
        found = represent_triple(aa, bb, abs(c))
        if found is not None:
            return found
    return None


def enumerate_triples(
    c_max: int,
    *,
    primitive_only: bool = False,
    even_b_only: bool = False,
) -> list[tuple[int, int, int]]:
    """All ordered triples (a, b, c) with a^2 + b^2 = c^2 and 0 < c <= c_max.

    a and b range over positive integers independently, so both (3, 4, 5)
    and (4, 3, 5) appear.  Every such triple is k times a primitive Euclid
    triple (odd leg first) in one of its two orders, so the multiples of
    ``euclid_primitive_triples`` give each triple exactly once.
    """
    at_least("c_max", c_max, 5)
    found: list[tuple[int, int, int]] = []
    for x, y, z in euclid_primitive_triples(c_max):
        for k in range(1, 2 if primitive_only else c_max // z + 1):
            legs = [(k * x, k * y), (k * y, k * x)]
            if even_b_only and k % 2:  # x is odd, so k * x is even iff k is
                del legs[1]
            c = k * z
            found.extend((a, b, c) for a, b in legs)
    found.sort()
    return found


def euclid_primitive_triples(c_max: int) -> Iterator[tuple[int, int, int]]:
    """Primitive triples (m^2 - n^2, 2mn, m^2 + n^2) with hypotenuse <= c_max.

    Independent generation route: m > n >= 1 coprime, opposite parity.  Every
    triple produced is primitive, positive and has even middle term.
    """
    m = 2
    while m * m + 1 <= c_max:
        for n in range(1, m):
            c = m * m + n * n
            if c > c_max:
                break
            if (m - n) % 2 == 0 or gcd(m, n) != 1:
                continue
            yield (m * m - n * n, 2 * m * n, c)
        m += 1


def audit_parametrization(
    c_max: int,
    *,
    primitive_only: bool = False,
    even_b_only: bool = False,
) -> list[PythTriple]:
    """Triples in range that admit no (p, q) under the literal claim.

    A triple fails when no p > q > 0 matches it exactly.  A charitable
    failure, where no sign flip or swap of (a, b) is representable either,
    is one of these: ``represent_triple_charitable`` tries the literal
    reading first.
    """
    return [
        PythTriple(a, b, c)
        for a, b, c in enumerate_triples(
            c_max, primitive_only=primitive_only, even_b_only=even_b_only
        )
        if represent_triple(a, b, c) is None
    ]
