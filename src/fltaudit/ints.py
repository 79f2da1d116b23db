"""Shared exact-integer helpers: the perfect-square test and its residue filter."""

from __future__ import annotations

from math import isqrt

# Quadratic residues read by the search kernel's perfect-square pre-filter.
# Any integer square is congruent to one of these mod 16 and mod 9, so
# membership is a necessary (never sufficient) condition and the filter is
# sound.
SQUARES_MOD_16 = frozenset({0, 1, 4, 9})
SQUARES_MOD_9 = frozenset({0, 1, 4, 7})


def exact_sqrt(value: int) -> int | None:
    """Nonnegative integer square root of ``value``, or None if not a square."""
    if value < 0:
        return None
    root = isqrt(value)
    return root if root * root == value else None

