"""Shared exact-integer helpers: square tests and roots."""

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


def int_nth_root(value: int, degree: int) -> int:
    """Floor of the ``degree``-th root of a nonnegative integer."""
    if degree < 1:
        raise ValueError(f"root degree must be >= 1, got {degree}")
    if value < 0:
        raise ValueError(f"negative radicand {value}")
    if value == 0:
        return 0
    if degree == 1:
        return value
    if degree == 2:
        return isqrt(value)
    try:
        root = int(value ** (1.0 / degree))
    except OverflowError:  # too large for a float: seed from the bit length
        root = 1 << -(-value.bit_length() // degree)
    else:
        if root**degree <= value < (root + 1) ** degree:
            return root  # the float seed is usually exact
    # Integer Newton: one step from any positive seed lands at or above the
    # floor root (AM-GM), and above it every step strictly decreases.
    root = _newton_step(value, degree, max(root, 1))
    while (step := _newton_step(value, degree, root)) < root:
        root = step
    return root


def _newton_step(value: int, degree: int, root: int) -> int:
    return ((degree - 1) * root + value // root ** (degree - 1)) // degree


def exact_nth_root(value: int, degree: int) -> int | None:
    """Integer ``r`` with ``r**degree == value``, or None (value >= 0)."""
    root = int_nth_root(value, degree)
    return root if root**degree == value else None
