"""Shared exact-integer helper: the perfect-square test."""

from __future__ import annotations

from math import isqrt


def exact_sqrt(value: int) -> int | None:
    """Nonnegative integer square root of ``value``, or None if not a square."""
    if value < 0:
        return None
    root = isqrt(value)
    return root if root * root == value else None
