"""Shared exact-integer helpers: the perfect-square test and the integer-input rule.

A library scope or point is an exact ``int``: a float or a bool is refused
with ``ValueError``, never computed with.
"""

from __future__ import annotations

from math import isqrt


def exact_sqrt(value: int) -> int | None:
    """Nonnegative integer square root of ``value``, or None if not a square."""
    if value < 0:
        return None
    root = isqrt(value)
    return root if root * root == value else None


def at_least(name: str, value, floor: int) -> int:
    """``value`` if it is an int, not a bool, and at least ``floor``; else ``ValueError``."""
    if type(value) is not int or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    return value


def exact_ints(values, count: int):
    """``values`` if it is a list or tuple of ``count`` exact ints, else ``ValueError``."""
    if not (isinstance(values, (list, tuple)) and list(map(type, values)) == [int] * count):
        raise ValueError(f"need {count} integers, got {values!r}")
    return values
