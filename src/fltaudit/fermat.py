"""Brute-force scanner for x^n + y^n = z^n over bounded bases.

A sanity oracle: for n = 2 it must find the classical triples, for n >= 3 it
must come back empty on any desk-scale box.
"""

from __future__ import annotations

from math import gcd

from .ints import at_least

__all__ = ["primitive_square_triples", "scan_power_equation"]


def scan_power_equation(base_max: int, n: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) with 1 <= x <= y <= base_max and x^n + y^n = z^n.

    z is looked up in a table of n-th powers: for n >= 2 any solution has
    z <= 2^(1/n) * y < 2 * base_max, so the table up to 2 * base_max is
    complete and no root is ever taken.
    """
    at_least("base_max", base_max, 1)
    at_least("exponent", n, 2)
    powers = [v**n for v in range(2 * base_max + 1)]
    roots = {power: v for v, power in enumerate(powers)}
    solutions: list[tuple[int, int, int]] = []
    for x in range(1, base_max + 1):
        px = powers[x]
        for y in range(x, base_max + 1):
            z = roots.get(px + powers[y])
            if z is not None:
                solutions.append((x, y, z))
    return solutions


def primitive_square_triples(base_max: int) -> list[tuple[int, int, int]]:
    """Solutions of x^2 + y^2 = z^2 with x <= y <= base_max and gcd(x, y, z) = 1."""
    return [
        (x, y, z)
        for x, y, z in scan_power_equation(base_max, 2)
        if gcd(gcd(x, y), z) == 1
    ]
