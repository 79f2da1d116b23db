"""Brute-force scanner for x^n + y^n = z^n over bounded bases.

A sanity oracle: for n = 2 it must find the classical triples, for n >= 3 it
must come back empty on any desk-scale box.  Both routes are exact integer
work and assume nothing about the solutions: n = 2 walks the factor pairs of
x^2 = (z - y)(z + y), and n >= 3 looks z up in a table of n-th powers.
"""

from __future__ import annotations

from math import gcd

from .ints import at_least

__all__ = ["primitive_square_triples", "scan_power_equation"]


def scan_power_equation(base_max: int, n: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) with 1 <= x <= y <= base_max and x^n + y^n = z^n.

    Sorted by x, then y.  For n = 2 each x's solutions come from the factor
    pairs of x^2 (``_square_solutions``).  For n >= 3, z is looked up in a
    table of n-th powers: any solution has z <= 2^(1/n) * y < 2 * base_max,
    so the table up to 2 * base_max is complete and no root is ever taken.
    """
    at_least("base_max", base_max, 1)
    at_least("exponent", n, 2)
    if n == 2:
        return _square_solutions(base_max)
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


def _square_solutions(base_max: int) -> list[tuple[int, int, int]]:
    """``scan_power_equation(base_max, 2)`` from the factor pairs of each x^2.

    x^2 + y^2 = z^2 is x^2 = (z - y)(z + y).  So each solution is a divisor
    delta = z - y of x^2 with delta < x^2 / delta and both of the same parity,
    and then y = (x^2 / delta - delta) / 2 and z = y + delta.  The divisors
    come from a smallest-prime-factor sieve up to base_max; y falls as delta
    rises, so the largest delta gives the smallest y.
    """
    smallest = list(range(base_max + 1))
    for p in range(2, base_max + 1):
        if smallest[p] == p:
            for multiple in range(p * p, base_max + 1, p):
                if smallest[multiple] == multiple:
                    smallest[multiple] = p
    solutions: list[tuple[int, int, int]] = []
    for x in range(1, base_max + 1):
        divisors = [1]
        rest = x
        while rest > 1:
            p = smallest[rest]
            exponent = 0
            while rest % p == 0:
                rest //= p
                exponent += 1
            divisors = [d * p**i for d in divisors for i in range(2 * exponent + 1)]
        square = x * x
        found = []
        for delta in divisors:
            twice_y = square // delta - delta
            # twice_y > 0 iff delta < x^2 / delta; it is even iff the pair's parities match.
            if twice_y % 2 == 0 and 2 * x <= twice_y <= 2 * base_max:
                found.append((x, twice_y // 2, twice_y // 2 + delta))
        found.sort()
        solutions += found
    return solutions


def primitive_square_triples(base_max: int) -> list[tuple[int, int, int]]:
    """Solutions of x^2 + y^2 = z^2 with x <= y <= base_max and gcd(x, y, z) = 1.

    Taken from ``scan_power_equation(base_max, 2)``, which assumes no parity
    or coprimality, so a check of those facts on them does not check itself.
    """
    return [
        (x, y, z)
        for x, y, z in scan_power_equation(base_max, 2)
        if gcd(gcd(x, y), z) == 1
    ]
