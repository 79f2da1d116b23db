"""Bounded audit of the side-condition implications behind the conjecture.

The derivation that feeds the three-equation system rests on a chain of
implications of the shape "if |x|, |y|, |z| satisfy an inequality chain then
the derived quantities satisfy another".  Inequality chains like
"d != e != f != 0" are ambiguous, so every implication is checked under both
of the search's ``READINGS`` (pairwise, adjacent), each chain read by the
search's one definition, ``chain_flags``.

For each implication and each reading, every integer point (x, y, z) in a
box satisfying the hypothesis is tested, and the points where the conclusion
fails are returned as counterexamples.

The conclusions are the search's own side conditions: the point is mapped
by the reduction to its system skeleton at n = 2k + 1 (``reduction_row``),
and four of the five conclusions are flags of ``classify_row`` on that row,
the report whose three verdicts come from one rule.  Only
``rst_distinct_nonzero``, about the forms r, s, t themselves, is read off
``chain_flags`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import attrgetter
from typing import Callable

from .ints import at_least, exact_ints
from .lemma import linear_forms
from .search import _REPORTS, READINGS, ConditionReport, _report_code, chain_flags

__all__ = [
    "CLAIM_IDS",
    "READINGS",
    "ImplicationCheck",
    "reduction_row",
    "replay_condition_counterexample",
    "verify_condition_derivations",
]

Point = tuple[int, int, int]


@dataclass(frozen=True)
class ImplicationCheck:
    """Result of one implication under one reading over one box."""

    claim: str
    reading: str
    box_bound: int
    k: int | None
    hypothesis_points: int
    counterexamples: tuple[Point, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _point_flags(x: int, y: int, z: int) -> tuple[tuple[bool, bool], bool]:
    """The chain |x| != |y| != |z| != 0 under each of READINGS, and gcd(x, y, z) = 1.

    A hypothesis is one reading's flag, and the coprimality flag too where the
    claim assumes it.
    """
    return chain_flags(abs(x), abs(y), abs(z)), gcd(gcd(x, y), z) == 1


def _hypothesis(x: int, y: int, z: int, reading: str, needs_coprime: bool) -> bool:
    chain, coprime = _point_flags(x, y, z)
    return chain[READINGS.index(reading)] and (coprime or not needs_coprime)


def reduction_row(x: int, y: int, z: int, k: int) -> list[int]:
    """The system skeleton of (x, y, z) at n = 2k + 1, as a kernel row.

    alpha, beta, gamma = xy, yz, zx; a, b, c = r (xy)^(k-1), s (yz)^(k-1),
    t (zx)^(k-1); (d, e, f) = (u, v, w); and p = q = 0, which no flag read
    here depends on.
    """
    return _skeleton(x, y, z, linear_forms(x, y, z), k)


def _skeleton(x: int, y: int, z: int, forms: tuple[int, ...], k: int) -> list[int]:
    """``reduction_row`` of (x, y, z) from its ``linear_forms``, already built."""
    r, s, t, u, v, w = forms
    xy, yz, zx = x * y, y * z, z * x
    return [xy, yz, zx, r * xy ** (k - 1), s * yz ** (k - 1), t * zx ** (k - 1), u, v, w, 0, 0]


def _facts(pt: Point, k: int) -> tuple[ConditionReport, tuple[bool, bool]]:
    """What the conclusions read of a point: the report of its reduction row,
    and the chain r != s != t != 0 of its forms under each of READINGS."""
    forms = linear_forms(*pt)
    return _REPORTS[_report_code(_skeleton(*pt, forms, k))], chain_flags(*forms[:3])


# claim id -> (the ConditionReport flag giving the conclusion under each of
# READINGS, or None for the claim with its own predicate; hypothesis also
# assumes gcd(x, y, z) = 1; conclusion depends on the power parameter k)
_CLAIMS = {
    "uvw_distinct_nonzero": (
        ("def_distinct_nonzero", "def_distinct_nonzero_adjacent"), False, False
    ),
    "pairprod_distinct_nonzero": (
        ("case_general_distinct", "case_general_distinct_adjacent"), False, False
    ),
    "coeff_divides_term": (("divisibility", "divisibility"), False, True),
    "rst_distinct_nonzero": (None, True, False),
    "coeff_not_unit_multiple": (("non_unit_divisors", "non_unit_divisors"), True, True),
}

CLAIM_IDS = tuple(_CLAIMS)


def _conclusion(
    claim: str, reading: str, facts_of: Callable[[Point], tuple]
) -> Callable[[Point], bool]:
    """The claim's conclusion under one reading, as a test of a point.

    ``facts_of`` gives a point's ``_facts``.
    """
    flags = _CLAIMS[claim][0]
    index = READINGS.index(reading)
    if flags is None:
        return lambda pt: facts_of(pt)[1][index]
    flag = attrgetter(flags[index])
    return lambda pt: flag(facts_of(pt)[0])


def verify_condition_derivations(box_bound: int, k: int) -> list[ImplicationCheck]:
    """Exhaustively test every implication over [-box_bound, box_bound]^3.

    ``k`` parametrizes the two power-dependent implications; pass a value in
    the regime where they are claimed (k > 2 covers both shapes).
    """
    at_least("box_bound", box_bound, 3)
    at_least("k", k, 1)
    span = range(-box_bound, box_bound + 1)
    # The hypothesis depends only on (reading, needs_coprime): read each
    # point's flags once and file it under every pair it satisfies.
    admitted: dict[tuple[str, bool], list[Point]] = {
        (reading, coprime): [] for reading in READINGS for coprime in (False, True)
    }
    for pt in product(span, repeat=3):
        chain, coprime = _point_flags(*pt)
        for reading, flag in zip(READINGS, chain):
            if flag:
                admitted[reading, False].append(pt)
                if coprime:
                    admitted[reading, True].append(pt)
    # The weakest hypothesis admits every point any other admits: read each
    # admitted point's facts once, for every claim and reading.  Points share
    # the few distinct fact pairs, keyed by their interned report's id, so
    # the table holds a reference per point.  The rows are built from ints
    # checked above, so they skip classify_row's check.
    shared: dict[tuple, tuple] = {}
    facts = {}
    for pt in admitted["adjacent", False]:
        report, chain = pair = _facts(pt, k)
        facts[pt] = shared.setdefault((id(report), chain), pair)
    checks: list[ImplicationCheck] = []
    for claim, (_, needs_coprime, needs_k) in _CLAIMS.items():
        for reading in READINGS:
            hypothesis = admitted[reading, needs_coprime]
            conclusion = _conclusion(claim, reading, facts.__getitem__)
            failures = tuple(pt for pt in hypothesis if not conclusion(pt))
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
    claim: str, reading: str, point: Point, k: int
) -> bool:
    """True iff the point still satisfies the hypothesis and breaks the conclusion."""
    # A str first: an unhashable claim would raise TypeError in the lookup.
    if type(claim) is not str or claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    if type(reading) is not str or reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    exact_ints(point, 3)
    at_least("k", k, 1)
    conclusion = _conclusion(claim, reading, lambda pt: _facts(pt, k))
    return _hypothesis(*point, reading, _CLAIMS[claim][1]) and not conclusion(point)
