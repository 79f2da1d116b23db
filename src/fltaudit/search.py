"""Exhaustive bounded search for integer solutions of the quadratic system.

The system in the eleven unknowns (a, b, c, d, e, f, alpha, beta, gamma, p, q):

    q^2 = a^2 alpha - b^2 beta  - c^2 gamma
    pq  = (ad)^2 alpha - (be)^2 beta - (cf)^2 gamma
    p^2 = (ad^2)^2 alpha - (be^2)^2 beta - (cf^2)^2 gamma

The search enumerates (alpha, beta, gamma, a, b, c, d, e, f) over an integer
box in lexicographic order ("unit" case pins alpha = beta = gamma = 1) and
derives p and q instead of scanning them:

  * the first right-hand side must be a nonnegative perfect square, checked
    by its exact integer square root, giving q up to sign;
  * for q > 0, p is forced as the exact quotient of the second right-hand
    side by q; for q = 0 the second right-hand side must vanish and the
    third must be a perfect square.

The sign symmetry (p, q) -> (-p, -q) is quotiented away by canonicalizing
q >= 0, and p >= 0 when q = 0.

c, d, e and f enter the system only squared, so (p, q) is the same for
every choice of their signs.  The kernel works on magnitude classes: for
fixed (alpha, beta, gamma, a, b) it runs the square gate once per |c|,
giving q, and one certificate says which d, e, f solve.  Put
w = (a^2 alpha, -b^2 beta, -c^2 gamma) and v = (d^2, e^2, f^2).  A solution
has (sum w)(sum wv^2) - (sum wv)^2 = q^2 p^2 - (pq)^2 = 0, which by
Lagrange's identity is w1 w2 (v1-v2)^2 + w1 w3 (v1-v3)^2 + w2 w3 (v2-v3)^2:
a form in x = e^2 - d^2 and y = f^2 - d^2 of discriminant
-4 w1 w2 w3 q^2 = -4 alpha beta gamma (abcq)^2.

  * A square block has a*alpha, b*beta, c*gamma nonzero and
    -alpha*beta*gamma a perfect square.  Every other class solves exactly on
    the diagonal |.| = m of its d, e, f axes with nonzero w, with p = m^2 q:
    with no w zero the form has no rational null line where q > 0, and
    where q = 0, w2^2 p^2 = -w1 w2 w3 (v1 - v3)^2; one zero w leaves the one
    term wi wj (vi - vj)^2; two or three leave every point.  The kernel
    walks that diagonal unscanned, so the unit case (-1) never scans.
  * In a square block, with r = sqrt(-alpha beta gamma) |abc| and
    C = w3 (w1 + w2), C times the form is (C y - w2 w3 x)^2 - (q r x)^2.  So
    every solution has C y = x (w2 w3 +- q r), or where C = 0,
    2 w3 y = x (w1 + w3), and x = C = 0 leaves every f.  Each (|d|, |e|)
    tests only the |f| on those lines, and each candidate goes through the
    exact p test.

The kernel then walks the signed values of c in enumeration order.  A
class outside a square block leaves it as one class entry,
[alpha, beta, gamma, a, b, c, None, None, None, None, q]: it stands for
the signed diagonal of its fixed axes, p = m^2 q, and is written only where
that diagonal has a point.  A square block's solutions leave it as explicit
rows, one per signed (d, e, f) of a class that solved, in enumeration
order.  A one-signed or lopsided range has one-member classes.

Where a*alpha = 0, a and d drop out of all three equations (likewise
(b, e) with b*beta and (c, f) with c*gamma), so every d in the range gives
the same row.  There the diagonal holds None in the d slot: one family
entry for every d in the range.  A class entry is counted from its
diagonal's walk without being expanded: on the diagonal the right-hand
sides are first, m^2 first and m^4 first, so with p = m^2 q one classified
row checks the system for every m, and p = 0 exactly where q = 0.  A
family row is trivial (a = 0) or fails the divisibility condition (zero
divides only zero), so it is never a counterexample, and its free values
drop out.  So every row an entry stands for has the entry's report but for
the chain d != e != f != 0, whose two readings give three classes.  The
search classifies one row per class entry, and once per class of a
square block's explicit rows that differ only in the signs of d, e and f
and share their chain flags.  A report's code is the bits of its
nine hypothesis flags.  The search stores one code beside each entry, and
a row's code is its entry's with the row's own chain bits: no walk
classifies.  A walk expands each class entry once, one p = m^2 q per
magnitude m, and an explicit run goes to its consumer whole.  Family rows
come one (d, e) cell at a time, their chain bits read from one table over
the box's (d, e) pairs, to rows, solutions and the log alike.  The log
(``fltaudit.resultlog``) writes a class entry's rows from a skeleton of
indices, one for each of at most 16 shapes: its free axes and whether q is 0.

The space is split into shards by a prefix of the enumeration order; each
completed shard appends one fsync'd record to the checkpoint file, so an
interrupted run resumes without rescanning, and a torn tail is cut from the
file.  A record, completed or resumed, is counted and then written with
its entries' codes to a private spill file, and dropped; every walk loads
the entries and their codes back from the spill a piece at a time, in
shard order.  So memory holds one shard's record, whatever the size of the
box, and a walk never reads the checkpoint.  A resume checks each record:
the header _record_header declares for its shard and no other key, and
rows of eleven integers, nulls only in the d, e, f and p slots, with
q >= 0, and p >= 0 where q = 0.  One rule then reads every format, per
prefix: each lies in the shard's blocks and the box, after the one before;
a square block's prefix holds explicit rows in the box, strictly
increasing, and any other prefix exactly its class entry's rows in the
record's format, kept as that entry.  So the spill holds format 3 in strict
order, whatever the checkpoint's format; each entry must solve the system.
A record missing a square block's row, or the only entry of a prefix (as a
format-3 class entry is), passes these checks: only a rescan finds it.
"""

from __future__ import annotations

import hashlib
import marshal
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, groupby, product
from math import isqrt, prod
from operator import attrgetter, contains, itemgetter, lt
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Mapping, NamedTuple, Sequence

from .checkpoint import CANONICAL_JSON, CheckpointError, append_record, read_records
from .ints import at_least, exact_ints, exact_sqrt

__all__ = [
    "READINGS",
    "ConditionReport",
    "ConjectureInstance",
    "SearchResult",
    "SearchSpace",
    "chain_flags",
    "check_conditions",
    "classify_row",
    "search",
    "system_values",
    "write_result_log",
]

COEFF_VARS = ("alpha", "beta", "gamma")
UNIT_VARS = ("a", "b", "c", "d", "e", "f")
# Layout of a kernel row, which is also the sort key of its instance.
ROW_VARS = COEFF_VARS + UNIT_VARS + ("p", "q")
# The enumerated variables of each case, in enumeration order.
_CASE_VARS = {"unit": UNIT_VARS, "general": COEFF_VARS + UNIT_VARS}

ShardHook = Callable[[int, dict], None]


# ----------------------------------------------------------------------
# Instances and condition flags


class ConjectureInstance(NamedTuple):
    """One assignment of all eleven unknowns, its fields in ``ROW_VARS`` order.

    An instance is a tuple of its row: it iterates over the row's values and
    compares equal to the plain tuple of them.
    """

    alpha: int
    beta: int
    gamma: int
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    p: int
    q: int

    def key(self) -> tuple[int, ...]:
        """The kernel row: the sort key following the enumeration order."""
        return tuple(self)


def system_values(a, b, c, d, e, f, alpha, beta, gamma):
    """The three right-hand sides for one assignment of (a..f, alpha..gamma).

    The arguments may be ints or Polynomials (anything with + - * **): the
    lemma derives its Q, M, P from this same expression.
    """
    first = a * a * alpha - b * b * beta - c * c * gamma
    second = (a * d) ** 2 * alpha - (b * e) ** 2 * beta - (c * f) ** 2 * gamma
    third = (a * d * d) ** 2 * alpha - (b * e * e) ** 2 * beta - (c * f * f) ** 2 * gamma
    return first, second, third


# The readings of an inequality chain, in the order of ``chain_flags``' pair.
READINGS = ("pairwise", "adjacent")


def chain_flags(u: int, v: int, w: int) -> tuple[bool, bool]:
    """The chain u != v != w != 0 under each of ``READINGS``.

    Pairwise: u, v and w pairwise distinct and all nonzero.  Adjacent: only
    neighbours distinct, and only the last one nonzero.  Pairwise implies
    adjacent.  This is the only place a chain is read.
    """
    adjacent = u != v and v != w and w != 0
    return adjacent and u != 0 and v != 0 and u != w, adjacent


@dataclass(frozen=True)
class ConditionReport:
    """Side-condition flags for an instance, then its three verdicts.

    Each chain gives two flags (``chain_flags``), the *_adjacent one its
    adjacent reading.  A report's code is the bits of its nine hypothesis
    flags, in field order, and the verdicts follow from them by one rule
    (``_report``): both counterexample verdicts read the d, e, f chain
    pairwise and differ in the coefficient chain's reading;
    ``admissible_with_adjacent_def`` reads both chains adjacent-only, where
    the pairwise d, e, f chain fails, so alternative conventions can be
    re-counted offline.
    """

    satisfied: bool
    trivial: bool
    def_distinct_nonzero: bool
    def_distinct_nonzero_adjacent: bool
    case_unit: bool
    case_general_distinct: bool
    case_general_distinct_adjacent: bool
    divisibility: bool
    non_unit_divisors: bool
    counterexample_pairwise: bool
    counterexample_adjacent: bool
    admissible_with_adjacent_def: bool

    def as_dict(self) -> dict[str, bool]:
        """The hypothesis flags: every field but the three verdicts."""
        return {field.name: getattr(self, field.name) for field in fields(self)[:-3]}


# Every report built so far, by its code: bit i of the code is the report's
# i-th hypothesis flag, so codes fit in 2**9, as a two-byte "H" array holds
# them, and the three verdicts follow from those bits.  Rows share these
# frozen objects, and a code costs two bytes where a reference costs eight.
# A plain dict, filled by _report_code: C5 reads it once per hypothesis point.
_REPORTS: dict[int, ConditionReport] = {}

# The bits of the d, e, f chain's two readings in a code, pairwise then adjacent.
_DEF_MASK = 0b1100


def _def_bits(d: int, e: int, f: int) -> int:
    """The d, e, f chain's bits of a code: 0, 0b1000 (adjacent only) or 0b1100 (both)."""
    pair, adj = chain_flags(d, e, f)
    return 0b1100 if pair else 0b1000 if adj else 0


def _report_code(row: Sequence[int]) -> int:
    """The code in ``_REPORTS`` of ``classify_row(row)``, building the report on first use."""
    alpha, beta, gamma, a, b, c, d, e, f, p, q = row
    first, second, third = system_values(a, b, c, d, e, f, alpha, beta, gamma)
    satisfied = q * q == first and p * q == second and p * p == third
    trivial = a * b * c == 0 or (p == 0 and q == 0)
    def_pair, def_adj = chain_flags(d, e, f)
    aa, ab, ag = abs(alpha), abs(beta), abs(gamma)
    case_unit = alpha == 1 and beta == 1 and gamma == 1
    gen_pair, gen_adj = chain_flags(aa, ab, ag)
    # Zero divides only zero.
    div_ok = (
        (a % alpha == 0 if alpha else a == 0)
        and (b % beta == 0 if beta else b == 0)
        and (c % gamma == 0 if gamma else c == 0)
    )
    # Literal reading of |alpha| != a: a magnitude against a signed value.
    non_unit = aa != a and ab != b and ag != c

    # Bit i is ConditionReport's i-th field.  Conditional ints add faster than bools shift.
    code = (
        (1 if satisfied else 0) + (2 if trivial else 0) + (4 if def_pair else 0)
        + (8 if def_adj else 0) + (16 if case_unit else 0) + (32 if gen_pair else 0)
        + (64 if gen_adj else 0) + (128 if div_ok else 0) + (256 if non_unit else 0)
    )
    if code not in _REPORTS:
        _report(code)
    return code


def _report(code: int) -> None:
    """Build the reports of ``code`` and of its two siblings in the d, e, f chain bits.

    Every row a stored entry stands for has the entry's code but for those
    bits, so a walk sets a row's own and classifies none.
    """
    flags = [bool(code >> bit & 1) for bit in range(9)]
    satisfied, trivial, _, _, case_unit, gen_pair, gen_adj, div_ok, non_unit = flags
    general = div_ok and non_unit
    for bits in (0, 0b1000, _DEF_MASK):
        def_pair, def_adj = bits == _DEF_MASK, bits != 0
        flags[2:4] = def_pair, def_adj
        # One rule gives all three verdicts: a satisfied, nontrivial row whose
        # d, e, f chain holds, in the unit case or meeting the general-case
        # conditions.  Each verdict reads the two chains its own way.
        verdicts = (
            satisfied and not trivial and def_ok and (case_unit or (gen_ok and general))
            for def_ok, gen_ok in (
                (def_pair, gen_pair),
                (def_pair, gen_adj),
                (def_adj and not def_pair, gen_adj),
            )
        )
        _REPORTS[code & ~_DEF_MASK | bits] = ConditionReport(*flags, *verdicts)


def classify_row(row: Sequence[int]) -> ConditionReport:
    """Recompute every hypothesis flag and the per-reading counterexample verdicts.

    ``row`` is ``[alpha, beta, gamma, a, b, c, d, e, f, p, q]``.  The report
    is interned: all rows with the same flags get the same frozen object.
    """
    return _REPORTS[_report_code(exact_ints(row, len(ROW_VARS)))]


def check_conditions(inst: ConjectureInstance) -> ConditionReport:
    """The shared condition report of one instance.

    ``satisfied`` says whether all three equations hold exactly; ``trivial``
    marks a zero among a, b, c, or p = q = 0.
    """
    return classify_row(inst)


def _readings(report: ConditionReport) -> dict[str, bool]:
    """The per-reading counterexample verdicts, as logs and reports spell them."""
    return {
        "pairwise": report.counterexample_pairwise,
        "adjacent": report.counterexample_adjacent,
    }


# ----------------------------------------------------------------------
# Search space


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive per-variable bounds, case selector, shard count, checkpoint."""

    bounds: Mapping[str, tuple[int, int]]
    case: str = "unit"
    shards: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.case not in _CASE_VARS:
            raise ValueError(f"case must be 'unit' or 'general', got {self.case!r}")
        required = self.enumerated_vars
        clean: dict[str, tuple[int, int]] = {}
        for name in required:
            if name not in self.bounds:
                raise ValueError(f"missing bounds for variable {name!r}")
            # Exact ints: a bool bound would give the box a second signature.
            try:
                low, high = exact_ints(self.bounds[name], 2)
            except ValueError:
                raise ValueError(
                    f"bounds for {name!r} must be a (low, high) pair of integers, "
                    f"got {self.bounds[name]!r}"
                ) from None
            if low > high:
                raise ValueError(f"empty range for {name!r}: [{low}, {high}]")
            clean[name] = (low, high)
        extra = set(self.bounds) - set(required)
        if extra:
            raise ValueError(f"unexpected bound keys: {sorted(extra)}")
        object.__setattr__(self, "bounds", clean)
        at_least("shards", self.shards, 1)
        if self.checkpoint_path is not None:
            # An empty path names no file: search() and the resume would read it two ways.
            if not str(self.checkpoint_path):
                raise ValueError("checkpoint path must not be empty")
            object.__setattr__(self, "checkpoint_path", str(self.checkpoint_path))

    @classmethod
    def cube(
        cls,
        low: int,
        high: int,
        *,
        case: str = "unit",
        shards: int = 1,
        checkpoint_path: str | Path | None = None,
    ) -> "SearchSpace":
        # An unknown case gets no bounds; __post_init__ then rejects the case.
        return cls(
            bounds={name: (low, high) for name in _CASE_VARS.get(case, ())},
            case=case,
            shards=shards,
            checkpoint_path=checkpoint_path,
        )

    @property
    def enumerated_vars(self) -> tuple[str, ...]:
        return _CASE_VARS[self.case]

    def values_of(self, name: str) -> range:
        low, high = self.bounds[name]
        return range(low, high + 1)

    def kernel_ranges(self) -> list[range]:
        """The values the kernel can give alpha..f, in row order: unit pins alpha..gamma to 1."""
        return [self.values_of(n) if n in self.bounds else range(1, 2) for n in ROW_VARS[:9]]

    def total_assignments(self) -> int:
        total = 1
        for name in self.enumerated_vars:
            low, high = self.bounds[name]
            total *= high - low + 1
        return total

    def signature(self) -> str:
        payload = CANONICAL_JSON.encode(
            {
                "case": self.case,
                "bounds": {k: list(v) for k, v in sorted(self.bounds.items())},
                "shards": self.shards,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _prefix_blocks(space: SearchSpace, start: int, stop: int) -> list[tuple[int, int]]:
    # Blocks start..stop-1 of the shard granularity, pairs of values of the
    # first two enumerated variables in enumeration order, by index arithmetic.
    first, second = (space.values_of(name) for name in space.enumerated_vars[:2])
    return [(first[k // len(second)], second[k % len(second)]) for k in range(start, stop)]


def _record_header(space: SearchSpace, shard: int, fmt: int = 3) -> dict:
    """Every field of ``shard``'s checkpoint record but its rows, in format ``fmt``.

    Format 3 keeps each class outside a square block as one class entry,
    ``[alpha, beta, gamma, a, b, c, null, null, null, null, q]``, and each
    square-block row explicit.  Formats 2 (a family as one row, ``null`` in
    its free d, e or f slots) and 1 (every row explicit) are still read.
    """
    block_count = prod(len(space.values_of(name)) for name in space.enumerated_vars[:2])
    start, stop = (i * block_count // space.shards for i in (shard, shard + 1))
    return {
        "format": fmt,
        "signature": space.signature(),
        "shard": shard,
        "shards": space.shards,
        "blocks": [start, stop],
        "scanned": (stop - start) * (space.total_assignments() // block_count),
    }


# ----------------------------------------------------------------------
# Shard scanning


# One variable's magnitude classes (m, m**2, m**4) and its (value, magnitude) walk.
_SignTable = tuple[list[tuple[int, int, int]], list[tuple[int, int]]]


def _sign_classes(values: list[int]) -> _SignTable:
    """The magnitude classes of ascending ``values`` and the signed walk over them.

    Each class ``(m, m**2, m**4)`` stands for every value of magnitude ``m``;
    the walk pairs each value, in ascending order, with its magnitude.
    """
    walk = [(v, abs(v)) for v in values]
    magnitudes = dict.fromkeys(m for _, m in walk)
    return [(m, m * m, m**4) for m in magnitudes], walk


@lru_cache(maxsize=8)
def _diagonal(ranges: tuple[range, ...], free: tuple[bool, ...]) -> tuple[tuple, ...]:
    """The signed (m, d, e, f) walk of the diagonal |d| = |e| = |f| = m.

    Only the axes of ``ranges`` that are not ``free`` lie on the diagonal; a
    free axis holds None.  The walk is in enumeration order, and with every
    axis free it is the one point (0, None, None, None).  The cache holds the
    eight walks of one box, so a process builds each of them once.
    """
    lead = free.index(False) if False in free else None
    return tuple(
        (abs(v), *point)
        for v in ((0,) if lead is None else ranges[lead])
        for point in product(*[
            (None,) if is_free else (v,) if axis == lead else [s for s in sorted({-v, v}) if s in r]
            for axis, (r, is_free) in enumerate(zip(ranges, free))
        ])
    )


def _free_axes(entry: Sequence) -> tuple[bool, bool, bool]:
    """Which of d, e and f drop out of the system for ``entry``: a*alpha, b*beta or c*gamma is 0."""
    alpha, beta, gamma, a, b, c = entry[:6]
    return not a * alpha, not b * beta, not c * gamma


def _class_rows(entry: Sequence, ranges: tuple[range, ...]) -> list[list]:
    """The entries a format-3 class entry stands for: the one place it is expanded.

    One per point (m, d, e, f) of its signed diagonal, in enumeration order,
    None in its free slots, and p = m**2 q built once per m, shared at m.
    """
    alpha, beta, gamma, a, b, c, *_, q = entry
    walk = _diagonal(ranges, _free_axes(entry))
    p_of = {m: m * m * q for m in {point[0] for point in walk}}
    return [[alpha, beta, gamma, a, b, c, d, e, f, p_of[m], q] for m, d, e, f in walk]


@lru_cache(maxsize=2)
def _diagonal_classes(ranges: tuple[range, ...]) -> tuple[bytes, Counter]:
    """The ``_def_bits`` of each point of the walk with no free axis, and how many points
    have each."""
    cells = bytes(_def_bits(d, e, f) for _, d, e, f in _diagonal(ranges, (False, False, False)))
    return cells, Counter(cells)


def _scan_shard(space: SearchSpace, shard_id: int) -> dict:
    """Scan one shard and return its checkpoint record."""
    header = _record_header(space, shard_id)
    start, stop = header["blocks"]

    ranges = space.kernel_ranges()
    c_table, *def_tables = map(_sign_classes, ranges[5:])
    # f's classes by their square, for the form's lines in a square block.
    f_squares = {f_class[1]: f_class for f_class in def_tables[2][0]}
    def_ranges = tuple(ranges[6:])
    solutions: list[list] = []

    # The variables fixed around each kernel call, alpha..b: a block pins the
    # first two enumerated ones.  The kernel emits in enumeration order.
    outer = ranges[:5]
    first = ROW_VARS.index(space.enumerated_vars[0])
    for i, j in _prefix_blocks(space, start, stop):
        outer[first : first + 2] = [i], [j]
        for alpha, beta, gamma, a, b in product(*outer):
            _kernel(alpha, beta, gamma, a, b, c_table, def_tables, f_squares, def_ranges, solutions)

    return {**header, "solutions": solutions}


def _kernel(
    alpha: int,
    beta: int,
    gamma: int,
    a: int,
    b: int,
    c_table: _SignTable,
    def_tables: list[_SignTable],
    f_squares: dict[int, tuple[int, int, int]],
    def_ranges: tuple[range, ...],
    out: list[list],
) -> None:
    # For fixed coefficients and (a, b), the |c| classes that pass the square
    # gate, giving q, and the d, e, f that solve with them: the right-hand
    # sides see only squares of c, d, e and f.  Outside a square block a
    # class solves exactly on the diagonal of its fixed axes, and one class
    # entry, null in d, e, f and p, stands for it; inside one the (|d|, |e|)
    # scan tests the |f| on the form's rational lines.
    a_sq = a * a * alpha
    b_sq = b * b * beta
    # sqrt(-alpha*beta*gamma) where a*alpha and b*beta are nonzero: the block
    # is square where it is an integer and c*gamma is nonzero too.
    root = exact_sqrt(-alpha * beta * gamma) if a_sq and b_sq else None
    c_classes, c_walk = c_table
    (d_classes, d_walk), (e_classes, e_walk), (f_classes, f_walk) = def_tables
    # |c| -> (q, None) for a class entry, or (q, {|d|: {|e|: {|f|: p}}}): rows share a p.
    hits: dict[int, tuple[int, dict | None]] = {}
    for cm, c2, _ in c_classes:
        c_sq = c2 * gamma
        val_q2 = a_sq - b_sq - c_sq
        if val_q2 < 0:
            continue
        q = isqrt(val_q2)
        if q * q != val_q2:
            continue
        if root is None or not c_sq:
            if _diagonal(def_ranges, (not a_sq, not b_sq, not c_sq)):
                hits[cm] = (q, None)
            continue
        # With w = (a_sq, -b_sq, -c_sq), x = e**2 - d**2 and y = f**2 - d**2,
        # a solution has den*y = x*num for a num in the set of the form's
        # ``lines`` (they coincide where q = 0):
        # num = w2*w3 -+ q*root*|abc| and den = C = w3*(w1 + w2), or where
        # C = 0, num = w1 + w3 and den = 2*w3.  x = C = 0 leaves every f.
        big_c = c_sq * (b_sq - a_sq)
        if big_c:
            qr = q * root * abs(a * b) * cm
            lines, den = {b_sq * c_sq - qr, b_sq * c_sq + qr}, big_c
        else:
            lines, den = {a_sq - c_sq}, -2 * c_sq
        d_hits: dict[int, dict] = {}
        for dm, d2, d4 in d_classes:
            ad2 = a_sq * d2
            ad4 = a_sq * d4
            e_hits: dict[int, dict] = {}
            for em, e2, e4 in e_classes:
                part_pq = ad2 - b_sq * e2
                part_p2 = ad4 - b_sq * e4
                x = e2 - d2
                if not (x or big_c):
                    candidates = f_classes
                else:
                    # A set: both lines give y = 0 at x = 0.
                    f2s = {d2 + x * n // den for n in lines if not x * n % den}
                    candidates = [f_squares[f2] for f2 in f2s if f2 in f_squares]
                f_hits: dict[int, int] = {}
                for fm, f2, f4 in candidates:
                    val_pq = part_pq - c_sq * f2
                    val_p2 = part_p2 - c_sq * f4
                    if q:
                        p, residue = divmod(val_pq, q)
                        if residue or p * p != val_p2:
                            continue
                    elif val_pq or (p := exact_sqrt(val_p2)) is None:
                        continue
                    f_hits[fm] = p
                if f_hits:
                    e_hits[em] = f_hits
            if e_hits:
                d_hits[dm] = e_hits
        if d_hits:
            hits[cm] = (q, d_hits)
    # Expand each hit to its signed values in enumeration order.
    for c, cm in c_walk:
        hit = hits.get(cm)
        if hit is None:
            continue
        q, found = hit
        if found is None:
            out.append([alpha, beta, gamma, a, b, c, None, None, None, None, q])
            continue
        for d, dm in d_walk:
            e_hits = found.get(dm)
            if e_hits is None:
                continue
            for e, em in e_walk:
                f_hits = e_hits.get(em)
                if f_hits is None:
                    continue
                for f, fm in f_walk:
                    p = f_hits.get(fm)
                    if p is not None:
                        out.append([alpha, beta, gamma, a, b, c, d, e, f, p, q])


# ----------------------------------------------------------------------
# Orchestration


_PREFIX = itemgetter(0, 1, 2, 3, 4, 5)


def _run_table(d_range: range, e_range: range, f_range: range) -> dict[int, dict[int, tuple]]:
    """Each (d, e) pair of the box, as ``table[d][e] = (runs, fixed, other)``.

    ``runs`` cuts f's range into its stretches of equal ``_def_bits``, each
    ``(bits, i, j)`` for the values ``f_range[i:j]``.  The bits change only
    at f in {0, d, e}, so a pair has at most 7 runs, whatever f's range.
    A fixed f's bits are ``fixed.get(f, other)``: ``fixed`` holds those at
    each such f in the range.  ``_def_bits`` is called once per (d, e, f).
    """
    table: dict[int, dict[int, tuple]] = {}
    shared: dict[tuple, tuple] = {}  # pairs share one tuple per distinct run
    for d, e in product(d_range, e_range):
        cells = [_def_bits(d, e, f) for f in f_range]
        runs, i = [], 0
        for bits, same in groupby(cells):
            run = bits, i, (i := i + len(list(same)))
            runs.append(shared.setdefault(run, run))
        fixed = {f: bits for f, bits in zip(f_range, cells) if f in (0, d, e)}
        other = next((bits for f, bits in zip(f_range, cells) if f not in fixed), 0)
        table.setdefault(d, {})[e] = runs, fixed, other
    return table


def _family_cells(group: Sequence[list], code: int, free: Sequence, table: dict) -> Iterator[tuple]:
    """The rows of a class entry of code ``code``, ``group`` as ``_class_rows``
    gives them, in enumeration order, one (d, e) cell at a time.

    A cell comes as ``(d, e, pair, leaves)``, ``pair`` being ``table[d][e]``
    and ``leaves`` ``(f, (entry, base, key))`` for each entry with rows at
    (d, e), f None where it is free.  A row's code is ``base``, the entry's
    code without chain bits, with the row's bits from ``pair``; ``key`` is
    ``p << 9 | base``.  A None slot stands for its range in ``free``; a
    group's entries share their None slots, so it is walked d -> e -> f.
    """
    base = code & ~_DEF_MASK
    tree: dict = {}  # slot value (None when free) -> next slot's tree
    for entry in group:
        d_key, e_key, f_key = entry[6:9]
        tree.setdefault(d_key, {}).setdefault(e_key, {})[f_key] = entry, base, entry[9] << 9 | base
    for d_key, e_tree in tree.items():
        for d in free[0] if d_key is None else (d_key,):
            pairs = table[d]
            for e_key, f_tree in e_tree.items():
                for e in free[1] if e_key is None else (e_key,):
                    yield d, e, pairs[e], f_tree.items()


class Solutions:
    """``(ConjectureInstance, ConditionReport)`` pairs in key order, built on demand."""

    def __init__(self, result: "SearchResult") -> None:
        self._result = result

    def __len__(self) -> int:
        return self._result.row_count

    def __iter__(self) -> Iterator[tuple[ConjectureInstance, ConditionReport]]:
        for codes, rows in self._result._row_runs():
            yield from zip(map(ConjectureInstance._make, rows), map(_REPORTS.__getitem__, codes))


@dataclass
class SearchResult:
    """Merged outcome of all shards: where their records lie and the counts of their rows.

    Each shard's record was counted when it completed, and its entries went
    to ``spill``, a private unlinked file, in pieces of ``_ROWS_PER_PIECE``
    entries, as the record holds them, each piece beside its entries' report
    codes as one ``bytes`` of two-byte codes; ``spans`` gives each piece's
    ``(offset, length)`` there, in enumeration order.  A walk loads one
    piece at a time, so memory never holds the box's entries or their codes,
    and expands a class entry only when it reaches it.  An entry's code is
    the report of the entry, or of its first row, and every other row it
    stands for has that code with the row's own ``_def_bits``.
    """

    space: SearchSpace
    signature: str
    spill: BinaryIO
    spans: list[tuple[int, int]]
    row_count: int
    counterexamples_pairwise: int
    counterexamples_adjacent: int
    adjacent_def_admissible: int
    trivial_solutions: int
    scanned: int
    total_assignments: int
    exhausted: bool
    shards_total: int
    shards_reused: int

    def close(self) -> None:
        """Close the spill, after which the result cannot be walked; dropping the result does too."""
        self.spill.close()

    def _stored(self) -> Iterator[tuple[list, int]]:
        """Each entry as the records hold it, with its report code, loaded a piece at a time."""
        for offset, length in self.spans:
            self.spill.seek(offset)
            entries, codes = marshal.loads(self.spill.read(length))
            yield from zip(entries, array("H", codes))

    def _row_runs(self) -> Iterator[tuple[Sequence[int], Sequence[list]]]:
        """Each run of rows as ``(codes, rows)``, in enumeration order, ``codes[i]``
        the report code of ``rows[i]``.

        The entries sharing (alpha, beta, gamma, a, b, c) are explicit rows,
        which come whole with the codes ``_stored`` reads beside them, or one
        class entry, which ``_class_rows`` expands once.  Its diagonal comes
        whole, its codes the entry's with ``_diagonal_classes``' bits, where
        no axis is free, and otherwise one (d, e) cell at a time, from
        ``_family_cells``' walk over one ``_run_table``.
        """
        free = tuple(self.space.values_of(name) for name in "def")
        table = None
        for _, group in groupby(self._stored(), lambda stored: _PREFIX(stored[0])):
            entries, codes = zip(*group)
            if entries[0][9] is not None:
                yield codes, entries
                continue
            group = _class_rows(entries[0], free)
            if None not in group[0]:
                base = codes[0] & ~_DEF_MASK
                yield [base | bits for bits in _diagonal_classes(free)[0]], group
                continue
            if table is None:
                table = _run_table(*free)
            for d, e, (runs, fixed, other), leaves in _family_cells(group, codes[0], free, table):
                cell_codes, rows = [], []
                for f, (entry, base, _) in leaves:
                    head, tail = entry[:6], entry[9:]
                    for value in free[2] if f is None else (f,):
                        rows.append([*head, d, e, value, *tail])
                    if f is not None:
                        cell_codes.append(base | fixed.get(f, other))
                        continue
                    for bits, i, j in runs:
                        cell_codes += [base | bits] * (j - i)
                yield cell_codes, rows

    def iter_rows(self) -> Iterator[list[int]]:
        """The kernel rows in enumeration order, expanded from the entries as they go."""
        for _, rows in self._row_runs():
            yield from rows

    @property
    def rows(self) -> list[list[int]]:
        """Every kernel row, in enumeration order (a new list on each call)."""
        return list(self.iter_rows())

    @property
    def solutions(self) -> Solutions:
        return Solutions(self)

    def counterexamples(self) -> list[dict]:
        """Each counterexample row as a dict.

        The keys are ``ROW_VARS`` plus ``"readings"``, which maps
        ``"pairwise"`` and ``"adjacent"`` to that reading's verdict.
        """
        if not (self.counterexamples_pairwise or self.counterexamples_adjacent):
            return []
        # Only an explicit entry, one row, can be a hit: a family row has a
        # zero a*alpha, b*beta or c*gamma, so it is trivial or fails div_ok,
        # and a row on a class entry's diagonal repeats a magnitude in d, e,
        # f, so its pairwise chain fails.
        return [
            dict(zip(ROW_VARS, entry), readings=_readings(report))
            for entry, code in self._stored()
            if (report := _REPORTS[code]).counterexample_pairwise or report.counterexample_adjacent
        ]

    def certificate(self) -> dict:
        return {
            "case": self.space.case,
            "bounds": {k: list(v) for k, v in sorted(self.space.bounds.items())},
            "signature": self.signature,
            "scanned": self.scanned,
            "total_assignments": self.total_assignments,
            "exhausted": self.exhausted,
            "shards": {"total": self.shards_total, "reused": self.shards_reused},
        }


def _square_block(alpha: int, beta: int, gamma: int, a: int, b: int, c: int) -> bool:
    """Whether a*alpha, b*beta and c*gamma are nonzero and -alpha*beta*gamma is a perfect square."""
    if not (a * alpha and b * beta and c * gamma):
        return False
    return exact_sqrt(-alpha * beta * gamma) is not None


def _written_rows(entry: list, fmt: int, free: tuple[range, ...]) -> list[list]:
    """The rows a format-``fmt`` record holds for class entry ``entry``, none where its
    diagonal is empty: the entry itself in format 3, ``_class_rows`` in format 2 and
    every row those stand for, sorted, in format 1."""
    if fmt == 3:
        return [entry] if _diagonal(free, _free_axes(entry)) else []
    rows = _class_rows(entry, free)
    if fmt == 2:
        return rows
    return sorted(
        [*row[:6], *point, *row[9:]]
        for row in rows
        for point in product(*[axis if v is None else (v,) for v, axis in zip(row[6:9], free)])
    )


def _load_existing_records(space: SearchSpace, signature: str) -> Iterator[tuple[int, dict]]:
    """Each checkpoint record that passes the resume's checks, as (shard, record).

    The records are read, checked and yielded one at a time, in file order;
    a shard may come more than once.  A record's blocks, box and order are
    checked per prefix, in the one walk that yields its rows as format 3
    entries, whatever its format.
    """
    path = space.checkpoint_path
    if path is None or not Path(path).exists():
        return
    box = space.kernel_ranges()
    def_ranges = tuple(box[6:])
    prefix = itemgetter(*map(ROW_VARS.index, space.enumerated_vars[:2]))
    for record in read_records(path):
        shard = record.get("shard")
        if record.get("signature") != signature:
            raise CheckpointError(
                f"checkpoint shard {shard!r} was written for a different search configuration"
            )
        if type(shard) is not int or not 0 <= shard < space.shards:
            raise CheckpointError(f"checkpoint shard {shard!r} is not in [0, {space.shards})")
        # As canonical JSON, true, 1.0 or "1" never passes for 1, nor a missing key.
        fmt = record.get("format")
        want = _record_header(space, shard, fmt if type(fmt) is int and fmt in (1, 2) else 3)
        if CANONICAL_JSON.encode({k: record.get(k) for k in want}) != CANONICAL_JSON.encode(want):
            raise CheckpointError(
                f"checkpoint shard {shard} does not hold format 1, 2 or 3, {space.shards} "
                f"shards, blocks {want['blocks']} and scanned {want['scanned']}"
            )
        # The log writes each row value into an integer slot, so a row must
        # hold exactly len(ROW_VARS) ints, but for nulls in d, e, f and p.
        rows = record.get("solutions")
        if not isinstance(rows, list):
            raise CheckpointError(f"checkpoint shard {shard} holds no row list")
        extra = sorted(set(record) - {*want, "solutions"})
        if extra:
            raise CheckpointError(
                f"checkpoint shard {shard} holds keys the search never writes: {extra}"
            )
        if not (
            set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {len(ROW_VARS)}
            and set(map(type, chain.from_iterable(rows))) <= {int, type(None)}
        ):
            raise CheckpointError(
                f"checkpoint shard {shard} holds a row that is not {len(ROW_VARS)} integers"
            )
        # A class entry's p is null; it is m**2 q, so q >= 0 is its whole sign
        # check.  A null q passes here, and the rule below refuses it.
        if min(((row[10] or 0, row[9] or 0) for row in rows), default=(0, 0)) < (0, 0):
            raise CheckpointError(
                f"checkpoint shard {shard} holds a row with q < 0, or with q = 0 and p < 0"
            )
        # The one rule of every format, in one walk of the prefixes: each head
        # lies in the shard's blocks and the box, after the previous head; a
        # square block's prefix holds explicit rows in the box, increasing
        # strictly, and any other prefix exactly its class entry's rows in the
        # record's format, kept as that entry (_diagonal's d, e, f are in the box).
        blocks = set(_prefix_blocks(space, *want["blocks"]))
        outside = f"checkpoint shard {shard} holds a row outside its blocks or the search box"
        disordered = f"checkpoint shard {shard} holds rows repeated or out of enumeration order"
        entries: list[list] = []
        last: tuple = ()
        for head, group in groupby(rows, _PREFIX):
            group = list(group)
            if None in head or group[0][10] is None:
                raise CheckpointError(
                    f"checkpoint shard {shard} holds a null outside the d, e, f and p slots"
                )
            if prefix(head) not in blocks or not all(map(contains, box, head)):
                raise CheckpointError(outside)
            if head <= last:
                raise CheckpointError(disordered)
            last = head
            if _square_block(*head):
                # A set test hashes each value, where ``None in`` would compare it.
                if not {None}.isdisjoint(chain.from_iterable(group)):
                    raise CheckpointError(
                        f"checkpoint shard {shard} holds a null in a square block"
                    )
                # A range of the box holds a column where it holds its ends.
                columns = [*zip(*group)][6:9]
                if not all(min(c) in r and max(c) in r for r, c in zip(def_ranges, columns)):
                    raise CheckpointError(outside)
                if not all(map(lt, group, group[1:])):
                    raise CheckpointError(disordered)
                entries += group
                continue
            entry = [*head, None, None, None, None, group[0][10]]
            if group != _written_rows(entry, fmt, def_ranges):
                raise CheckpointError(
                    f"checkpoint shard {shard} holds rows at {list(head)} that are not "
                    f"its class entry in format {fmt}"
                )
            entries.append(entry)
        record["solutions"] = entries
        yield shard, record


# Entries per piece of the spill: a walk holds one piece's entries at a time.
# The spill is private to the process that writes and reads it, so it holds
# marshal's format, which loads several times faster than JSON.
_ROWS_PER_PIECE = 256


def _count_rows(
    sid: int, entries: list[list], free: tuple[range, ...], rows_by_code: Counter
) -> array:
    """Count one shard's rows into ``rows_by_code``; return one code per entry.

    An explicit row is classified once per class of rows that share its
    coefficients, a, b, c, p, q, the squares of d, e and f and its chain
    flags: the system sees d, e and f only squared, and the chain flags are
    the only part of a report that reads their signs.  A class entry is
    classified at its first row and never expanded: its other rows differ
    from that row only in the chain flags (see the module docstring).  A
    class entry with a free axis is counted whole under that report, since
    the counts read only flags its rows share; a diagonal with no free axis
    is counted per ``_def_bits``, under the entry's code with those bits.
    """

    def code_of(row: list) -> int:
        code = _report_code(row)
        if not _REPORTS[code].satisfied:
            raise CheckpointError(f"checkpoint shard {sid} holds a row that fails the system")
        return code

    codes = array("H")
    classes: dict[tuple, int] = {}
    for entry in entries:
        if None not in entry:
            alpha, beta, gamma, a, b, c, d, e, f, p, q = entry
            key = (alpha, beta, gamma, a, b, c, d * d, e * e, f * f, p, q, *chain_flags(d, e, f))
            code = classes.get(key)
            if code is None:
                code = classes[key] = code_of(entry)
            codes.append(code)
            rows_by_code[code] += 1
            continue
        walk = _diagonal(free, _free_axes(entry))
        m, *fixed = walk[0]
        axes = [(v,) if v is not None else r for v, r in zip(fixed, free)]
        code = code_of([*entry[:6], *(axis[0] for axis in axes), m * m * entry[10], entry[10]])
        codes.append(code)
        if None in fixed:
            rows_by_code[code] += len(walk) * prod(map(len, axes))
            continue
        for bits, count in _diagonal_classes(free)[1].items():
            rows_by_code[code & ~_DEF_MASK | bits] += count
    return codes


def search(
    space: SearchSpace,
    *,
    workers: int = 1,
    on_shard_complete: ShardHook | None = None,
) -> SearchResult:
    """Run (or resume) the exhaustive search over the given space.

    Each shard's record is appended to the checkpoint the moment the shard
    completes, in completion order; with ``workers`` > 1 shards are scanned
    in a process pool, so a crash loses only the shards still running.
    ``on_shard_complete(shard_id, record)`` fires after a shard's record is
    durable; exceptions raised there abort the run without damaging the
    checkpoint.  Each record is counted and spilled to a private file, from
    which the result walks its rows: memory holds one shard's record.
    """
    # Imported here: only a search needs them.
    import tempfile
    import weakref

    at_least("workers", workers, 1)
    signature = space.signature()
    free = tuple(space.values_of(name) for name in "def")
    spill = tempfile.TemporaryFile()
    spans: dict[int, list[tuple[int, int]]] = {}  # shard -> its pieces' (offset, length)
    rows_by_code: Counter[int] = Counter()
    scanned = 0

    def keep(sid: int, record: dict) -> None:
        nonlocal scanned
        rows = record["solutions"]
        codes = _count_rows(sid, rows, free, rows_by_code)
        scanned += record["scanned"]
        spans[sid] = []
        for i in range(0, len(rows), _ROWS_PER_PIECE):
            piece = rows[i : i + _ROWS_PER_PIECE], codes[i : i + _ROWS_PER_PIECE].tobytes()
            spans[sid].append((spill.tell(), spill.write(marshal.dumps(piece))))

    def complete(sid: int, record: dict) -> None:
        if space.checkpoint_path:
            append_record(space.checkpoint_path, record)
        keep(sid, record)
        if on_shard_complete is not None:
            on_shard_complete(sid, record)

    try:
        for sid, record in _load_existing_records(space, signature):
            if sid not in spans:
                keep(sid, record)
        reused = len(spans)
        todo = [sid for sid in range(space.shards) if sid not in spans]
        if workers > 1 and len(todo) > 1:
            # Imported here: multiprocessing adds about 2.5 MB of RSS to every
            # process that imports it, and only a parallel run needs it.
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool

            try:
                # Fork starts every worker up front, so ask for no more than the shards.
                with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
                    futures = {pool.submit(_scan_shard, space, sid): sid for sid in todo}
                    try:
                        # A future is dropped once its record is kept, and its record with it.
                        for future in as_completed(futures):
                            complete(futures.pop(future), future.result())
                    except BaseException:
                        pool.shutdown(cancel_futures=True)
                        raise
            except BrokenProcessPool as exc:
                where = space.checkpoint_path
                raise BrokenProcessPool(
                    f"a search worker died; checkpoint {where!r} keeps every shard "
                    "completed so far, and the same search rerun resumes from it"
                    if where
                    else "a search worker died; with no checkpoint, a rerun scans every shard again"
                ) from exc
        else:
            for sid in todo:
                complete(sid, _scan_shard(space, sid))
    except BaseException:
        spill.close()
        raise

    def rows_where(flag: Callable[[ConditionReport], bool]) -> int:
        return sum(n for code, n in rows_by_code.items() if flag(_REPORTS[code]))

    total = space.total_assignments()
    result = SearchResult(
        space=space,
        signature=signature,
        spill=spill,
        # Shards cover consecutive runs of the prefix blocks and each shard's
        # entries are in enumeration order, so the shard-order walk is too.
        spans=list(chain.from_iterable(spans[sid] for sid in range(space.shards))),
        row_count=sum(rows_by_code.values()),
        counterexamples_pairwise=rows_where(attrgetter("counterexample_pairwise")),
        counterexamples_adjacent=rows_where(attrgetter("counterexample_adjacent")),
        adjacent_def_admissible=rows_where(attrgetter("admissible_with_adjacent_def")),
        trivial_solutions=rows_where(attrgetter("trivial")),
        scanned=scanned,
        total_assignments=total,
        exhausted=scanned == total,
        shards_total=space.shards,
        shards_reused=reused,
    )
    # The spill lives as long as the result; closed, it is gone from the disk.
    weakref.finalize(result, spill.close)
    return result


def __getattr__(name: str):
    # The log writer is its own module, loaded only where a log is written.
    if name != "write_result_log":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .resultlog import write_result_log

    return write_result_log
