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
row checks the system for every m.  A family row is trivial (a = 0) or
fails the divisibility condition (zero divides only zero), so it is never a
counterexample, and its report varies with its free values only through
the two readings of the chain d != e != f != 0: three classes, since the
pairwise reading implies the adjacent one.  So the search classifies one row per class
entry with a free axis and counts the whole class under its report, and
one row per chain class of the diagonal where no axis is free.  An explicit
row of a square block is classified once per class of rows that differ
only in the signs of d, e and f and share their chain flags.  A walk
expands each class entry, as it loads it, into the diagonal's explicit
rows and family entries; it classifies one family row per entry and class,
reading each row's class from one table over the box's (d, e) pairs.  The
result log binds one line per entry and class as a head and a tail, puts
each row's (d, e) text and f between them and writes 32 lines at a time.
Rows are expanded from the entries, in enumeration order, only when they
are walked.

The space is split into shards by a prefix of the enumeration order; each
completed shard appends one fsync'd record to the checkpoint file, so an
interrupted run resumes without rescanning, and a torn tail is cut from the
file.  A record, completed or resumed, is counted and then written to a
private spill file, and dropped; every walk loads the entries back from the
spill a piece at a time, in shard order.  So memory holds one shard's record
and two bytes per explicit row, whatever the size of the box, and a walk
never reads the checkpoint.  A resume trusts a record only if _scan_shard
could have written it: the header _record_header declares for its shard
and no other key, and strictly increasing rows of eleven integers in the
shard's blocks and the search box, each solving the system with q >= 0,
and p >= 0 where q = 0.  In format 3 a square block holds explicit rows
and any other prefix one class entry with a point on its diagonal; format
2 holds explicit rows and family entries, nulls exactly in the d, e, f
slots whose product is 0; format 1 holds explicit rows only.
"""

from __future__ import annotations

import hashlib
import marshal
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, groupby, islice, product
from math import isqrt, prod
from operator import attrgetter, itemgetter, lt
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    adjacent reading.  The verdicts come from one rule (``_report_code``):
    both counterexample verdicts read the d, e, f chain pairwise and differ
    in the coefficient chain's reading; ``admissible_with_adjacent_def``
    reads both chains adjacent-only, where the pairwise d, e, f chain fails,
    so alternative conventions can be re-counted offline.
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
# i-th field, so codes fit in 2**12, as a two-byte "H" array holds them.  Rows
# share these frozen objects, and a code costs two bytes where a reference
# costs eight.
_REPORTS: dict[int, ConditionReport] = {}
_CODES: dict[tuple[bool, ...], int] = {}


def _def_class(d: int, e: int, f: int) -> int:
    """0, 1 or 2: how many readings of the d, e, f chain hold (pairwise implies adjacent)."""
    pair, adj = chain_flags(d, e, f)
    return pair + adj


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

    # In ConditionReport's field order.  They decide the verdicts, so a report
    # is built, verdicts and all, once per distinct tuple of them.
    hypotheses = (satisfied, trivial, def_pair, def_adj, case_unit, gen_pair, gen_adj, div_ok, non_unit)
    code = _CODES.get(hypotheses)
    if code is None:
        # One rule gives all three verdicts: a satisfied, nontrivial row whose
        # d, e, f chain holds, in the unit case or meeting the general-case
        # conditions.  Each verdict reads the two chains its own way.
        general = div_ok and non_unit
        flags = hypotheses + tuple(
            satisfied and not trivial and def_ok and (case_unit or (gen_ok and general))
            for def_ok, gen_ok in (
                (def_pair, gen_pair),
                (def_pair, gen_adj),
                (def_adj and not def_pair, gen_adj),
            )
        )
        # Racing threads compute the same code and equal reports.
        code = sum(flag << bit for bit, flag in enumerate(flags))
        _REPORTS[code] = ConditionReport(*flags)
        _CODES[hypotheses] = code
    return code


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


def _prefix_blocks(space: SearchSpace) -> list[tuple[int, int]]:
    # Shard granularity: the first two coordinates of the enumeration order.
    first, second = space.enumerated_vars[:2]
    return [(i, j) for i in space.values_of(first) for j in space.values_of(second)]


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


@lru_cache(maxsize=2)
def _diagonal_classes(ranges: tuple[range, ...]) -> tuple[bytes, dict[int, tuple]]:
    """The ``_def_class`` of each point of the walk with no free axis, and each class's
    first point."""
    walk = _diagonal(ranges, (False, False, False))
    classes = bytes(_def_class(d, e, f) for _, d, e, f in walk)
    firsts: dict[int, tuple] = {}
    for cls, point in zip(classes, walk):
        firsts.setdefault(cls, point)
    return classes, firsts


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
    for i, j in _prefix_blocks(space)[start:stop]:
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


def _groups(entries: Iterable[list]) -> Iterator[list[list]]:
    """The entries in runs sharing (alpha, beta, gamma, a, b, c), in enumeration order.

    The prefix fixes which of d, e, f are free, so a run is either explicit
    rows only or family entries only.
    """
    for _, group in groupby(entries, _PREFIX):
        yield list(group)


def _pair_table(free: list[range]) -> dict[int, dict[int, tuple]]:
    """Each (d, e) pair of the box, as ``table[d][e] = (record, classes)``.

    ``record`` is ``(d, e, text)``, where ``text`` is the pair's stretch of a
    log line, from d's value up to f's: the log's keys are sorted, so d, e
    and f are neighbours in every line.  ``classes[i]`` is the pair's
    ``_def_class`` at the i-th value of f's range.
    """
    d_range, e_range, f_range = free
    return {
        d: {
            e: ((d, e, f'{d},"e":{e},"f":'), bytes(_def_class(d, e, f) for f in f_range))
            for e in e_range
        }
        for d in d_range
    }


def _family_rows(group: list[list], free: list[range], codes: list, table: dict) -> Iterator[tuple]:
    """The rows of a family group in enumeration order, as (entry, pair, f, code slot).

    A ``None`` in the d, e or f slot stands for every value of that
    variable's range in ``free``.  The group's entries share their None
    slots, so the group is walked d -> e -> f, a free slot over its whole
    range; no sort is needed.  ``pair`` is the row's (d, e) record from
    ``_pair_table``'s ``table``, which also gives each row's ``_def_class``.
    ``codes`` has three slots per entry, in entry order, one per class: a
    row's slot is its entry's first plus its class, filled from the row
    itself the first time the slot is met.
    """
    # slot value (None when free) -> next slot's tree; f's leaves hold the
    # entry and where its codes start.
    tree: dict = {}
    for k, entry in enumerate(group):
        d_key, e_key, f_key = entry[6:9]
        tree.setdefault(d_key, {}).setdefault(e_key, {})[f_key] = entry, 3 * k
    d_free, e_free, f_free = free
    for d_key, e_tree in tree.items():
        for d in d_free if d_key is None else (d_key,):
            pairs = table[d]
            for e_key, f_tree in e_tree.items():
                for e in e_free if e_key is None else (e_key,):
                    pair, classes = pairs[e]
                    for f_key, (entry, first) in f_tree.items():
                        if f_key is None:
                            cells = zip(f_free, classes)
                        else:
                            cells = ((f_key, classes[f_key - f_free.start]),)
                        for f, cls in cells:
                            k = first + cls
                            if codes[k] is None:
                                codes[k] = _report_code([*entry[:6], d, e, f, *entry[9:]])
                            yield entry, pair, f, k


class Solutions:
    """``(ConjectureInstance, ConditionReport)`` pairs in key order, built on demand."""

    def __init__(self, result: "SearchResult") -> None:
        self._result = result

    def __len__(self) -> int:
        return self._result.row_count

    def __iter__(self) -> Iterator[tuple[ConjectureInstance, ConditionReport]]:
        for codes, run, rows in self._result._walk():
            if rows is None:
                for entry, code in zip(run, codes):
                    yield ConjectureInstance(*entry), _REPORTS[code]
                continue
            for entry, (d, e, _), f, k in rows:
                yield ConjectureInstance(*entry[:6], d, e, f, *entry[9:]), _REPORTS[codes[k]]


@dataclass
class SearchResult:
    """Merged outcome of all shards: where their records lie and the counts of their rows.

    Each shard's record was counted when it completed, and its entries went
    to ``spill``, a private unlinked file, in pieces of ``_ROWS_PER_PIECE``
    entries; ``spans`` gives each piece's ``(offset, length)`` there, in
    enumeration order.  A walk loads one piece at a time, so memory never
    holds the box's entries.  Reports are kept as two-byte codes, never per
    family row: ``explicit_codes`` holds the code of each entry without a
    free slot that ``iter_entries`` yields, in enumeration order, the rows of
    class entries' diagonals included.  A family entry's codes are found
    again on each walk.
    """

    space: SearchSpace
    signature: str
    spill: BinaryIO
    spans: list[tuple[int, int]]
    explicit_codes: array
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

    def iter_entries(self) -> Iterator[list]:
        """The entries in enumeration order, loaded from the spill a piece at a time.

        Each is an explicit row of eleven integers or a family entry, None in
        its free d, e or f slots, as format 2 holds them.  A class entry of a
        format-3 record is expanded here, as its piece is walked, into the
        signed diagonal of its fixed axes, one entry per point, p = m**2 q.
        """
        ranges = tuple(self.space.values_of(name) for name in "def")
        for offset, length in self.spans:
            self.spill.seek(offset)
            for entry in marshal.loads(self.spill.read(length)):
                if entry[9] is not None:
                    yield entry
                    continue
                head, q = entry[:6], entry[10]
                for m, d, e, f in _diagonal(ranges, _free_axes(entry)):
                    yield [*head, d, e, f, m * m * q, q]

    def _walk(self) -> Iterator[tuple[Sequence, list[list] | None, Iterator[tuple] | None]]:
        """Each run of entries sharing (alpha, beta, gamma, a, b, c), in enumeration order.

        A run comes as ``(codes, run, rows)``.  An explicit run is its
        entries, each one row, with ``codes[i]`` the report code of
        ``run[i]``, and ``rows`` None.  A family run comes with ``run`` None
        and a lazy walk of its rows in enumeration order, each as (entry,
        (d, e, text), f, k): the row is the entry with d, e and f in their
        slots, ``codes[k]`` is its report code once the row is walked, and
        the rows that share a k share their entry and code.  (d, e, text) is
        the row's pair record in one ``_pair_table``, built when the first
        family run is met.
        """
        free = [self.space.values_of(name) for name in "def"]
        table = None
        explicit = 0
        for group in _groups(self.iter_entries()):
            if None not in group[0]:
                codes = self.explicit_codes[explicit : explicit + len(group)]
                explicit += len(group)
                yield codes, group, None
            else:
                if table is None:
                    table = _pair_table(free)
                codes = [None] * (3 * len(group))
                yield codes, None, _family_rows(group, free, codes, table)

    def iter_rows(self) -> Iterator[list[int]]:
        """The kernel rows in enumeration order, expanded from the entries as they go."""
        for _, run, rows in self._walk():
            if rows is None:
                yield from run
                continue
            for entry, (d, e, _), f, _ in rows:
                yield [*entry[:6], d, e, f, *entry[9:]]

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
        # A family row has a zero a*alpha, b*beta or c*gamma: it is trivial
        # or fails div_ok, so never a counterexample.  Only the explicit
        # entries, each one row, are read.
        hits = {
            code
            for code, report in list(_REPORTS.items())
            if report.counterexample_pairwise or report.counterexample_adjacent
        }
        explicit = (entry for entry in self.iter_entries() if None not in entry)
        return [
            dict(zip(ROW_VARS, entry), readings=_readings(_REPORTS[code]))
            for entry, code in zip(explicit, self.explicit_codes)
            if code in hits
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


def _free_slots_match(row: list) -> bool:
    """Whether a format-2 entry's nulls are exactly its zero-product d, e, f slots."""
    if None in (*row[:6], *row[9:]):
        return False
    return tuple(v is None for v in row[6:9]) == _free_axes(row)


def _square_block(alpha: int, beta: int, gamma: int, a: int, b: int, c: int) -> bool:
    """Whether a*alpha, b*beta and c*gamma are nonzero and -alpha*beta*gamma is a perfect square."""
    if not (a * alpha and b * beta and c * gamma):
        return False
    return exact_sqrt(-alpha * beta * gamma) is not None


def _format_three_fault(rows: list[list], def_ranges: tuple[range, ...]) -> str | None:
    """What in a format-3 record's ``rows`` ``_scan_shard`` never writes, or None.

    A prefix in a square block holds explicit rows; any other prefix holds
    one class entry, null in d, e, f and p, whose diagonal has a point.
    """
    explicit = {tuple(row[:6]) for row in rows if None not in row}
    if not all(_square_block(*prefix) for prefix in explicit):
        return "an explicit row outside a square block"
    for row in rows:
        if None not in row:
            continue
        if row[6:10] != [None] * 4 or None in row[:6] or row[10] is None:
            return "a class entry with a value in its d, e, f or p slot, or a null outside them"
        if _square_block(*row[:6]):
            return "a class entry inside a square block"
        if not _diagonal(def_ranges, _free_axes(row)):
            return "a class entry whose diagonal is empty"
    return None
def _load_existing_records(space: SearchSpace, signature: str) -> Iterator[tuple[int, dict]]:
    """Each checkpoint record ``_scan_shard`` could write, as (shard, record).

    The records are read, checked and yielded one at a time, in file order;
    a shard may come more than once.
    """
    path = space.checkpoint_path
    if path is None or not Path(path).exists():
        return
    blocks = _prefix_blocks(space)
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
        # hold exactly len(ROW_VARS) ints; formats 2 and 3 may leave slots null.
        rows = record.get("solutions")
        if not isinstance(rows, list):
            raise CheckpointError(f"checkpoint shard {shard} holds no row list")
        extra = sorted(set(record) - {*want, "solutions"})
        if extra:
            raise CheckpointError(
                f"checkpoint shard {shard} holds keys the search never writes: {extra}"
            )
        slot_types = {int} if fmt == 1 else {int, type(None)}
        if not (
            set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {len(ROW_VARS)}
            and set(map(type, chain.from_iterable(rows))) <= slot_types
        ):
            raise CheckpointError(
                f"checkpoint shard {shard} holds a row that is not {len(ROW_VARS)} integers"
            )
        if fmt == 2 and not all(map(_free_slots_match, rows)):
            raise CheckpointError(
                f"checkpoint shard {shard} holds a null outside the d, e, f slots "
                "whose product is 0, or a value inside one"
            )
        if fmt == 3 and (fault := _format_three_fault(rows, def_ranges)):
            raise CheckpointError(f"checkpoint shard {shard} holds {fault}")
        # Checked on the distinct prefixes and each column's distinct values,
        # so a resume that reads every entry pays little for it.
        if not (
            set(map(prefix, rows)) <= set(blocks[slice(*want["blocks"])])
            and all(
                value in axis
                for i, axis in enumerate(box)
                for value in set(map(itemgetter(i), rows)) - {None}
            )
        ):
            raise CheckpointError(
                f"checkpoint shard {shard} holds a row outside its blocks or the search box"
            )
        # A class entry's p is null; it is m**2 q, so q >= 0 is its whole sign check.
        if min(((row[10], row[9] or 0) for row in rows), default=(0, 0)) < (0, 0):
            raise CheckpointError(
                f"checkpoint shard {shard} holds a row with q < 0, or with q = 0 and p < 0"
            )
        # The walk and the log take each record's rows as strictly increasing,
        # so a prefix holds one class entry.  Rows of one prefix share their
        # nulls, so None meets only None here.
        if not all(map(lt, rows, rows[1:])):
            raise CheckpointError(
                f"checkpoint shard {shard} holds rows repeated or out of enumeration order"
            )
        yield shard, record


# Entries per piece of the spill: a walk holds one piece's entries at a time.
# The spill is private to the process that writes and reads it, so it holds
# marshal's format, which loads several times faster than JSON.
_ROWS_PER_PIECE = 256


def _count_rows(
    sid: int, entries: list[list], free: tuple[range, ...], rows_by_code: Counter
) -> array:
    """Count one shard's rows into ``rows_by_code``; return its explicit rows' codes.

    An explicit row is classified once per class of rows that share its
    coefficients, a, b, c, p, q, the squares of d, e and f and its chain
    flags: the system sees d, e and f only squared, and the chain flags are
    the only part of a report that reads their signs.  A family entry is
    classified at its first row and counted whole under that report: its
    free variables drop out of all three equations, its rows differ only in
    the d, e, f chain flags, and they are all trivial or fail div_ok, so
    ``satisfied`` and the flags the counts read are the same for every row.

    A class entry is counted from its diagonal's walk, never expanded.  On
    the diagonal |.| = m of its fixed axes the right-hand sides are first,
    m**2 first and m**4 first, and p = m**2 q, so the system holds at every
    m where it holds at one: each classified row checks it for them all.
    With a free axis the walk's points are family entries sharing their
    counted flags, so the class is classified once and counted whole.  With
    none its rows are explicit, and each takes the code of its _def_class's
    first row on the walk, since m changes no flag: p = 0 with q = 0 for
    every m or for none.
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
            continue
        points = 1
        if entry[9] is None:
            head, q = entry[:6], entry[10]
            free_axes = _free_axes(entry)
            if not any(free_axes):
                cells, firsts = _diagonal_classes(free)
                by_class = {
                    cls: code_of([*head, d, e, f, m * m * q, q])
                    for cls, (m, d, e, f) in firsts.items()
                }
                codes.extend(map(by_class.__getitem__, cells))
                continue
            walk = _diagonal(free, free_axes)
            (m, *fixed), points = walk[0], len(walk)
            entry = [*head, *fixed, m * m * q, q]
        axes = [(v,) if v is not None else r for v, r in zip(entry[6:9], free)]
        code = code_of([*entry[:6], *(axis[0] for axis in axes), *entry[9:]])
        rows_by_code[code] += points * prod(map(len, axes))
    rows_by_code.update(codes)
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
    checkpoint.

    A record, completed or resumed, has its rows counted and then written,
    a few hundred at a time, to a private, unlinked spill file, and is
    dropped.  The result walks the rows again from the spill, a piece at a
    time in shard order, and never reads the checkpoint again: memory holds
    one shard's record and two bytes per explicit row, whatever the size of
    the box.
    """
    # Imported here: only a search needs them.
    import tempfile
    import weakref

    at_least("workers", workers, 1)
    signature = space.signature()
    free = tuple(space.values_of(name) for name in "def")
    spill = tempfile.TemporaryFile()
    spans: dict[int, list[tuple[int, int]]] = {}  # shard -> its pieces' (offset, length)
    shard_codes: dict[int, array] = {}
    rows_by_code: Counter[int] = Counter()
    scanned = 0

    def keep(sid: int, record: dict) -> None:
        nonlocal scanned
        rows = record["solutions"]
        shard_codes[sid] = _count_rows(sid, rows, free, rows_by_code)
        scanned += record["scanned"]
        spans[sid] = [
            (spill.tell(), spill.write(marshal.dumps(rows[i : i + _ROWS_PER_PIECE])))
            for i in range(0, len(rows), _ROWS_PER_PIECE)
        ]

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

    # Shards cover consecutive runs of the prefix blocks and each shard's
    # entries are in enumeration order, so the shard-order walk is too.
    explicit_codes = array("H")
    for sid in range(space.shards):
        explicit_codes += shard_codes.pop(sid)

    def rows_where(flag: Callable[[ConditionReport], bool]) -> int:
        return sum(n for code, n in rows_by_code.items() if flag(_REPORTS[code]))

    total = space.total_assignments()
    result = SearchResult(
        space=space,
        signature=signature,
        spill=spill,
        spans=list(chain.from_iterable(spans[sid] for sid in range(space.shards))),
        explicit_codes=explicit_codes,
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


def _flag_fields(report: ConditionReport) -> dict:
    """The result-log fields that depend only on a row's report."""
    return {
        "conditions": report.as_dict(),
        "counterexample": _readings(report),
        "adjacent_def_admissible": report.admissible_with_adjacent_def,
        "trivial": report.trivial,
    }


# The d, e, f slots left open when a family entry's line is bound.
_DEF_OPEN = ["%d"] * 3
# Lines joined into each write of the result log.
_LINES_PER_WRITE = 32


def _line_template(report: ConditionReport) -> tuple[str, Callable[[Sequence], tuple]]:
    """The log line of ``report``'s rows as a ``%`` template and its row picker.

    ``template % pick(row)`` is the line ``CANONICAL_JSON`` writes for the
    object of ``row``'s variables plus ``_flag_fields(report)``: the flag
    values are encoded once, and each row variable is a ``%s`` slot.  A row
    holding ``"%d"`` in a slot leaves that slot open: that is how a family
    entry's line is bound with d, e and f still to fill.
    """
    flags = _flag_fields(report)
    keys = sorted(ROW_VARS + tuple(flags))
    encode = CANONICAL_JSON.encode
    parts = [
        f"{encode(key)}:%s" if key in ROW_VARS
        else f"{encode(key)}:{encode(flags[key]).replace('%', '%%')}"
        for key in keys
    ]
    pick = itemgetter(*(ROW_VARS.index(key) for key in keys if key in ROW_VARS))
    return "{" + ",".join(parts) + "}\n", pick


def write_result_log(result: SearchResult, path: str | Path) -> None:
    """Write the normalized result log: one canonical JSON object per solution.

    An explicit row fills its report's template.  A family entry's line is
    bound once per report, with d, e and f left open, as the head before
    d's value and the tail after f's; each of its rows is the head, its
    (d, e) pair's text, its f and the tail, so only f is formatted per row.
    The lines go to the file ``_LINES_PER_WRITE`` at a time.  The bound
    lines of a run of entries are dropped when the run ends, so memory holds
    one piece of the spill, one run's bound lines, one (d, e) table, one
    write's lines and the file's buffer, however many rows there are.
    """
    templates: dict[int, tuple] = {}  # report code -> its line template and picker

    def fill(code: int, row: Sequence) -> str:
        entry = templates.get(code)
        if entry is None:
            entry = templates[code] = _line_template(_REPORTS[code])
        return entry[0] % entry[1](row)

    def lines() -> Iterator[str]:
        for codes, run, rows in result._walk():
            if rows is None:
                for entry, code in zip(run, codes):
                    yield fill(code, entry)
                continue
            # Each code slot's line as its head and tail.
            bound: list[tuple[str, str] | None] = [None] * len(codes)
            for entry, (_, _, text), f, k in rows:
                parts = bound[k]
                if parts is None:
                    head, _, _, tail = fill(codes[k], entry[:6] + _DEF_OPEN + entry[9:]).split("%d")
                    parts = bound[k] = head, tail
                yield f"{parts[0]}{text}{f}{parts[1]}"

    with open(path, "w", encoding="utf-8") as handle:
        chunks = lines()
        for chunk in iter(lambda: "".join(islice(chunks, _LINES_PER_WRITE)), ""):
            handle.write(chunk)
