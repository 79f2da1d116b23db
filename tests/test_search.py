"""Bounded conjecture search: kernel, sharding, checkpointing, oracle parity."""

import concurrent.futures
import dataclasses
import hashlib
import json
import re
import types
import time
import tracemalloc
from itertools import islice, product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltaudit.checkpoint import CheckpointError, append_record, read_records
from fltaudit.ints import exact_sqrt
from fltaudit.poly import X, Y, Z
import fltaudit.search as search_module
from fltaudit.search import (
    COEFF_VARS,
    ROW_VARS,
    ConditionReport,
    ConjectureInstance,
    SearchSpace,
    check_conditions,
    classify_row,
    search,
    system_values,
    write_result_log,
)
from fltaudit.search import _DEF_OPEN, _def_class, _diagonal, _kernel, _line_template
from fltaudit.search import _pair_table
from fltaudit.search import _sign_classes
from fltaudit.search import _scan_shard as real_scan_shard

from checkpoints import dying_scan, read_all
from oracles import (
    _oracle_kernel,
    naive_unit_scan,
    oracle_conditions,
    oracle_expand,
    oracle_format_two_record,
    oracle_log_line,
    oracle_result_log,
    oracle_scan_shard,
)


def unit_instance(a, b, c, d, e, f, p, q):
    return ConjectureInstance(
        a=a, b=b, c=c, d=d, e=e, f=f, alpha=1, beta=1, gamma=1, p=p, q=q
    )


class TestCheckInstance:
    def test_degenerate_true(self):
        # q^2 = 1, pq = (1*2)^2 = 4, p^2 = (1*4)^2 = 16.
        assert check_conditions(unit_instance(1, 0, 0, 2, 1, 1, p=4, q=1)).satisfied

    def test_all_zero_true(self):
        assert check_conditions(unit_instance(0, 0, 0, 0, 0, 0, p=0, q=0)).satisfied

    def test_negative_first_rhs_false(self):
        assert not check_conditions(unit_instance(1, 1, 1, 1, 2, 3, p=1, q=1)).satisfied

    def test_system_values(self):
        assert system_values(1, 0, 0, 2, 1, 1, 1, 1, 1) == (1, 4, 16)

    def test_triviality(self):
        assert check_conditions(unit_instance(1, 0, 0, 2, 1, 1, p=4, q=1)).trivial
        assert check_conditions(unit_instance(0, 0, 0, 0, 0, 0, p=0, q=0)).trivial
        assert check_conditions(unit_instance(3, 2, 2, 1, -1, 1, p=0, q=0)).trivial
        assert not check_conditions(unit_instance(3, 2, 2, 1, -1, 1, p=1, q=1)).trivial


class TestCheckConditions:
    def test_repeated_def_values_rejected(self):
        report = check_conditions(unit_instance(1, 0, 0, 2, 1, 1, p=4, q=1))
        assert report.satisfied
        assert not report.def_distinct_nonzero  # e == f
        assert not report.counterexample_pairwise

    def test_unit_flag(self):
        report = check_conditions(unit_instance(1, 0, 0, 2, 1, 1, p=4, q=1))
        assert report.case_unit

    def test_general_distinct_magnitudes(self):
        inst = ConjectureInstance(
            a=-1, b=5, c=4, d=6, e=-2, f=-4, alpha=2, beta=6, gamma=3, p=0, q=0
        )
        report = check_conditions(inst)
        assert report.case_general_distinct
        assert not report.case_unit

    def test_adjacent_only_solution_is_not_a_counterexample(self):
        # Satisfies all equations with d = f, so the pairwise chain fails
        # while the adjacent chain holds: logged, counted separately, but
        # not a counterexample under either per-reading verdict.
        inst = unit_instance(3, 2, 2, 1, -1, 1, p=1, q=1)
        report = check_conditions(inst)
        assert report.satisfied and not report.trivial
        assert not report.def_distinct_nonzero
        assert report.def_distinct_nonzero_adjacent
        assert not report.counterexample_pairwise
        assert not report.counterexample_adjacent
        assert report.admissible_with_adjacent_def


class TestRowLayout:
    def test_fltaudit_search_is_the_module(self):
        assert isinstance(search_module, types.ModuleType)

    def test_instance_fields_follow_row_layout(self):
        assert ConjectureInstance._fields == ROW_VARS
        row = (2, 6, 3, -1, 5, 4, 6, -2, -4, 7, 8)
        inst = ConjectureInstance(*row)
        assert inst.key() == row and type(inst.key()) is tuple
        assert [getattr(inst, name) for name in ROW_VARS] == list(row)

    def test_instance_is_its_row(self):
        # A NamedTuple: it compares equal to its row tuple and iterates over it.
        row = (2, 6, 3, -1, 5, 4, 6, -2, -4, 7, 8)
        inst = ConjectureInstance(*row)
        assert inst == row and tuple(inst) == row and list(inst) == list(row)
        assert ConjectureInstance(*inst.key()) == inst
        assert inst != ConjectureInstance(*row[:-1], 9)

    def test_instance_is_immutable(self):
        inst = unit_instance(3, 2, 2, 1, -1, 1, p=1, q=1)
        with pytest.raises(AttributeError):
            inst.q = 2
        with pytest.raises(TypeError):
            inst[10] = 2
        assert inst.q == 1

    def test_instance_is_hashable(self):
        inst = unit_instance(3, 2, 2, 1, -1, 1, p=1, q=1)
        twin = ConjectureInstance(*inst.key())
        assert hash(inst) == hash(twin) == hash(inst.key())
        assert {inst: "x"}[twin] == "x" and len({inst, twin}) == 1

    @pytest.mark.parametrize(
        "row",
        [
            (1, 1, 1, 3, 2, 2, 1, -1, 1, 1, 1),
            (1, 1, 1, 1, 0, 0, 2, 1, 1, 4, 1),
            (2, 6, 3, -1, 5, 4, 6, -2, -4, 7, 8),
            (-2, 1, -1, 2, 1, 2, 3, 1, 2, 7, 1),
        ],
    )
    def test_check_conditions_reads_the_row(self, row):
        inst = ConjectureInstance(*row)
        assert check_conditions(inst) is classify_row(list(row))
        assert flags_of(check_conditions(inst)) == oracle_conditions(row)

    def test_row_of_non_ints_rejected(self):
        # No float decides a verdict: this row would classify as satisfied.
        row = (1.0, 1, 1, 1, 0, 0, 2, 1, 1, 4, 1)
        with pytest.raises(ValueError):
            classify_row(list(row))
        with pytest.raises(ValueError):
            check_conditions(ConjectureInstance(*row))
        with pytest.raises(ValueError):
            classify_row(row[:-1])


class TestSearchSpace:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace.cube(3, -3)

    def test_missing_bounds_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(bounds={"a": (-1, 1)})

    def test_unexpected_keys_rejected(self):
        bounds = {name: (-1, 1) for name in ("a", "b", "c", "d", "e", "f", "alpha")}
        with pytest.raises(ValueError):
            SearchSpace(bounds=bounds, case="unit")

    def test_bad_shards_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace.cube(-1, 1, shards=0)
        # Nor a worker count that is not an int >= 1: 1.5 would reach the pool.
        for workers in (0, 1.5):
            with pytest.raises(ValueError):
                search(SearchSpace.cube(-1, 1, shards=3), workers=workers)

    def test_empty_checkpoint_path_rejected(self):
        # search() tests the path for truth and the resume tests it against
        # None, so "" would reach the resume's read as a file name.
        with pytest.raises(ValueError, match="checkpoint path must not be empty"):
            SearchSpace.cube(-1, 1, checkpoint_path="")

    def test_signature_depends_on_config(self):
        one = SearchSpace.cube(-2, 2).signature()
        assert one == SearchSpace.cube(-2, 2).signature()
        assert one != SearchSpace.cube(-3, 3).signature()
        assert one != SearchSpace.cube(-2, 2, shards=2).signature()

    def test_total_assignments(self):
        assert SearchSpace.cube(-2, 2).total_assignments() == 5**6
        assert SearchSpace.cube(-1, 1, case="general").total_assignments() == 3**9

    @pytest.mark.parametrize(
        "space",
        [
            dict(bounds={name: (False, True) for name in "abcdef"}),
            dict(bounds={**{name: (0, 1) for name in "abcde"}, "f": (0, True)}),
            dict(bounds={name: (0, 1) for name in "abcdef"}, shards=True),
        ],
    )
    def test_bool_bounds_and_shards_rejected(self, space):
        # (False, True) is the box of cube(0, 1), under another signature.
        with pytest.raises(ValueError):
            SearchSpace(**space)

    @pytest.mark.parametrize("bound", [5, None, (1, 2, 3)])
    def test_bound_that_is_not_a_pair_rejected(self, bound):
        bounds = {**{name: (0, 1) for name in "abcef"}, "d": bound}
        with pytest.raises(ValueError, match="bounds for 'd' must be a"):
            SearchSpace(bounds=bounds)


class TestSearchAgainstOracle:
    def test_matches_naive_scan_on_small_box(self):
        result = search(SearchSpace.cube(-1, 1))
        expected = naive_unit_scan(-1, 1)
        got = {inst.key() for inst, _ in result.solutions}
        assert got == expected

    def test_canonical_sign_convention(self):
        result = search(SearchSpace.cube(-2, 2))
        for inst, _ in result.solutions:
            assert inst.q >= 0
            if inst.q == 0:
                assert inst.p >= 0

    def test_solutions_satisfy_equations(self):
        result = search(SearchSpace.cube(-2, 2))
        assert result.solutions
        for inst, report in result.solutions:
            assert check_conditions(inst).satisfied
            assert report.satisfied

    def test_exhaustion_certificate(self):
        result = search(SearchSpace.cube(-2, 2, shards=3))
        assert result.exhausted
        assert result.scanned == result.total_assignments == 5**6
        cert = result.certificate()
        assert cert["exhausted"] and cert["shards"]["total"] == 3

    def test_known_solution_found_but_not_counterexample(self):
        result = search(SearchSpace.cube(-2, 2))
        keys = {inst.key() for inst, _ in result.solutions}
        assert (1, 1, 1, 1, 0, 0, 2, 1, 1, 4, 1) in keys
        report = check_conditions(unit_instance(1, 0, 0, 2, 1, 1, p=4, q=1))
        assert not report.counterexample_pairwise and not report.counterexample_adjacent


def assert_records_match_oracle(space):
    """Every shard record equals the pre-quotient scan's but for its format
    and its entries, and the entries expand to the scan's rows, row order
    included, both by the oracle's expansion and by the search's."""
    rows = []
    def_values = [space.values_of(name) for name in "def"]
    for shard_id in range(space.shards):
        got = real_scan_shard(space, shard_id)
        want = oracle_scan_shard(space, shard_id)
        assert (got.pop("format"), want.pop("format")) == (3, 1)
        shard_rows = want.pop("solutions")
        assert oracle_expand(got.pop("solutions"), def_values) == shard_rows
        rows += shard_rows
        assert got == want
    assert search(space).rows == rows


class TestSignQuotientAgainstOracle:
    @pytest.mark.parametrize("shards", [1, 4, 49])
    def test_unit_box(self, shards):
        assert_records_match_oracle(SearchSpace.cube(-3, 3, shards=shards))

    def test_general_box(self):
        assert_records_match_oracle(SearchSpace.cube(-2, 2, case="general", shards=3))

    def test_orthant(self):
        bounds = {**{name: (1, 14) for name in "abc"}, **{name: (-5, 5) for name in "def"}}
        assert_records_match_oracle(SearchSpace(bounds=bounds, shards=14))

    @pytest.mark.parametrize("low, high", [(-5, -2), (0, 3), (-1, 6)])
    def test_one_signed_and_lopsided_ranges(self, low, high):
        assert_records_match_oracle(SearchSpace.cube(low, high, shards=3))

    def test_general_families_with_nontrivial_rows(self):
        # alpha = 0 frees d for every a; beta, gamma < 0 make room for
        # a, b, c all nonzero, so some of d's families hold nontrivial rows.
        bounds = {
            "alpha": (0, 0),
            "beta": (-2, 1),
            "gamma": (-2, 1),
            **{name: (-3, 3) for name in "abcdef"},
        }
        space = SearchSpace(bounds=bounds, case="general", shards=3)
        assert_records_match_oracle(space)
        assert any(
            row[6] is None and row[3] * row[4] * row[5] and (row[9], row[10]) != (0, 0)
            for row in search(space).iter_entries()
        )

    def test_mixed_general_ranges(self):
        bounds = {
            "alpha": (-2, 1),
            "beta": (0, 2),
            "gamma": (-1, 2),
            "a": (-3, 2),
            "b": (-2, 3),
            "c": (-3, 1),
            "d": (-1, 3),
            "e": (-3, -1),
            "f": (0, 2),
        }
        assert_records_match_oracle(SearchSpace(bounds=bounds, case="general", shards=4))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(sorted),
            min_size=6,
            max_size=6,
        ),
        st.integers(1, 5),
    )
    def test_random_unit_bounds(self, ranges, shards):
        bounds = {name: tuple(pair) for name, pair in zip("abcdef", ranges)}
        assert_records_match_oracle(SearchSpace(bounds=bounds, shards=shards))

    @pytest.mark.parametrize(
        "bounds",
        [
            # Negative gamma, with d, e, f wider than a, b, c, so the kernel
            # solves for f**2: every branch of the solve is taken.
            {
                "alpha": (1, 2),
                "beta": (-2, 2),
                "gamma": (-3, -1),
                **{name: (1, 3) for name in "abc"},
                **{name: (-6, 6) for name in "def"},
            },
            {
                "alpha": (-2, 2),
                "beta": (-2, 2),
                "gamma": (-3, -1),
                **{name: (-2, -1) for name in "abc"},
                **{name: (-5, 5) for name in "def"},
            },
            {
                "alpha": (-2, 1),
                "beta": (-1, 2),
                "gamma": (-2, -1),
                "a": (-2, 2),
                "b": (1, 2),
                "c": (-2, 1),
                "d": (-4, 6),
                "e": (-6, 3),
                "f": (-5, 5),
            },
        ],
    )
    def test_general_negative_gamma_wide_def(self, bounds):
        assert_records_match_oracle(SearchSpace(bounds=bounds, case="general", shards=4))

    @pytest.mark.parametrize(
        "bounds",
        [
            {name: (-3, 3) for name in "abcdef"},
            {**{name: (1, 9) for name in "abc"}, **{name: (-4, 2) for name in "def"}},
        ],
    )
    def test_scanned_counts_signed_assignments(self, bounds):
        result = search(SearchSpace(bounds=bounds, shards=4))
        assert result.rows
        assert result.scanned == result.total_assignments
        assert result.certificate()["scanned"] == result.total_assignments


def run_kernel(alpha, beta, gamma, a, b, c_values, def_values, scan=True):
    """One ``_kernel`` call's entries; with ``scan`` False, the (|d|, |e|)
    scan of a square block sees no d, e or f classes and finds nothing."""
    c_table, *tables = (_sign_classes(values) for values in (c_values, *[def_values] * 3))
    if not scan:
        tables = [([], [])] * 3
    f_squares = {f_class[1]: f_class for f_class in tables[2][0]}
    got = []
    _kernel(alpha, beta, gamma, a, b, c_table, tables, f_squares, (def_values,) * 3, got)
    return got


def expand(entries, def_values):
    """The rows of kernel entries in their order, by the oracle's expansion:
    a class entry stands for its diagonal, every value in ``def_values``
    on its free axes."""
    return oracle_expand(entries, [def_values] * 3)


def kernel_against_loop(alpha, beta, gamma, a, b, c_values, def_values):
    """The rows of one ``_kernel`` call's entries, and the rows of the plain
    loop over every signed c, d, e, f with the same fixed values, in key order."""
    got = run_kernel(alpha, beta, gamma, a, b, c_values, def_values)
    powers = [(v, v * v, v**4) for v in def_values]
    want = []
    _oracle_kernel(alpha, beta, gamma, a, b, c_values, powers, powers, powers, want)
    return expand(got, def_values), sorted(want)


def solve_branch(row):
    """Which way the kernel finds a row: on the diagonal outside a square
    block, and inside one on the form's two lines, on its one line where
    C = w3 (w1 + w2) is 0, or by the loop over every f where x = C = 0."""
    alpha, beta, gamma, a, b, c, d, e, f, p, q = row
    w1, w2, w3 = a * a * alpha, -b * b * beta, -c * c * gamma
    if not (w1 and w2 and w3) or exact_sqrt(-alpha * beta * gamma) is None:
        return "diagonal"
    if w3 * (w1 + w2):
        return "two lines"
    return "one line" if d * d != e * e else "loop"


BRANCH_CASES = [
    # q = 0 in a square block: -alpha*beta*gamma = 9 and
    # 2**2 * -3 + 1**2 * 3 + 3**2 * 1 = 0, so the two lines coincide.
    ((-3, -3, -1, 2, 1), range(3, 4), "two lines"),
    # -alpha*beta*gamma = 4 and 1 are squares: two lines per (|d|, |e|).
    ((1, 2, -2, 3, 1), range(1, 4), "two lines"),
    ((1, -1, 1, 2, 1), range(1, 3), "two lines"),
    # a**2 alpha = b**2 beta and gamma < 0: C = 0 leaves one line.
    # d != +-e gives f**2 = e**2 on it; d = +-e makes x = 0, where every f
    # solves the system and the kernel loops.
    ((1, 1, -1, 1, 1), range(1, 2), "one line"),
    ((1, 1, -1, 1, 1), range(1, 2), "loop"),
    ((2, 2, -1, 3, 3), range(1, 4), "one line"),
    # -alpha*beta*gamma = -1 and -6 are not squares: the diagonal.
    ((1, 1, 1, 3, 2), range(1, 4), "diagonal"),
    ((2, -1, -3, 1, 2), range(1, 3), "diagonal"),
]


class TestSolveForF:
    """Each way the kernel finds f, against the plain f loop.

    d, e, f span [-6, 6]: seven |f| classes.
    """

    DEF = range(-6, 7)

    @pytest.mark.parametrize("fixed, c_values, branch", BRANCH_CASES)
    def test_branch_matches_loop(self, fixed, c_values, branch):
        got, want = kernel_against_loop(*fixed, c_values, self.DEF)
        assert got == want
        assert any(solve_branch(row) == branch for row in got)

    def test_every_branch_is_reached(self):
        assert {case[2] for case in BRANCH_CASES} == {"diagonal", "two lines", "one line", "loop"}

    # Three and four |f| classes, and the one-signed and the lopsided range,
    # whose classes have one member at some magnitudes.
    @pytest.mark.parametrize("def_values", [range(-2, 3), range(-3, 4), range(0, 7), range(-6, 2)])
    def test_few_or_one_signed_classes(self, def_values):
        for fixed in [(1, 1, 1, 3, 2), (1, 1, -1, 1, 1), (2, -1, -3, 1, 2), (1, 2, -2, 3, 1)]:
            got, want = kernel_against_loop(*fixed, range(-3, 0), def_values)
            assert got and got == want

    def test_square_block_keeps_off_diagonal_rows(self):
        # -alpha*beta*gamma = 4 and 9: the blocks scan, and find rows off the
        # diagonal, the second one at q = 0.
        for fixed, c_values, row in [
            ((-2, -1, -2, 4, 2), range(1, 5), [-2, -1, -2, 4, 2, 4, -4, -3, 4, 18, 2]),
            ((-3, -3, -1, 2, 1), range(3, 4), [-3, -3, -1, 2, 1, 3, 1, 2, 0, 6, 0]),
        ]:
            got, want = kernel_against_loop(*fixed, c_values, self.DEF)
            assert got == want
            assert row in got

    @pytest.mark.parametrize(
        "fixed, c_values, diagonal",
        [
            # -alpha*beta*gamma = -1, a, b, c nonzero and q > 0.
            ((1, 1, 1, 3, 2), range(1, 4), True),
            # q = 0.
            ((1, 1, 1, 5, 4), range(3, 4), True),
            # -alpha*beta*gamma = 4, a positive square.
            ((-2, -1, -2, 4, 2), range(4, 5), False),
            # a = 0 frees d; -alpha*beta*gamma = -1 and q = 5.
            ((1, -1, -1, 0, 3), range(4, 5), True),
        ],
    )
    def test_which_classes_skip_the_scan(self, fixed, c_values, diagonal):
        # With no d, e, f classes to scan, the scan finds nothing, so every
        # row comes from the diagonal, one class entry per signed c.
        got = run_kernel(*fixed, c_values, self.DEF, scan=False)
        want = kernel_against_loop(*fixed, c_values, self.DEF)[1]
        assert want and expand(got, self.DEF) == (want if diagonal else [])
        assert all(entry[6:10] == [None] * 4 for entry in got)
        assert len({tuple(entry[:6]) for entry in got}) == len(got)

    def test_unit_case_never_scans(self):
        # -alpha*beta*gamma = -1 is no square: every unit-case class, q = 0
        # and free axes included, is found without the scan, as a class entry.
        values = range(-4, 5)
        for a, b in product(values, values):
            got = run_kernel(1, 1, 1, a, b, values, values, scan=False)
            assert expand(got, values) == kernel_against_loop(1, 1, 1, a, b, values, values)[1]
            assert all(entry[9] is None for entry in got)

    def test_diagonal_holds_none_in_free_slots(self):
        ranges = (range(-1, 3), range(-2, 2), range(0, 3))
        assert _diagonal(ranges, (False, True, False)) == (
            (1, -1, None, 1), (0, 0, None, 0), (1, 1, None, 1), (2, 2, None, 2),
        )
        assert _diagonal(ranges, (False, False, False)) == (
            (1, -1, -1, 1), (1, -1, 1, 1), (0, 0, 0, 0), (1, 1, -1, 1), (1, 1, 1, 1), (2, 2, -2, 2),
        )
        assert _diagonal(ranges, (True, True, True)) == ((0, None, None, None),)
        # No magnitude is common to d's and e's ranges: the diagonal is empty,
        # so the kernel writes no class entry for it.
        assert _diagonal((range(1, 2), range(2, 3), range(0, 1)), (False, False, True)) == ()

    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(*[st.integers(-3, 3)] * 3),
        st.booleans(),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(sorted),
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(sorted),
    )
    def test_random_blocks_match_loop(self, coeffs, square, ab, c_bounds, def_bounds):
        # gamma = -alpha*beta makes -alpha*beta*gamma a square; otherwise it
        # mostly is not, so both kinds of block are drawn.
        alpha, beta, gamma = coeffs
        if square:
            gamma = -alpha * beta
        c_values, def_values = (range(low, high + 1) for low, high in (c_bounds, def_bounds))
        got, want = kernel_against_loop(alpha, beta, gamma, *ab, c_values, def_values)
        assert got == want


def lagrange_form(w1, w2, w3):
    """(A, B, C) of w1 w2 (v1-v2)^2 + w1 w3 (v1-v3)^2 + w2 w3 (v2-v3)^2
    written as A X^2 + B XY + C Y^2 in X = v2 - v1 and Y = v3 - v1."""
    return w1 * w2 + w2 * w3, -2 * w2 * w3, w1 * w3 + w2 * w3


class TestDiagonalCertificate:
    """The argument behind the kernel's diagonal and lines (see the search
    module docstring).

    At a = b = c = 1 the system's weights are w = (alpha, -beta, -gamma) and
    its values v = (d^2, e^2, f^2); as alpha, beta and gamma are free, so is
    w, and fixing a, b and c loses nothing.  Each check takes ``shift``, a
    mutation of w3 by -shift that makes it fail.
    """

    @staticmethod
    def identity_misses(shift):
        """The grid points where first*third - second^2 is not Lagrange's sum.

        Both sides have degree <= 2 in each of w1, w2, w3, v1, v2, v3, so
        agreeing on three values of each (w in {-1, 0, 1}, v = d^2 with d in
        {0, 1, 2}) proves them equal.
        """
        misses = []
        for w1, w2, w3, d, e, f in product(*[(-1, 0, 1)] * 3, *[(0, 1, 2)] * 3):
            first, second, third = system_values(1, 1, 1, d, e, f, w1, -w2, -(w3 - shift))
            big_a, big_b, big_c = lagrange_form(w1, w2, w3)
            x, y = e * e - d * d, f * f - d * d
            if first * third - second**2 != big_a * x * x + big_b * x * y + big_c * y * y:
                misses.append((w1, w2, w3, d, e, f))
        return misses

    @staticmethod
    def discriminant_residual(shift):
        """B^2 - 4AC + 4 w1 w2 w3 (w1 + w2 + w3), with w1, w2, w3 as x, y, z.

        The system's first right-hand side gives w1 + w2 + w3, which is q^2.
        """
        first = system_values(1, 1, 1, 0, 0, 0, X, -Y, -(Z - shift))[0]
        big_a, big_b, big_c = lagrange_form(X, Y, Z)
        return big_b * big_b - 4 * big_a * big_c + 4 * X * Y * Z * first

    def test_identity_and_discriminant(self):
        assert self.identity_misses(0) == []
        assert self.discriminant_residual(0).is_zero

    def test_mutation_fails_both(self):
        assert self.identity_misses(1)
        assert not self.discriminant_residual(1).is_zero

    @staticmethod
    def line_misses(shift):
        """The grid points where C (A x^2 + B xy + C y^2) is not
        (C y - w2 w3 x)^2 + w1 w2 w3 (w1 + w2 + w3) x^2, for the form's (A, B, C).

        In a square block w1 w2 w3 (w1 + w2 + w3) = -(q r)^2, so where C != 0
        the form vanishes on the lines C y = (w2 w3 +- q r) x.  Both sides
        have degree <= 4 in each of w1, w2, w3, x, y, so agreeing on five
        values of each proves them equal.  ``shift`` mutates the form's w3.
        """
        misses = []
        for w1, w2, w3, x, y in product(range(-2, 3), repeat=5):
            big_a, big_b, big_c = lagrange_form(w1, w2, w3 - shift)
            form = big_a * x * x + big_b * x * y + big_c * y * y
            lines = (big_c * y - w2 * w3 * x) ** 2 + w1 * w2 * w3 * (w1 + w2 + w3) * x * x
            if big_c * form != lines:
                misses.append((w1, w2, w3, x, y))
        return misses

    @staticmethod
    def q0_misses(shift):
        """The grid points with w1 + w2 + w3 = -shift where
        w2^2 third + w1 w2 w3 u1^2 is not w2 second (w2 u2 - w1 u1 + 2 w2 v3),
        with u = v - v3.

        At q = 0, second = pq = 0, so w2^2 p^2 = -w1 w2 w3 u1^2: off the
        diagonal (u1 != 0) -alpha beta gamma must be a square.  With w3 put
        as -(w1 + w2) - shift, both sides have degree <= 3 in w1 and w2 and
        <= 2 in each v, so w in [-2, 2] and v = d^2 with d in {0, 1, 2}
        prove them equal.  ``shift`` breaks the constraint q = 0.
        """
        misses = []
        for w1, w2, d, e, f in product(range(-2, 3), range(-2, 3), *[(0, 1, 2)] * 3):
            w3 = -(w1 + w2) - shift
            _, second, third = system_values(1, 1, 1, d, e, f, w1, -w2, -w3)
            u1, u2, v3 = d * d - f * f, e * e - f * f, f * f
            if w2 * w2 * third + w1 * w2 * w3 * u1 * u1 != w2 * second * (w2 * u2 - w1 * u1 + 2 * w2 * v3):
                misses.append((w1, w2, d, e, f))
        return misses

    def test_line_factorisation(self):
        assert self.line_misses(0) == []
        assert self.line_misses(1)

    def test_q0_identity(self):
        assert self.q0_misses(0) == []
        assert self.q0_misses(1)


class TestDeterminismAndSharding:
    def test_shard_counts_agree(self):
        results = {
            shards: search(SearchSpace.cube(-2, 2, shards=shards)) for shards in (1, 2, 8)
        }
        rows = {shards: list(res.solutions) for shards, res in results.items()}
        assert rows[1] == rows[2] == rows[8]
        assert (
            results[1].counterexamples_pairwise
            == results[2].counterexamples_pairwise
            == results[8].counterexamples_pairwise
        )

    def test_more_shards_than_blocks(self):
        # 3 x 3 prefix blocks, 100 shards: empty shards must be harmless.
        small = search(SearchSpace.cube(-1, 1, shards=100))
        assert small.exhausted
        assert {inst.key() for inst, _ in small.solutions} == naive_unit_scan(-1, 1)

    def test_workers_agree_with_sequential(self):
        space_seq = SearchSpace.cube(-2, 2, shards=4)
        space_par = SearchSpace.cube(-2, 2, shards=4)
        seq = search(space_seq)
        par = search(space_par, workers=2)
        assert list(seq.solutions) == list(par.solutions)

    def test_pool_no_wider_than_the_shards_left(self, monkeypatch):
        # Fork starts every worker up front, so 64 workers over 2 shards ask for 2.
        # The pool is faked and runs each shard in this process.
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        result = search(SearchSpace.cube(-1, 1, shards=2), workers=64)
        assert asked == [2]
        assert {inst.key() for inst, _ in result.solutions} == naive_unit_scan(-1, 1)


# resume_tampered's value that deletes the field.
DELETED = object()
# The null d, e, f and p slots of a format-3 class entry.
NULLS = [None] * 4


def resume_tampered(tmp_path, field, value, shard=1, fmt=3, space=None):
    """Search ``space`` (unit [-1, 1] in 2 shards), set ``field`` of one shard's record, resume.

    In unit [-1, 1], shard 0 holds blocks [0, 4) and shard 1 blocks [4, 9).
    ``field`` ``"row"`` replaces the record's first row instead, ``"insert"``
    adds the row in enumeration order, and the value ``DELETED`` deletes the
    field.  With ``fmt`` 2 every record is first replaced by the oracle's
    format-2 record of its shard.
    """
    cp = tmp_path / "tampered.ckpt"
    space = dataclasses.replace(
        space or SearchSpace.cube(-1, 1, shards=2), checkpoint_path=str(cp)
    )
    search(space)
    records, _ = read_all(cp)
    if fmt == 2:
        records = [oracle_format_two_record(space, record["shard"]) for record in records]
    if field == "row":
        records[shard]["solutions"][0] = value
    elif field == "insert":
        records[shard]["solutions"] = sorted([*records[shard]["solutions"], value])
    elif value is DELETED:
        del records[shard][field]
    else:
        records[shard][field] = value
    cp.unlink()
    for record in records:
        if "solutions" in record:
            append_record(cp, record)
        else:  # append_record needs the rows: frame the record by hand
            payload = json.dumps(record).encode()
            with open(cp, "ab") as handle:
                handle.write(len(payload).to_bytes(4, "big") + payload)
    return search(space)


class TestCheckpointing:
    def test_resume_after_abort_matches_straight_run(self, tmp_path):
        log_straight = tmp_path / "straight.jsonl"
        log_resumed = tmp_path / "resumed.jsonl"
        straight = search(SearchSpace.cube(-2, 2, shards=4))
        write_result_log(straight, log_straight)

        class Abort(RuntimeError):
            pass

        cp = tmp_path / "run.ckpt"
        space = SearchSpace.cube(-2, 2, shards=4, checkpoint_path=cp)

        def abort_after_two(shard_id, record):
            if shard_id == 1:
                raise Abort

        with pytest.raises(Abort):
            search(space, on_shard_complete=abort_after_two)
        records, truncated = read_all(cp)
        assert not truncated
        assert [rec["shard"] for rec in records] == [0, 1]

        resumed = search(space)
        assert resumed.shards_reused == 2
        write_result_log(resumed, log_resumed)
        assert log_straight.read_bytes() == log_resumed.read_bytes()

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        cp = tmp_path / "done.ckpt"
        space = SearchSpace.cube(-1, 1, shards=2, checkpoint_path=cp)
        first = search(space)
        again = search(space)
        assert again.shards_reused == 2
        assert list(first.solutions) == list(again.solutions)

    def test_signature_mismatch_rejected(self, tmp_path):
        cp = tmp_path / "stale.ckpt"
        search(SearchSpace.cube(-1, 1, shards=2, checkpoint_path=cp))
        with pytest.raises(CheckpointError):
            search(SearchSpace.cube(-2, 2, shards=2, checkpoint_path=cp))

    def test_garbage_checkpoint_rejected(self, tmp_path):
        cp = tmp_path / "garbage.ckpt"
        cp.write_bytes(b"garbage!")
        with pytest.raises(CheckpointError):
            search(SearchSpace.cube(-1, 1, checkpoint_path=cp))

    def test_undecodable_record_rejected(self, tmp_path):
        cp = tmp_path / "binary.ckpt"
        cp.write_bytes((7).to_bytes(4, "big") + b"not-job")
        with pytest.raises(CheckpointError):
            search(SearchSpace.cube(-1, 1, checkpoint_path=cp))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("row", [1, 1, 1, 1.5, -1, 0, -1, -1, -1, 0, 0]),
            ("row", [1, 1, 1, True] + [0] * 7),
            ("row", [1] * 10),
            ("row", 7),
            ("shard", "1"),
            ("shards", 2.0),
            ("scanned", "9"),
            # Equal to 1 or 2 in Python but not in JSON: the header is exact.
            ("format", True),
            ("format", 2.0),
            ("shard", True),
            ("shards", True),
            ("scanned", True),
            *(
                (key, DELETED)
                for key in ("format", "signature", "shard", "shards", "blocks", "scanned")
            ),
        ],
    )
    def test_ill_typed_record_rejected(self, tmp_path, field, value):
        with pytest.raises(CheckpointError) as caught:
            resume_tampered(tmp_path, field, value)
        if field != "shard":
            assert "checkpoint shard 1 " in str(caught.value)

    def test_record_without_rows_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="^checkpoint shard 0 holds no row list$"):
            resume_tampered(tmp_path, "solutions", DELETED, shard=0)

    @pytest.mark.parametrize(
        "field, value, shard, fmt",
        [
            ("format", 99, 1, 3),
            ("scanned", -5, 1, 3),
            ("blocks", [0, 9], 1, 3),
            # Equal in value but not ints: the header fields are exact ints.
            ("blocks", [4.0, 9.0], 1, 3),
            ("blocks", [False, 4], 0, 3),
            # The rows below tamper with format-2 records, the oracle's.
            # Shard 1's first entry is (1, 1, 1, 0, 0, 0, null, null, null, 0, 0).
            ("row", [1, 1, 1, 0, 0, 0, None, None, None, None, 0], 1, 2),
            ("row", [1, 1, 1, 1, 0, 0, None, None, None, 1, 1], 1, 2),
            ("row", [1, 1, 1, 0, 0, 0, 0, None, None, 0, 0], 1, 2),
            # Shard 1 holds the (a, b) prefixes from (0, 0) on, each of a..f in [-1, 1].
            ("row", [1, 1, 1, 1, 1, 1, 2, 1, 1, 0, 0], 1, 2),
            ("row", [1, 1, 1, 1, 1, 0, 1, -5, None, 0, 0], 1, 2),
            ("row", [1, 1, 1, -1, -1, 1, 1, 1, 1, 0, 0], 1, 2),
            ("row", [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0], 0, 2),
            ("row", [2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0], 1, 2),
            # Entries must increase strictly: the second and the last entry as the first.
            ("row", [1, 1, 1, 1, -1, 0, -1, -1, None, 0, 0], 1, 2),
            ("row", [1, 1, 1, 1, 1, 0, 1, 1, None, 0, 0], 1, 2),
            # Shard 1 holds (1, 1, 1, 1, 0, 0, -1, null, null, 1, 1): the
            # kernel writes each solution once, with q >= 0.
            ("insert", [1, 1, 1, 1, 0, 0, -1, None, None, -1, -1], 1, 2),
            # In the box and in order, but p = 5 fails the second equation.
            ("insert", [1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 1], 1, 2),
        ],
        ids=[
            "format", "scanned", "blocks", "blocks-float", "blocks-bool",
            "null-p", "null-d-with-a", "d-in-free-slot",
            "d-outside-box", "e-outside-box-beside-free-f", "prefix-of-shard-0",
            "prefix-of-shard-1", "unit-coefficient-not-1",
            "repeated-entry", "entry-out-of-order",
            "sign-flipped-duplicate", "row-that-fails-the-system",
        ],
    )
    def test_record_beyond_its_shard_rejected(self, tmp_path, field, value, shard, fmt):
        with pytest.raises(CheckpointError, match=f"^checkpoint shard {shard} "):
            resume_tampered(tmp_path, field, value, shard, fmt)

    @pytest.mark.parametrize(
        "field, value, message, space",
        [
            # Shard 1's first entry is (1, 1, 1, 0, 0, 0, null, null, null, null, 0),
            # and it holds (1, 1, 1, 1, 0, 0, null, null, null, null, 1).
            # q**2 = 1 is not a**2 - b**2 - c**2 = 0.
            ("row", [1, 1, 1, 0, 0, 0, *NULLS, 1], "a row that fails the system", None),
            ("insert", [1, 1, 1, 1, 0, 0, *NULLS, -1], "a row with q < 0", None),
            ("row", [1, 1, 1, 0, 0, 0, 0, None, None, None, 0], "a class entry with a value", None),
            ("row", [1, 1, 1, 0, 0, 0, None, None, None, 0, 0], "a class entry with a value", None),
            ("row", [1, 1, 1, 0, 0, 0, *NULLS, None], "a class entry with a value", None),
            ("insert", [1, 1, 1, 1, 0, 0, *NULLS, 1], "rows repeated", None),
            # A solution, but outside a square block it is its class entry's.
            ("row", [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], "an explicit row outside a square", None),
            # -alpha*beta*gamma = 1: the first prefix, all -1, is a square block.
            (
                "row",
                [-1, -1, -1, -1, -1, -1, *NULLS, 1],
                "a class entry inside a square block",
                SearchSpace(
                    bounds={**dict.fromkeys(COEFF_VARS, (-1, -1)), **dict.fromkeys("abcdef", (-1, 1))},
                    case="general",
                    shards=2,
                ),
            ),
            # |d| = |e| never holds, so (a, b) = (1, 1) has no diagonal.
            (
                "insert",
                [1, 1, 1, 1, 1, 0, *NULLS, 0],
                "a class entry whose diagonal is empty",
                SearchSpace(
                    bounds={**dict.fromkeys("abcf", (-1, 1)), "d": (1, 1), "e": (2, 2)}, shards=2
                ),
            ),
        ],
        ids=[
            "square-gate", "negative-q", "value-in-d", "value-in-p", "null-q",
            "second-entry-for-a-prefix", "explicit-row-outside-square-block",
            "class-entry-in-square-block", "empty-diagonal",
        ],
    )
    def test_format_three_entry_the_search_never_writes(
        self, tmp_path, field, value, message, space
    ):
        with pytest.raises(CheckpointError, match=f"^checkpoint shard 1 holds {message}"):
            resume_tampered(tmp_path, field, value, space=space)

    def test_record_with_an_extra_key_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match=r"^checkpoint shard 1 holds keys .*\['extra'\]"):
            resume_tampered(tmp_path, "extra", "anything")

    def test_negative_p_beside_zero_q_rejected_on_load(self, tmp_path):
        # Shard 1 holds (1, 1, 1, 1, 1, 0, 0, 0, null, 0, 0).  The row below
        # also fails the system, so the message tells the loader's sign check
        # from the classification pass.
        row = [1, 1, 1, 1, 1, 0, 0, 0, None, -1, 0]
        with pytest.raises(CheckpointError, match="^checkpoint shard 1 .*q = 0 and p < 0"):
            resume_tampered(tmp_path, "insert", row, fmt=2)

    @pytest.mark.parametrize("case, bound", [("unit", 3), ("general", 2)])
    @pytest.mark.parametrize("formats", [(1, 1, 1), (1, 2, 1), (1, 2, 3), (3, 2, 1), (2, 3, 2)])
    def test_format_one_records_resume(self, tmp_path, case, bound, formats):
        fresh_log = tmp_path / "fresh.jsonl"
        write_result_log(search(SearchSpace.cube(-bound, bound, case=case, shards=3)), fresh_log)
        cp = tmp_path / "old.ckpt"
        space = SearchSpace.cube(-bound, bound, case=case, shards=3, checkpoint_path=cp)
        scans = {1: oracle_scan_shard, 2: oracle_format_two_record, 3: real_scan_shard}
        for shard_id, fmt in enumerate(formats):
            append_record(cp, scans[fmt](space, shard_id))
        assert [record["format"] for record in read_all(cp)[0]] == list(formats)
        resumed = search(space)
        assert resumed.shards_reused == 3
        resumed_log = tmp_path / "resumed.jsonl"
        write_result_log(resumed, resumed_log)
        assert resumed_log.read_bytes() == fresh_log.read_bytes()

    def test_truncated_tail_tolerated(self, tmp_path):
        cp = tmp_path / "tail.ckpt"
        space = SearchSpace.cube(-1, 1, shards=2, checkpoint_path=cp)
        search(space)
        whole = cp.read_bytes()
        first_record = whole[: 4 + int.from_bytes(whole[:4], "big")]
        cp.write_bytes(whole[:-3])  # cut into the final record
        records, truncated = read_all(cp)
        assert truncated and len(records) == 1
        # The tail is cut from the file, so a record appended next stays readable.
        assert cp.read_bytes() == first_record
        cp.write_bytes(whole[:-3])
        resumed = search(space)
        assert resumed.shards_reused == 1
        assert {inst.key() for inst, _ in resumed.solutions} == naive_unit_scan(-1, 1)
        assert cp.read_bytes() == whole
        again = search(space)
        assert again.shards_reused == 2
        assert list(again.solutions) == list(resumed.solutions)

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
    def test_append_writes_canonical_json(self, tmp_path, count):
        # Rows are encoded in slices; the payload must still be the one-call encoding.
        path = tmp_path / "canonical.ckpt"
        record = {"zeta": [1], "solutions": [[i, None, -i] for i in range(count)], "shard": 2}
        append_record(path, record)
        want = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        assert path.read_bytes()[4:] == want
        assert read_all(path) == ([record], False)

    def test_records_are_read_one_at_a_time(self, tmp_path):
        # A record is yielded before the next one is read.
        path = tmp_path / "records.ckpt"
        append_record(path, {"shard": 0, "solutions": []})
        with open(path, "ab") as handle:
            handle.write((5).to_bytes(4, "big") + b"nope!")
        reader = read_records(path)
        assert next(reader) == {"shard": 0, "solutions": []}
        with pytest.raises(CheckpointError, match="^undecodable record at byte 30:"):
            next(reader)

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "records.ckpt"
        append_record(path, {"shard": 0, "solutions": []})
        append_record(path, {"shard": 1, "solutions": [[1, 2]]})
        records, truncated = read_all(path)
        assert not truncated
        assert records == [{"shard": 0, "solutions": []}, {"shard": 1, "solutions": [[1, 2]]}]


class TestResultLog:
    def test_rows_are_canonical_json_lines(self, tmp_path):
        result = search(SearchSpace.cube(-1, 1))
        path = tmp_path / "log.jsonl"
        write_result_log(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.solutions)
        parsed = [json.loads(line) for line in lines]
        keys = [
            (
                row["alpha"], row["beta"], row["gamma"], row["a"], row["b"], row["c"],
                row["d"], row["e"], row["f"], row["p"], row["q"],
            )
            for row in parsed
        ]
        assert keys == sorted(keys)


def assert_matches_oracle(result, log_path):
    """Streamed log bytes, row order and every report against the slow oracle."""
    write_result_log(result, log_path)
    report_flags = {}
    with open(log_path, "rb") as log:
        lines = zip_longest(result.solutions, log, oracle_result_log(result.rows))
        for count, ((row, report), got, (want_row, want_flags, want_line)) in enumerate(lines):
            assert tuple(row) == want_row, f"row {count} out of sorted order"
            assert got == want_line, f"log line {count} differs"
            if id(report) not in report_flags:
                report_flags[id(report)] = flags_of(report)
            assert report_flags[id(report)] == want_flags, f"report {count} differs"
    return report_flags


class TestStreamedLogAgainstOracle:
    @pytest.mark.parametrize("shards", [1, 7, 81])
    def test_unit_box(self, tmp_path, shards):
        result = search(SearchSpace.cube(-4, 4, shards=shards))
        assert len(result.solutions) > 0
        assert_matches_oracle(result, tmp_path / "log.jsonl")

    def test_general_box(self, tmp_path):
        result = search(SearchSpace.cube(-2, 2, case="general", shards=5))
        report_flags = assert_matches_oracle(result, tmp_path / "log.jsonl")
        # The box has counterexamples under the adjacent reading only.
        assert result.counterexamples_pairwise == 0 < result.counterexamples_adjacent
        assert any(not flags["case_unit"] for flags in report_flags.values())
        expected = [
            tuple(row)
            for row, rep in result.solutions
            if rep.counterexample_pairwise or rep.counterexample_adjacent
        ]
        items = result.counterexamples()
        assert [tuple(item[v] for v in ROW_VARS) for item in items] == expected
        assert all(item["readings"]["adjacent"] for item in items)
        assert len(expected) == result.counterexamples_adjacent

    def test_resumed_run(self, tmp_path):
        class Abort(RuntimeError):
            pass

        def abort_after_three(shard_id, record):
            if shard_id == 2:
                raise Abort

        space = SearchSpace.cube(-4, 4, shards=7, checkpoint_path=tmp_path / "run.ckpt")
        with pytest.raises(Abort):
            search(space, on_shard_complete=abort_after_three)
        resumed = search(space)
        assert resumed.shards_reused == 3
        assert_matches_oracle(resumed, tmp_path / "log.jsonl")

    def test_asymmetric_library_space(self, tmp_path):
        bounds = {
            "a": (1, 5),
            "b": (-3, 2),
            "c": (0, 4),
            "d": (-3, 3),
            "e": (-2, 4),
            "f": (-4, 1),
        }
        result = search(SearchSpace(bounds=bounds, shards=5))
        assert result.exhausted and len(result.solutions) > 0
        assert_matches_oracle(result, tmp_path / "log.jsonl")

    @pytest.mark.parametrize(
        ("case", "bounds"),
        [
            # 0 and d's lowest values lie outside f's range, e's highest too.
            (
                "unit",
                {"a": (-3, 3), "b": (-3, 3), "c": (-2, 3), "d": (-4, 2), "e": (-1, 5), "f": (1, 4)},
            ),
            # d's whole range lies outside f's, which holds only negatives.
            (
                "unit",
                {"a": (-1, 2), "b": (0, 2), "c": (0, 3), "d": (-4, -1), "e": (2, 5), "f": (-3, -1)},
            ),
            # Negative gamma, free a and alpha axes, and 0 outside f's range.
            (
                "general",
                {
                    "alpha": (1, 2), "beta": (-1, 1), "gamma": (-2, -1),
                    "a": (-1, 2), "b": (-1, 1), "c": (0, 2),
                    "d": (-2, 1), "e": (0, 3), "f": (1, 3),
                },
            ),
        ],
    )
    def test_lopsided_library_space(self, tmp_path, case, bounds):
        # c's range holds 0, so some entries leave f free over a range that
        # misses 0 and some of the d and e values the (d, e) table covers.
        result = search(SearchSpace(bounds=bounds, case=case, shards=3))
        assert any(slots[2] for slots in family_slots(result))
        assert_matches_oracle(result, tmp_path / "log.jsonl")

    def test_check_conditions_shares_reports(self):
        inst = unit_instance(3, 2, 2, 1, -1, 1, p=1, q=1)
        assert check_conditions(inst) is check_conditions(ConjectureInstance(*inst.key()))


def flags_of(report):
    """A report's fields, as the oracles name them."""
    return dataclasses.asdict(report)


class TestLineTemplates:
    # Rows the search never emits: signs everywhere and integers far outside
    # any box, so every slot of a template is exercised.
    ROWS = (
        [-1, 2, -3, 4, -5, 6, -7, 8, -9, 10, -11],
        [10**30, -(10**30), 0, -(10**31) + 7, 1, -1, 0, 10**40, -(10**40), 3, 10**30 + 1],
        [0] * 11,
    )

    def test_every_flag_combination_matches_oracle_line(self):
        # The writer fills a report's template with d, e and f as "%d",
        # splits the bound line there, and puts each row's d, e and f
        # between the pieces.
        count = 0
        for flags in product((False, True), repeat=12):
            report = ConditionReport(*flags)
            template, pick = _line_template(report)
            for row in self.ROWS:
                want = oracle_log_line(row, flags_of(report))
                assert (template % pick(row)).encode() == want, f"line {count} differs"
                bound = template % pick(row[:6] + _DEF_OPEN + row[9:])
                head, to_e, to_f, tail = bound.split("%d")
                d, e, f = row[6:9]
                line = f"{head}{d}{to_e}{e}{to_f}{f}{tail}"
                assert line.encode() == want, f"bound line {count} differs"
                count += 1
        assert count == 2**12 * len(self.ROWS)

    def test_family_lines_split_at_d_into_head_and_tail(self):
        # A family line is the head, its (d, e) pair's text, f and the tail:
        # the keys are sorted, so d, e and f are neighbours in every line.
        for flags in product((False, True), repeat=12):
            template, pick = _line_template(ConditionReport(*flags))
            head, to_e, to_f, tail = (template % pick([0] * 6 + _DEF_OPEN + [0] * 2)).split("%d")
            assert (to_e, to_f) == (',"e":', ',"f":')
            assert head.endswith('"d":') and tail.startswith(',"gamma":')

    def test_write_holds_far_less_than_the_log(self, tmp_path):
        result = search(SearchSpace.cube(-6, 6))
        path = tmp_path / "log.jsonl"
        tracemalloc.start()
        try:
            write_result_log(result, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 8


class TestMemoryBound:
    def test_peak_grows_by_the_entries_alone(self, tmp_path):
        # A family entry's rows are counted from one classified row and
        # written from lines bound per entry and class, dropped with each run
        # of entries, and an explicit row keeps a two-byte report code beside
        # its entry, so the growth per added row is the entries' share and
        # nothing more.
        peaks, rows = [], []
        for bound in (4, 6):
            tracemalloc.start()
            try:
                result = search(SearchSpace.cube(-bound, bound))
                write_result_log(result, tmp_path / "log.jsonl")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            rows.append(len(result.solutions))
        assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) <= 16

    def test_writer_holds_nothing_sized_by_f_range(self, tmp_path):
        # Widening f from [-4, 4] to [-40, 40] multiplies the rows by 7.6;
        # the writer's peak must not follow, whether by a table sized by
        # f's range or by a buffer sized by a run of rows.
        peaks, rows = [], []
        for bound in (4, 40):
            bounds = {**dict.fromkeys("abcde", (-2, 2)), "f": (-bound, bound)}
            result = search(SearchSpace(bounds=bounds))
            tracemalloc.start()
            try:
                write_result_log(result, tmp_path / "log.jsonl")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            rows.append(len(result.solutions))
        assert rows == [2133, 16317]
        assert abs(peaks[1] - peaks[0]) < 16 * 1024


GENERAL_2_LOG_SHA256 = "22af9fa344a311af7aa32867fef626c0cc7bcbfd62372ff16574404f8c45a2fa"


class TestStreamedWalk:
    """A result walks its rows from its own spill, a piece at a time, in shard order."""

    def test_every_way_to_run_walks_the_oracle_rows(self, tmp_path):
        # 25 shards, one per (alpha, beta) block: a resume and a process pool
        # meet the shards out of order, and a torn tail reruns the last one.
        # TestStreamedLogAgainstOracle checks this box's log line by line;
        # here each run's log must be that log's bytes.
        space = SearchSpace.cube(-2, 2, case="general", shards=25)
        want_rows = [
            row for sid in range(space.shards) for row in oracle_scan_shard(space, sid)["solutions"]
        ]
        cp = tmp_path / "run.ckpt"
        at_cp = dataclasses.replace(space, checkpoint_path=str(cp))

        def torn():
            cp.write_bytes(cp.read_bytes()[:-3])
            return search(at_cp)

        runs = [
            ("fresh", lambda: search(space), 0),
            ("workers", lambda: search(at_cp, workers=2), 0),
            ("resumed", lambda: search(at_cp), 25),
            ("torn", torn, 24),
        ]
        log = tmp_path / "log.jsonl"
        for name, run, reused in runs:
            result = run()
            assert result.shards_reused == reused, name
            assert result.rows == want_rows, name
            write_result_log(result, log)
            digest = hashlib.sha256()
            with open(log, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
            # The CI pin of this box's log, fresh, in 5 shards and resumed.
            assert digest.hexdigest() == GENERAL_2_LOG_SHA256, name

    @pytest.mark.parametrize("damage", ["overwrite", "truncate"])
    def test_walk_never_reads_the_checkpoint_again(self, tmp_path, damage):
        cp = tmp_path / "run.ckpt"
        space = SearchSpace.cube(-4, 4, shards=7, checkpoint_path=cp)
        results = [search(space), search(space)]
        assert [result.shards_reused for result in results] == [0, 7]
        rows, logs = [], []
        for k, result in enumerate(results):
            rows.append(result.rows)
            logs.append(tmp_path / f"before{k}.jsonl")
            write_result_log(result, logs[-1])
        if damage == "overwrite":
            cp.write_bytes(bytes(cp.stat().st_size))
        else:
            cp.write_bytes(b"")
        for k, result in enumerate(results):
            assert result.rows == rows[k]
            after = tmp_path / f"after{k}.jsonl"
            write_result_log(result, after)
            assert after.read_bytes() == logs[k].read_bytes()
        assert logs[0].read_bytes() == logs[1].read_bytes()

    def test_walks_interleave(self):
        # Each walk reads its own place in the spill, so two may run at once.
        result = search(SearchSpace.cube(-4, 4, shards=7))
        rows = result.rows
        lagged = zip(result.iter_rows(), islice(result.iter_rows(), 700, None))
        assert list(lagged) == list(zip(rows, rows[700:]))

    def test_spill_closes_with_the_result(self):
        result = search(SearchSpace.cube(-1, 1))
        spill = result.spill
        del result
        assert spill.closed
        result = search(SearchSpace.cube(-1, 1))
        result.close()
        with pytest.raises(ValueError):
            next(result.iter_rows())

    def test_peak_follows_the_shard_not_the_box(self):
        # One shard holds the box's entries while it is counted; 25 shards
        # hold a 25th of them.  Every walk loads the entries one piece of the
        # spill at a time, through iter_entries.
        peaks = []
        for shards in (1, 25):
            tracemalloc.start()
            try:
                result = search(SearchSpace.cube(-2, 2, case="general", shards=shards))
                for _ in result.iter_entries():
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] / 2


class TestPairTable:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda low, width: range(low, low + width + 1),
                st.integers(-5, 5),
                st.integers(0, 4),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_cells_match_def_class(self, free):
        # One-signed, mixed and single-value ranges, 0 in some and not in others.
        d_range, e_range, f_range = free
        table = _pair_table(free)
        assert list(table) == list(d_range)
        for d, pairs in table.items():
            assert list(pairs) == list(e_range)
            for e, ((rec_d, rec_e, text), classes) in pairs.items():
                assert (rec_d, rec_e, text) == (d, e, f'{d},"e":{e},"f":')
                assert list(classes) == [_def_class(d, e, f) for f in f_range]


class TestClassifierAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=11, max_size=11))
    def test_small_rows(self, row):
        assert flags_of(classify_row(row)) == oracle_conditions(row)


def assert_pattern_path_matches_rows(result):
    """The counts and every row's report against ``classify_row`` on each expanded row."""
    counts = dict.fromkeys(("rows", "trivial", "pairwise", "adjacent", "alt"), 0)
    for row, report in result.solutions:
        want = classify_row(row)
        assert report == want, f"row {row} has {report}, not {want}"
        counts["rows"] += 1
        counts["trivial"] += want.trivial
        counts["pairwise"] += want.counterexample_pairwise
        counts["adjacent"] += want.counterexample_adjacent
        counts["alt"] += want.admissible_with_adjacent_def
    assert counts == {
        "rows": len(result.solutions),
        "trivial": result.trivial_solutions,
        "pairwise": result.counterexamples_pairwise,
        "adjacent": result.counterexamples_adjacent,
        "alt": result.adjacent_def_admissible,
    }
    return counts


def family_slots(result):
    """The (d, e, f) free-slot patterns of the result's family entries."""
    return {
        tuple(value is None for value in entry[6:9])
        for entry in result.iter_entries()
        if None in entry
    }


class TestPatternPathAgainstRows:
    """Family rows are classified once per class; every row must still get its own report."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(sorted),
            min_size=6,
            max_size=6,
        ),
    )
    def test_random_unit_bounds(self, ranges):
        bounds = {name: tuple(pair) for name, pair in zip("abcdef", ranges)}
        assert_pattern_path_matches_rows(search(SearchSpace(bounds=bounds, shards=2)))

    @pytest.mark.parametrize(
        "bounds",
        [
            # a = b = c = 0 only: one entry with d, e, f all free, over
            # ranges that differ, exclude 0 or hold only one sign.
            {"a": (0, 0), "b": (0, 0), "c": (0, 0), "d": (-3, 1), "e": (2, 4), "f": (-1, 3)},
            {"a": (0, 0), "b": (0, 0), "c": (0, 0), "d": (1, 3), "e": (-3, -1), "f": (-2, 2)},
            # b = 0 or c = 0: e and f free beside a fixed d.
            {"a": (-2, 3), "b": (-1, 0), "c": (0, 2), "d": (-2, 0), "e": (-3, 2), "f": (1, 4)},
        ],
    )
    def test_free_axes_over_unequal_ranges(self, bounds, tmp_path):
        result = search(SearchSpace(bounds=bounds))
        assert family_slots(result)
        assert_pattern_path_matches_rows(result)
        assert_matches_oracle(result, tmp_path / "log.jsonl")

    def test_unit_cube_holds_an_all_free_entry(self):
        result = search(SearchSpace.cube(-3, 3, shards=3))
        assert (True, True, True) in family_slots(result)
        assert_pattern_path_matches_rows(result)

    def test_general_box(self):
        # Free a and alpha axes and several free slots at once.
        result = search(SearchSpace.cube(-2, 2, case="general", shards=5))
        assert len(family_slots(result)) == 7
        assert any(0 in (row[0], row[3]) for row in result.iter_entries())
        counts = assert_pattern_path_matches_rows(result)
        assert counts["rows"] == 312_753 and counts["adjacent"] == 48

    def test_forged_family_that_fails_the_system(self, tmp_path):
        # a = 1 fixes d; b = c = 0 free e and f.  q = 1 forces p = d**2 = 1,
        # so p = 5 fails the second equation for every e and f.  The entry's
        # nulls are exactly its zero-product slots, so only its first row's
        # report can refuse it.
        cp = tmp_path / "forged.ckpt"
        space = SearchSpace.cube(-1, 1, checkpoint_path=cp)
        record = oracle_format_two_record(space, 0)
        record["solutions"] = [[1, 1, 1, 1, 0, 0, 1, None, None, 5, 1]]
        append_record(cp, record)
        with pytest.raises(CheckpointError, match="^checkpoint shard 0 .*fails the system"):
            search(space)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=11, max_size=11),
        st.integers(0, 2),
        st.booleans(),
        st.integers(-3, 3),
    )
    def test_a_freed_slot_moves_only_the_def_class(self, row, axis, zero_coefficient, value):
        # A zero a*alpha frees d (likewise b*beta e, c*gamma f), as in every
        # family row.  search() counts a family entry under its first row's
        # report, and the walk keys a family's reports by _def_class.
        row[axis if zero_coefficient else 3 + axis] = 0
        # Solve for (p, q) where the system allows, so satisfied rows are drawn too.
        alpha, beta, gamma, a, b, c, d, e, f = row[:9]
        first, second, third = system_values(a, b, c, d, e, f, alpha, beta, gamma)
        q = exact_sqrt(first)
        if q and second % q == 0 and (second // q) ** 2 == third:
            row[9:] = second // q, q
        elif q == 0 and second == 0 and exact_sqrt(third) is not None:
            row[9:] = exact_sqrt(third), 0
        report = classify_row(row)
        assert not (
            report.counterexample_pairwise
            or report.counterexample_adjacent
            or report.admissible_with_adjacent_def
        )
        moved = list(row)
        moved[6 + axis] = value
        other = classify_row(moved)
        if _def_class(*moved[6:9]) == _def_class(*row[6:9]):
            assert other == report
        # Whatever the class, only the chain flags differ.
        assert dataclasses.replace(
            other,
            def_distinct_nonzero=report.def_distinct_nonzero,
            def_distinct_nonzero_adjacent=report.def_distinct_nonzero_adjacent,
        ) == report

    def test_classifies_far_fewer_rows_than_it_counts(self, monkeypatch):
        # Every classification, through classify_row or its report code,
        # evaluates the system once: count those evaluations.
        calls = []
        count_system = search_module.system_values

        def counting(*args):
            calls.append(1)
            return count_system(*args)

        monkeypatch.setattr(search_module, "system_values", counting)
        space = SearchSpace.cube(-8, 8, shards=17)
        result = search(space)
        assert len(result.solutions) == 135_681
        # One classification per class entry with a free axis, and one per
        # _def_class on the diagonal of a class entry with none.  The records
        # hold 209 class entries, which expand to 10,193 entries.
        assert len(calls) == 321
        assert sum(len(real_scan_shard(space, sid)["solutions"]) for sid in range(17)) == 209
        assert sum(1 for _ in result.iter_entries()) == 10_193


class TestSolutionsAreLazy:
    def test_len_and_empty_counterexamples_build_no_instances(self, monkeypatch):
        result = search(SearchSpace.cube(-2, 2))
        assert result.counterexamples_pairwise == result.counterexamples_adjacent == 0
        built = []
        new = ConjectureInstance.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(ConjectureInstance, "__new__", counting_new)
        assert len(result.solutions) == len(result.rows) > 0
        assert result.counterexamples() == []
        assert built == []
        inst, report = next(iter(result.solutions))
        assert built == [1]
        assert inst.key() == tuple(result.rows[0])
        assert isinstance(report, ConditionReport)
        # Each walked solution builds exactly one instance, through __new__.
        instances = [inst for inst, _ in result.solutions]
        assert len(built) == 1 + len(instances) == 1 + len(result.solutions)
        assert instances == [tuple(row) for row in result.rows]


# A shard scan that waits for a gate file before scanning shard 1, so a test
# can look at the checkpoint while that shard is still running.  Module-level
# so that the process pool can pickle it.
GATE_TIMEOUT_S = 30


def gated_scan(space, shard_id):
    if shard_id == 1:
        gate = Path(space.checkpoint_path + ".gate")
        deadline = time.monotonic() + GATE_TIMEOUT_S
        while not gate.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("shard 1 gate never opened")
            time.sleep(0.01)
    return real_scan_shard(space, shard_id)


class TestParallelDurability:
    def test_finished_shard_is_durable_while_another_runs(self, tmp_path, monkeypatch):
        cp = tmp_path / "par.ckpt"
        space = SearchSpace.cube(-1, 1, shards=2, checkpoint_path=cp)
        seen = []

        def hook(shard_id, record):
            records, _ = read_all(cp)
            seen.append((shard_id, [rec["shard"] for rec in records]))
            Path(str(cp) + ".gate").touch()  # let shard 1 finish

        monkeypatch.setattr(search_module, "_scan_shard", gated_scan)
        result = search(space, workers=2, on_shard_complete=hook)
        assert seen[0] == (0, [0])  # durable before shard 1 was allowed to scan
        assert seen[1] == (1, [0, 1])
        assert {inst.key() for inst, _ in result.solutions} == naive_unit_scan(-1, 1)

    def test_dead_worker_names_the_checkpoint_a_rerun_resumes(self, tmp_path, monkeypatch):
        # Two workers, so three processes; the one scanning shard 1 dies.
        from concurrent.futures.process import BrokenProcessPool

        cp = tmp_path / "dead.ckpt"
        space = SearchSpace.cube(-2, 2, shards=3, checkpoint_path=cp)
        monkeypatch.setattr(search_module, "_scan_shard", dying_scan)
        message = f"checkpoint {re.escape(repr(str(cp)))} keeps every shard .* rerun resumes"
        with pytest.raises(BrokenProcessPool, match=message):
            search(space, workers=2)
        with pytest.raises(BrokenProcessPool, match="with no checkpoint, a rerun scans every shard"):
            search(SearchSpace.cube(-2, 2, shards=3), workers=2)
        monkeypatch.undo()
        resumed = search(space)
        assert resumed.shards_reused < 3
        assert resumed.rows == search(SearchSpace.cube(-2, 2, shards=3)).rows
