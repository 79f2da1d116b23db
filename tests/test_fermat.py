"""Power-equation scanner sanity checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltaudit.fermat import primitive_square_triples, scan_power_equation
from fltaudit.ints import exact_nth_root, int_nth_root
from oracles import oracle_scan_power_equation


class TestScan:
    def test_squares_small(self):
        solutions = scan_power_equation(12, 2)
        assert solutions == [(3, 4, 5), (5, 12, 13), (6, 8, 10), (9, 12, 15)]

    def test_includes_classic_triples(self):
        solutions = scan_power_equation(20, 2)
        assert (3, 4, 5) in solutions
        assert (5, 12, 13) in solutions
        assert (8, 15, 17) in solutions

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_higher_powers_empty(self, n):
        assert scan_power_equation(30, n) == []

    @pytest.mark.parametrize(
        "base_max, n", [(12, 2), (20, 2), (100, 2), (30, 3), (100, 4), (20, 300)]
    )
    def test_matches_root_oracle(self, base_max, n):
        assert scan_power_equation(base_max, n) == oracle_scan_power_equation(base_max, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_power_equation(0, 2)
        with pytest.raises(ValueError):
            scan_power_equation(10, 1)

    def test_primitive_filter(self):
        triples = primitive_square_triples(20)
        assert triples == [(3, 4, 5), (5, 12, 13), (8, 15, 17)]


class TestIntegerRoots:
    def test_nth_root_floor(self):
        assert int_nth_root(26, 3) == 2
        assert int_nth_root(27, 3) == 3
        assert int_nth_root(0, 5) == 0
        assert int_nth_root(1, 7) == 1
        assert int_nth_root(2**60 - 1, 6) == 1023

    def test_float_seed_far_off(self):
        # The float seed is off by about 7.7e45 here, so a +-1 walk from it
        # would take that many steps.
        root = 10**60 + 7
        assert int_nth_root(root**3, 3) == root
        assert int_nth_root(root**3 - 1, 3) == root - 1

    def test_radicand_beyond_float_range(self):
        # 20**300 does not convert to a float.
        assert exact_nth_root(20**300, 300) == 20
        assert int_nth_root(20**300 - 1, 300) == 19
        assert int_nth_root(2**4998, 7) == 2**714
        assert int_nth_root(2**4998 - 1, 7) == 2**714 - 1
        assert scan_power_equation(20, 300) == []

    @given(st.integers(min_value=1, max_value=2**4000), st.integers(min_value=3, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_floor_root_bracket(self, value, degree):
        root = int_nth_root(value, degree)
        assert root**degree <= value < (root + 1) ** degree

    def test_exact_nth_root(self):
        assert exact_nth_root(243, 5) == 3
        assert exact_nth_root(244, 5) is None
        assert exact_nth_root(7**6, 3) == 49

    def test_validation(self):
        with pytest.raises(ValueError):
            int_nth_root(-1, 2)
        with pytest.raises(ValueError):
            int_nth_root(4, 0)
