"""Power-equation scanner sanity checks."""

import subprocess
import sys

import pytest

from fltaudit.fermat import primitive_square_triples, scan_power_equation
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
        # A float exponent would scan a float power table; True is not base_max 1.
        for base_max, n in [(0, 2), (10, 1), (400, 7.0), (True, 2)]:
            with pytest.raises(ValueError):
                scan_power_equation(base_max, n)

    def test_primitive_filter(self):
        triples = primitive_square_triples(20)
        assert triples == [(3, 4, 5), (5, 12, 13), (8, 15, 17)]

    def test_radicand_beyond_float_range(self):
        # 20**300 does not convert to a float.
        assert scan_power_equation(20, 300) == []


class TestSquareRoute:
    """n = 2 takes the factor pairs of x^2; the root walk stays the reference."""

    @pytest.mark.parametrize("base_max", [*range(1, 151), 613])
    def test_matches_root_oracle(self, base_max):
        assert scan_power_equation(base_max, 2) == oracle_scan_power_equation(base_max, 2)

    def test_counts_at_the_audit_scope(self):
        assert len(scan_power_equation(1500, 2)) == 1661
        assert len(primitive_square_triples(1500)) == 267

    def test_large_bound_answers_at_once(self):
        # An all-pairs scan would try 450 million pairs here.
        proc = subprocess.run(
            [sys.executable, "-m", "fltaudit", "scan-flt", "--n-min", "2", "--n-max", "2",
             "--base-max", "30000"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 0
        assert "n=2: 49309 solution(s) (3, 4, 5), (5, 12, 13)" in proc.stdout
