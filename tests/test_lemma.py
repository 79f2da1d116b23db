"""Identity construction, derivation chain, and consistency checks."""

import dataclasses
import random

import pytest

from fltaudit import lemma
from fltaudit.lemma import (
    DerivationError,
    _halved,
    build_lemma_terms,
    consistency_residual,
    derive_system,
    fermat_poly,
    identity_record,
    lhs_poly,
    linear_forms,
    numeric_cross_check,
    sample_points,
    verify_identity,
)
from fltaudit.poly import X, Y, Z

from oracles import abc_at, consistency_rhs_at, identity_lhs_at, qmp_at


class TestBindings:
    def test_symbolic_forms(self):
        r, s, t, u, v, w = linear_forms(X, Y, Z)
        assert r == X - Y
        assert s == Y + Z
        assert t == Z + X
        assert u == X + Y + Z
        assert v == Y - Z - X
        assert w == X - Y - Z

    def test_point_forms_match_symbolic(self):
        sym = linear_forms(X, Y, Z)
        num = linear_forms(4, -7, 2)
        assert [form.evaluate(4, -7, 2) for form in sym] == list(num)


class TestAbcTriple:
    # Frozen values computed by direct substitution of r=-1, s=5, t=4,
    # u=6, v=-2, w=-4 into the defining formulas at (1, 2, 3), n=3.
    def test_values_at_123(self):
        abc = build_lemma_terms(3)
        assert abc.evaluate(1, 2, 3) == (-11900, -2592, -12292)

    def test_rejects_small_exponent(self):
        for bad in (2, 1, 0, -3, 3.0):
            with pytest.raises(ValueError):
                build_lemma_terms(bad)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_matches_direct_substitution_oracle(self, n):
        rng = random.Random(100 + n)
        abc = build_lemma_terms(n)
        for _ in range(25):
            x, y, z = (rng.randint(-8, 8) for _ in range(3))
            assert abc.evaluate(x, y, z) == abc_at(n, x, y, z)


def _table_points(seed):
    """Fixed corner points (zeros, signs, +-50) plus seeded ones in [-50, 50]^3."""
    corners = [
        (0, 0, 0), (0, 1, -1), (1, 0, 0), (0, 0, -7), (-3, 0, 5),
        (50, 50, 50), (-50, -50, -50), (50, -50, 0), (-50, 17, 50), (-1, -2, -3),
    ]
    rng = random.Random(seed)
    return corners + [tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(15)]


class TestSharedTable:
    # n = 3..24 is the audit-session scope; from n = 9 on, the table's
    # monomials fall into the three disjoint pair-power blocks.
    @pytest.mark.parametrize("n", range(3, 25))
    def test_matches_per_polynomial_and_direct_oracles(self, n):
        abc = build_lemma_terms(n)
        for x, y, z in _table_points(300 + n):
            per_poly = tuple(P.evaluate(x, y, z) for P in (abc.A, abc.B, abc.C))
            assert abc.evaluate(x, y, z) == per_poly == abc_at(n, x, y, z)

    def test_blocks_at_n24_are_the_pair_powers(self):
        factors = build_lemma_terms(24)._table._factors
        assert sorted(factors) == [(0, 22, 22), (22, 0, 22), (22, 22, 0)]

    # At n = 24 the added term x^22 y^22 z lies inside the xy block.
    @pytest.mark.parametrize(
        "n, shift", [(3, (1, 0, 0)), (8, (1, 0, 0)), (24, (22, 22, 1))], ids=["3", "8", "24"]
    )
    def test_table_reads_the_triple_it_is_given(self, n, shift, monkeypatch):
        abc = build_lemma_terms(n)
        abc.evaluate(1, 2, 3)  # the real triple's table exists before the copy
        ex, ey, ez = shift
        mutated = dataclasses.replace(abc, A=abc.A + X**ex * Y**ey * Z**ez)
        for x, y, z in _table_points(400 + n):
            av, bv, cv = abc.evaluate(x, y, z)
            assert mutated.evaluate(x, y, z) == (av + x**ex * y**ey * z**ez, bv, cv)
        monkeypatch.setattr(lemma, "build_lemma_terms", lambda _: mutated)
        record = identity_record(n, points=20, rng=random.Random(n))
        assert record["numeric_mismatches"] > 0


class TestIdentity:
    def test_lhs_value_at_123(self):
        # (8 * (-1) * 5 * 4)^2 * 6 * (1 + 8 - 27) = 25600 * 6 * (-18)
        assert lhs_poly(3).evaluate(1, 2, 3) == -2764800

    def test_lhs_vanishes_when_x_equals_y(self):
        poly = lhs_poly(3)
        for x, z in [(1, 5), (-3, 2), (4, 4)]:
            assert poly.evaluate(x, x, z) == 0

    def test_lhs_vanishes_at_0_1_1_for_even_exponent(self):
        assert lhs_poly(4).evaluate(0, 1, 1) == 0

    def test_lhs_vanishes_at_all_ones(self):
        assert lhs_poly(4).evaluate(1, 1, 1) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_residual_is_zero(self, n):
        assert verify_identity(n).is_zero

    @pytest.mark.parametrize("n", range(3, 11))
    def test_residual_matches_squares_expansion(self, n):
        abc = build_lemma_terms(n)
        squares = lhs_poly(n) - (abc.A**2 + abc.B**2 - abc.C**2)
        assert verify_identity(n) == squares

    def test_residual_reads_the_triple_it_is_given(self, monkeypatch):
        abc = build_lemma_terms(4)
        mutated = dataclasses.replace(abc, A=abc.A + X)
        monkeypatch.setattr(lemma, "build_lemma_terms", lambda _: mutated)
        residual = verify_identity(4)
        assert not residual.is_zero
        assert residual == lhs_poly(4) - (mutated.A**2 + abc.B**2 - abc.C**2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_lhs_total_degree_is_4n(self, n):
        assert max(sum(mono) for mono, _ in lhs_poly(n).terms()) == 4 * n

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_lhs_matches_direct_oracle(self, n):
        rng = random.Random(7 * n)
        for _ in range(20):
            x, y, z = (rng.randint(-6, 6) for _ in range(3))
            assert lhs_poly(n).evaluate(x, y, z) == identity_lhs_at(n, x, y, z)


class TestNumericCrossCheck:
    def test_reference_point(self):
        assert numeric_cross_check(3, (1, 2, 3)) == (-2764800, -2764800)

    def test_degenerate_points(self):
        assert numeric_cross_check(3, (1, 1, 1)) == (0, 0)
        assert numeric_cross_check(4, (0, 1, 1)) == (0, 0)

    def test_rejects_small_exponent(self):
        # The same ValueError for a point or a point count that is not an int.
        for n, point in [(2, (1, 2, 3)), (3, (1.5, 2, 3))]:
            with pytest.raises(ValueError):
                numeric_cross_check(n, point)
        for count in (-1, 2.0):
            with pytest.raises(ValueError):
                sample_points(count, random.Random(0))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_agreement_on_random_points(self, n):
        rng = random.Random(n)
        for _ in range(50):
            point = tuple(rng.randint(-30, 30) for _ in range(3))
            lhs, rhs = numeric_cross_check(n, point)
            assert lhs == rhs


class TestDerivedSystem:
    # Frozen values from direct substitution at (1, 2, 3), n=3:
    # Q = 1*2 - 25*6 - 16*3, M = 36*2 - 100*6 - 256*3,
    # P = 1296*2 - 400*6 - 4096*3.
    def test_values_at_123(self):
        system = derive_system(3)
        assert system.evaluate(1, 2, 3) == (-196, -1296, -12096)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_dual_construction_agrees(self, n):
        system = derive_system(n)
        abc = build_lemma_terms(n)
        assert 2 * system.Q == abc.C - abc.A
        assert 2 * system.M == abc.B
        assert 2 * system.P == abc.C + abc.A

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_direct_substitution_oracle(self, n):
        rng = random.Random(13 * n)
        system = derive_system(n)
        for _ in range(20):
            x, y, z = (rng.randint(-7, 7) for _ in range(3))
            assert system.evaluate(x, y, z) == qmp_at(n, x, y, z)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            derive_system(2)

    def test_halving_rejects_odd_coefficient(self):
        with pytest.raises(DerivationError):
            _halved(X + 2 * Y, "probe")

    def test_halving_divides_even_polynomial(self):
        assert _halved(2 * X + 4 * Y * Z, "probe") == X + 2 * Y * Z


class TestConsistencyResidual:
    def test_n3_spot_values(self):
        result = consistency_residual(3)
        assert result.holds
        assert result.matches_product_form
        assert result.fermat_quotient is not None
        # (-1296)^2 - (-12096)*(-196) and (4*-1*5*4)^2 * 6 * (-18)
        assert result.residual.evaluate(1, 2, 3) == -691200
        assert consistency_rhs_at(3, 1, 2, 3) == -691200

    @pytest.mark.parametrize("n", range(3, 7))
    def test_holds_symbolically(self, n):
        result = consistency_residual(n)
        assert result.holds

    def test_quotient_is_product_factor(self):
        result = consistency_residual(3)
        r, s, t = linear_forms(X, Y, Z)[:3]
        expected = (4 * r * s * t) ** 2 * (X * Y * Z)
        assert result.fermat_quotient == expected

    def test_residual_vanishes_on_fermat_points(self):
        # Any point with x^n + y^n = z^n kills the product form.
        result = consistency_residual(3)
        assert result.residual.evaluate(0, 1, 1) == 0
        result4 = consistency_residual(4)
        assert result4.residual.evaluate(3, 4, 5) != 0  # 81+256 != 625
        assert result4.residual.evaluate(0, 2, 2) == 0


class TestIdentityRecord:
    def test_clean_record(self):
        rng = random.Random(5)
        record = identity_record(3, points=10, rng=rng)
        assert record["residual_zero"] is True
        assert record["numeric_mismatches"] == 0
        assert record["abc_terms"]["A"] > 0

    def test_sabotage_detected(self):
        record = identity_record(3, sabotage=True)
        assert record["residual_zero"] is False
        assert record["residual_terms"] == 1

    def test_points_require_rng(self):
        with pytest.raises(ValueError):
            identity_record(3, points=5)

    def test_fermat_poly_shape(self):
        assert fermat_poly(5) == X**5 + Y**5 - Z**5
