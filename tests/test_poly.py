"""Polynomial engine: arithmetic, canonical form, division, rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltaudit.poly import ONE, ZERO, MonomialTable, NotDivisible, Polynomial, X, Y, Z

coefficients = st.integers(min_value=-9, max_value=9)
exponents = st.integers(min_value=0, max_value=4)
monomials = st.tuples(exponents, exponents, exponents)
polynomials = st.dictionaries(monomials, coefficients, max_size=6).map(Polynomial)
points = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
# Polynomials as sums of small ones times high monomials, so that a table's
# monomials fall into blocks: pair powers like the lemma's, a single power,
# all three variables, or none (the unit factor).
high_monomials = st.sampled_from(
    [ONE, X**20 * Y**20, Y**20 * Z**20, Z**20 * X**20, X**20, X**20 * Y**20 * Z**20]
)
shifted_polynomials = st.lists(
    st.tuples(polynomials, high_monomials), max_size=4
).map(lambda parts: sum((p * m for p, m in parts), ZERO))


def naive_value(p, x, y, z):
    """The sum of c * x^ex * y^ey * z^ez over p's terms: evaluation's reference."""
    return sum(c * x**ex * y**ey * z**ez for (ex, ey, ez), c in p.terms())


class TestBasics:
    def test_additive_inverse(self):
        assert X + (-X) == ZERO
        assert (X + (-X)).is_zero

    def test_add_cancels_terms(self):
        assert (X**2 - Y**2) + Y**2 == X**2

    def test_add_doubles(self):
        assert (X + Y) + (X + Y) == 2 * X + 2 * Y

    def test_mul_difference_of_squares(self):
        assert (X - Y) * (X + Y) == X**2 - Y**2

    def test_mul_annihilator(self):
        assert (X + 3 * Y) * ZERO == ZERO

    def test_square_of_sum(self):
        expected = X**2 + Y**2 + Z**2 + 2 * X * Y + 2 * Y * Z + 2 * Z * X
        assert (X + Y + Z) ** 2 == expected

    def test_pow_zero_is_one(self):
        assert (X * Y) ** 0 == ONE
        assert ZERO**0 == ONE

    def test_pow_square(self):
        assert (X - Y) ** 2 == X**2 - 2 * X * Y + Y**2
        assert (X * Y * Z) ** 2 == X**2 * Y**2 * Z**2

    def test_eval_examples(self):
        assert (X**2 - Y**2).evaluate(3, 2, 0) == 5
        assert ZERO.evaluate(17, -4, 9) == 0
        assert (X**3 + Y**3 - Z**3).evaluate(1, 2, 3) == -18

    def test_int_operands(self):
        assert X + 1 - 1 == X
        assert 2 * X == X + X
        assert (X - 1) * (X + 1) == X**2 - 1
        assert 1 - X == -(X - 1)

    def test_equality_with_int(self):
        assert Polynomial.constant(7) == 7
        assert ZERO == 0
        assert X != 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            X**-1

    def test_bad_terms_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1, 0, 0): 2})
        with pytest.raises(TypeError):
            Polynomial({(0, 0, 0): 1.5})


class TestDivision:
    def test_constructed_product(self):
        divisor = X**3 + Y**3 - Z**3
        assert ((X + Y) * divisor).div_exact(divisor) == X + Y

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            X.div_exact(Y)

    def test_zero_dividend(self):
        assert ZERO.div_exact(X**3 + Y**3 - Z**3) == ZERO

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            X.div_exact(ZERO)

    def test_coefficient_mismatch(self):
        with pytest.raises(NotDivisible):
            X.div_exact(2 * X)

    def test_constant_divisor(self):
        assert (2 * X + 4 * Y).div_exact(Polynomial.constant(2)) == X + 2 * Y

    @given(p=polynomials, n=st.integers(min_value=3, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p, n):
        divisor = X**n + Y**n - Z**n
        assert (p * divisor).div_exact(divisor) == p


class TestRingAxioms:
    @given(p=polynomials, q=polynomials, r=polynomials)
    @settings(max_examples=80, deadline=None)
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(p=polynomials, q=polynomials, r=polynomials)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(p=polynomials, q=polynomials)
    @settings(max_examples=80, deadline=None)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(p=polynomials, q=polynomials, r=polynomials)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(p=polynomials)
    @settings(max_examples=40, deadline=None)
    def test_identities(self, p):
        assert p + ZERO == p
        assert p * ONE == p
        assert p + (-p) == ZERO


class TestCanonicalForm:
    @given(p=polynomials, q=polynomials)
    @settings(max_examples=80, deadline=None)
    def test_no_zero_coefficients_after_ops(self, p, q):
        for result in (p + q, p - q, p * q, -p):
            assert all(coeff != 0 for _, coeff in result.terms())

    @given(p=polynomials, q=polynomials)
    @settings(max_examples=80, deadline=None)
    def test_eval_is_ring_homomorphism(self, p, q):
        x, y, z = 3, -2, 5
        assert (p + q).evaluate(x, y, z) == p.evaluate(x, y, z) + q.evaluate(x, y, z)
        assert (p * q).evaluate(x, y, z) == p.evaluate(x, y, z) * q.evaluate(x, y, z)

    @given(p=polynomials, pt=points)
    @settings(max_examples=60, deadline=None)
    def test_eval_matches_naive_substitution(self, p, pt):
        assert p.evaluate(*pt) == naive_value(p, *pt)

    def test_evaluations_share_one_table(self, monkeypatch):
        # A polynomial is immutable, so it builds and factors its table once.
        built = []
        table_init = MonomialTable.__init__

        def counting_init(self, polys):
            built.append(1)
            table_init(self, polys)

        monkeypatch.setattr(MonomialTable, "__init__", counting_init)
        p = (X + 2 * Y - Z) ** 5 + 3 * X * Y * Z
        points = [(3, -2, 5), (0, 7, -1)]
        assert [p.evaluate(*pt) for pt in points] == [naive_value(p, *pt) for pt in points]
        assert len(built) == 1


class TestMonomialTable:
    @given(polys=st.lists(polynomials, max_size=4), pt=points)
    @settings(max_examples=60, deadline=None)
    def test_matches_each_polynomial(self, polys, pt):
        expected = tuple(naive_value(p, *pt) for p in polys)
        assert MonomialTable(polys).evaluate(*pt) == expected

    @given(polys=st.lists(shifted_polynomials, max_size=4), pt=points)
    @settings(max_examples=80, deadline=None)
    def test_matches_each_polynomial_in_blocks(self, polys, pt):
        expected = tuple(naive_value(p, *pt) for p in polys)
        assert MonomialTable(polys).evaluate(*pt) == expected

    def test_zero_and_constant_members(self):
        table = MonomialTable([ZERO, 7 * ONE, X * Y - Z, ZERO])
        assert table.evaluate(2, 3, 4) == (0, 7, 2, 0)

    def test_empty_table(self):
        assert MonomialTable([]).evaluate(1, 2, 3) == ()
        assert MonomialTable([ZERO]).evaluate(1, 2, 3) == (0,)


class TestOrderAndRendering:
    def test_render_square_of_sum(self):
        assert str((X + Y + Z) ** 2) == "x^2 + 2*x*y + 2*x*z + y^2 + 2*y*z + z^2"

    def test_render_signs_and_constants(self):
        assert str(ZERO) == "0"
        assert str(Polynomial.constant(-7)) == "-7"
        assert str(-X + 1) == "-x + 1"
        assert str(X**2 - 2 * X * Y + Y**2) == "x^2 - 2*x*y + y^2"

    def test_render_derived_quadratic_combination(self):
        # Hand-expanded: (x-y)^2 xy - (y+z)^2 yz - (z+x)^2 zx.
        r, s, t = X - Y, Y + Z, Z + X
        poly = r**2 * (X * Y) - s**2 * (Y * Z) - t**2 * (Z * X)
        expected = (
            "x^3*y - x^3*z - 2*x^2*y^2 - 2*x^2*z^2 + x*y^3 - x*z^3 "
            "- y^3*z - 2*y^2*z^2 - y*z^3"
        )
        assert str(poly) == expected
        assert poly.evaluate(1, 2, 3) == -196
