"""Parametrization audit: representability of Pythagorean triples."""

from itertools import product

import pytest

from fltaudit.pythagoras import (
    PythTriple,
    Representation,
    audit_parametrization,
    enumerate_triples,
    euclid_primitive_triples,
    is_pythagorean,
    represent_triple,
    represent_triple_charitable,
)

from oracles import oracle_enumerate_triples, oracle_represent_triple


def _pair(rep):
    return None if rep is None else (rep.p, rep.q)


class TestIsPythagorean:
    def test_classic(self):
        assert is_pythagorean(3, 4, 5)

    def test_non_triple(self):
        assert not is_pythagorean(1, 1, 2)

    def test_lemma_values_are_not_a_triple(self):
        # A^2 + B^2 - C^2 at (1,2,3), n=3 equals -2764800, not zero.
        assert not is_pythagorean(-11900, -2592, -12292)


class TestRepresentTriple:
    def test_3_4_5(self):
        assert represent_triple(3, 4, 5) == Representation(p=2, q=1)

    def test_9_12_15_has_none(self):
        # 2pq = 12 allows (p, q) in {(6, 1), (3, 2)}; p^2 - q^2 is 35 or 5.
        assert represent_triple(9, 12, 15) is None

    def test_odd_middle_term_impossible(self):
        assert represent_triple(4, 3, 5) is None

    def test_zero_triple(self):
        assert represent_triple(0, 0, 0) is None

    def test_negative_components(self):
        assert represent_triple(-3, 4, 5) is None
        assert represent_triple(3, -4, 5) is None
        assert represent_triple(3, 4, -5) is None

    def test_soundness_of_returned_pairs(self):
        for a, b, c in enumerate_triples(60):
            rep = represent_triple(a, b, c)
            if rep is not None:
                assert rep.triple() == (a, b, c)
                assert rep.p > rep.q > 0

    def test_completeness_in_bounds(self):
        # Every (p, q) with p > q > 0 must be recovered from its own triple.
        for p in range(2, 13):
            for q in range(1, p):
                triple = Representation(p=p, q=q).triple()
                assert represent_triple(*triple) == Representation(p=p, q=q)

    def test_matches_brute_force_oracle(self):
        grid = list(product(range(-60, 61), range(-60, 61), range(-3, 90)))
        literal = {abc: oracle_represent_triple(*abc) for abc in grid}
        assert sum(rep is not None for rep in literal.values()) == 21
        assert [_pair(represent_triple(*abc)) for abc in grid] == list(literal.values())
        # The charitable reading tries (a, b), (b, a), (|a|, |b|), (|b|, |a|)
        # against |c|; each of those points lies in the grid too.
        charitable = [
            literal[a, b, abs(c)]
            or literal[b, a, abs(c)]
            or literal[abs(a), abs(b), abs(c)]
            or literal[abs(b), abs(a), abs(c)]
            for a, b, c in grid
        ]
        assert [_pair(represent_triple_charitable(*abc)) for abc in grid] == charitable

    def test_large_inputs(self):
        # A walk over p up to sqrt(c) would take 10^7 steps and more here.
        assert represent_triple(1, 2, 10**14) is None
        for p, q in ((10**8, 1), (10**40 + 1, 10**39)):
            rep = Representation(p=p, q=q)
            assert represent_triple(*rep.triple()) == rep

    def test_charitable_swap(self):
        assert represent_triple_charitable(4, 3, 5) == Representation(p=2, q=1)
        assert represent_triple_charitable(-3, 4, 5) == Representation(p=2, q=1)
        assert represent_triple_charitable(9, 12, 15) is None


class TestEnumeration:
    def test_both_orders_present(self):
        triples = enumerate_triples(15)
        assert (3, 4, 5) in triples
        assert (4, 3, 5) in triples
        assert (9, 12, 15) in triples

    def test_all_enumerated_are_pythagorean(self):
        for a, b, c in enumerate_triples(80):
            assert a * a + b * b == c * c

    def test_primitive_filter(self):
        assert (6, 8, 10) not in enumerate_triples(20, primitive_only=True)
        assert (3, 4, 5) in enumerate_triples(20, primitive_only=True)

    def test_small_bound_rejected(self):
        for c_max in (4, 100.0):
            with pytest.raises(ValueError):
                enumerate_triples(c_max)

    def test_euclid_route_matches_direct_scan(self):
        # Independent generation: Euclid's formula vs the oracle double loop
        # restricted to primitive triples with even middle term.
        direct = set(oracle_enumerate_triples(300, primitive_only=True, even_b_only=True))
        euclid = set(euclid_primitive_triples(300))
        assert direct == euclid

    @pytest.mark.parametrize("c_max", [5, 6, 25, 100, 613])
    @pytest.mark.parametrize("flags", list(product([False, True], repeat=2)))
    def test_matches_double_loop_oracle(self, c_max, flags):
        kwargs = dict(zip(("primitive_only", "even_b_only"), flags))
        assert enumerate_triples(c_max, **kwargs) == oracle_enumerate_triples(c_max, **kwargs)

    def test_euclid_triples_always_representable(self):
        for a, b, c in euclid_primitive_triples(250):
            assert represent_triple(a, b, c) is not None


class TestAudit:
    def test_counterexamples_at_15(self):
        failures = {t.as_tuple() for t in audit_parametrization(15)}
        assert (9, 12, 15) in failures
        assert (4, 3, 5) in failures

    def test_primitive_even_b_has_no_failures(self):
        assert audit_parametrization(5, primitive_only=True, even_b_only=True) == []
        assert audit_parametrization(100, primitive_only=True, even_b_only=True) == []

    def test_charitable_reading_shrinks_failures(self):
        literal = audit_parametrization(20)
        # The charitable reading tries the literal one first, so its
        # failures are the literal failures it cannot rescue either.
        charitable = [t for t in literal if represent_triple_charitable(t.A, t.B, t.C) is None]
        assert len(charitable) < len(literal)
        charitable_tuples = {t.as_tuple() for t in charitable}
        assert (4, 3, 5) not in charitable_tuples  # swap fixes it
        assert (9, 12, 15) in charitable_tuples  # nothing fixes it

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            audit_parametrization(4)


class TestTypes:
    def test_pyth_triple_invariant(self):
        PythTriple(3, 4, 5)
        with pytest.raises(ValueError):
            PythTriple(3, 4, 6)

    def test_representation_invariant(self):
        Representation(p=3, q=1)
        with pytest.raises(ValueError):
            Representation(p=1, q=1)
        with pytest.raises(ValueError):
            Representation(p=2, q=0)
