"""Side-condition implication checks over bounded boxes."""

import pytest

from fltaudit.conditions import (
    CLAIM_IDS,
    READINGS,
    SystemParams,
    chain_distinct_nonzero,
    replay_condition_counterexample,
    verify_condition_derivations,
)
from oracles import oracle_condition_checks


def by_claim_reading(checks):
    return {(c.claim, c.reading): c for c in checks}


@pytest.fixture(scope="module")
def box4():
    return by_claim_reading(verify_condition_derivations(4, 3))


class TestChainReadings:
    def test_pairwise(self):
        assert chain_distinct_nonzero((1, 2, 3), "pairwise")
        assert not chain_distinct_nonzero((1, 2, 1), "pairwise")
        assert not chain_distinct_nonzero((0, 2, 3), "pairwise")

    def test_adjacent(self):
        assert chain_distinct_nonzero((1, 2, 1), "adjacent")
        assert not chain_distinct_nonzero((1, 1, 3), "adjacent")
        assert not chain_distinct_nonzero((1, 2, 0), "adjacent")
        # only the last element carries the nonzero requirement
        assert chain_distinct_nonzero((0, 2, 3), "adjacent")

    def test_unknown_reading(self):
        with pytest.raises(ValueError):
            chain_distinct_nonzero((1, 2, 3), "sideways")


class TestImplications:
    def test_all_claims_and_readings_present(self, box4):
        assert set(box4) == {(c, r) for c in CLAIM_IDS for r in READINGS}

    def test_sum_vanishing_counterexample(self, box4):
        # (1, 2, -3) has distinct nonzero magnitudes but x + y + z = 0.
        check = box4[("uvw_distinct_nonzero", "pairwise")]
        assert (1, 2, -3) in check.counterexamples
        assert not check.holds

    def test_rst_collision_counterexample(self, box4):
        # (4, 1, 2): gcd 1, distinct magnitudes, but x - y = 3 = y + z.
        check = box4[("rst_distinct_nonzero", "pairwise")]
        assert (4, 1, 2) in check.counterexamples

    def test_pair_products_hold_pairwise(self, box4):
        assert box4[("pairprod_distinct_nonzero", "pairwise")].holds

    def test_pair_products_fail_adjacent(self, box4):
        # The adjacent hypothesis admits x = 0, where zx = 0.
        check = box4[("pairprod_distinct_nonzero", "adjacent")]
        assert not check.holds
        assert (0, 1, 2) in check.counterexamples

    def test_divisibility_holds_both_readings(self, box4):
        assert box4[("coeff_divides_term", "pairwise")].holds
        assert box4[("coeff_divides_term", "adjacent")].holds

    def test_divisibility_holds_at_k2(self):
        checks = by_claim_reading(verify_condition_derivations(3, 2))
        assert checks[("coeff_divides_term", "pairwise")].holds
        assert checks[("coeff_divides_term", "adjacent")].holds

    def test_non_unit_multiple_holds_pairwise_k3(self, box4):
        assert box4[("coeff_not_unit_multiple", "pairwise")].holds

    def test_non_unit_multiple_fails_for_k2(self):
        # k = 2 sits outside the claimed regime: (2, 1, 3) gives
        # r = 1 and xy = 2, so r * xy equals |xy|.
        checks = by_claim_reading(verify_condition_derivations(3, 2))
        check = checks[("coeff_not_unit_multiple", "pairwise")]
        assert (2, 1, 3) in check.counterexamples

    def test_hypothesis_counts_monotone_in_reading(self, box4):
        # The adjacent hypothesis is weaker, so it admits at least as many points.
        for claim in CLAIM_IDS:
            assert (
                box4[(claim, "adjacent")].hypothesis_points
                >= box4[(claim, "pairwise")].hypothesis_points
            )

    @pytest.mark.parametrize("box_bound, k", [(3, 3), (5, 2), (6, 4)])
    def test_matches_per_claim_hypothesis_oracle(self, box_bound, k):
        checks = [
            (c.box_bound, c.claim, c.reading, c.k, c.hypothesis_points, c.counterexamples)
            for c in verify_condition_derivations(box_bound, k)
        ]
        assert checks == [(box_bound, *check) for check in oracle_condition_checks(box_bound, k)]

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_condition_derivations(2, 3)
        with pytest.raises(ValueError):
            verify_condition_derivations(4, 0)


class TestReplay:
    def test_replays_reproduce_failures(self, box4):
        for (claim, reading), check in box4.items():
            for point in check.counterexamples[:20]:
                assert replay_condition_counterexample(claim, reading, point, 3)

    def test_replay_rejects_non_counterexample(self):
        assert not replay_condition_counterexample(
            "uvw_distinct_nonzero", "pairwise", (1, 2, 4), 3
        )


class TestSystemParams:
    def test_exponents(self):
        assert SystemParams(k=3, parity="odd").exponent == 7
        assert SystemParams(k=2, parity="even").exponent == 4

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            SystemParams(k=2, parity="odd")
        with pytest.raises(ValueError):
            SystemParams(k=1, parity="even")
        with pytest.raises(ValueError):
            SystemParams(k=3, parity="diagonal")

    def test_from_exponent(self):
        assert SystemParams.from_exponent(7) == SystemParams(k=3, parity="odd")
        assert SystemParams.from_exponent(8) == SystemParams(k=4, parity="even")
        with pytest.raises(ValueError):
            SystemParams.from_exponent(5)  # odd shape needs k > 2
