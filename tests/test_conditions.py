"""Side-condition implication checks over bounded boxes."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fltaudit.conditions as conditions_module
from fltaudit.conditions import (
    CLAIM_IDS,
    READINGS,
    reduction_row,
    replay_condition_counterexample,
    verify_condition_derivations,
)
from fltaudit.lemma import derive_system
from fltaudit.search import COEFF_VARS, ROW_VARS, UNIT_VARS, chain_flags, system_values
from oracles import oracle_condition_checks, oracle_replay


def by_claim_reading(checks):
    return {(c.claim, c.reading): c for c in checks}


@pytest.fixture(scope="module")
def box4():
    return by_claim_reading(verify_condition_derivations(4, 3))


class TestChainReadings:
    PAIRWISE = READINGS.index("pairwise")
    ADJACENT = READINGS.index("adjacent")

    def test_pairwise(self):
        assert chain_flags(1, 2, 3)[self.PAIRWISE]
        assert not chain_flags(1, 2, 1)[self.PAIRWISE]
        assert not chain_flags(0, 2, 3)[self.PAIRWISE]

    def test_adjacent(self):
        assert chain_flags(1, 2, 1)[self.ADJACENT]
        assert not chain_flags(1, 1, 3)[self.ADJACENT]
        assert not chain_flags(1, 2, 0)[self.ADJACENT]
        # only the last element carries the nonzero requirement
        assert chain_flags(0, 2, 3)[self.ADJACENT]

    @given(chain=st.tuples(*[st.integers(-3, 3)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_set_oracle(self, chain):
        u, v, w = chain
        pairwise = len({u, v, w}) == 3 and 0 not in chain
        adjacent = u != v and v != w and w != 0
        assert chain_flags(u, v, w) == (pairwise, adjacent)


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

    @pytest.mark.parametrize("box_bound, k", [(3, 3), (5, 2), (6, 4), (3, 1), (12, 3)])
    def test_matches_per_claim_hypothesis_oracle(self, box_bound, k):
        checks = [
            (c.box_bound, c.claim, c.reading, c.k, c.hypothesis_points, c.counterexamples)
            for c in verify_condition_derivations(box_bound, k)
        ]
        assert checks == [(box_bound, *check) for check in oracle_condition_checks(box_bound, k)]

    def test_validation(self):
        # A float or bool k would build float or bool reduction rows.
        for box_bound, k in [(2, 3), (4, 0), (3, 3.0), (3, True), (3.0, 3)]:
            with pytest.raises(ValueError):
                verify_condition_derivations(box_bound, k)


class TestReplay:
    def test_replays_reproduce_failures(self, box4):
        for (claim, reading), check in box4.items():
            for point in check.counterexamples[:20]:
                assert replay_condition_counterexample(claim, reading, point, 3)

    def test_replay_rejects_non_counterexample(self):
        assert not replay_condition_counterexample(
            "uvw_distinct_nonzero", "pairwise", (1, 2, 4), 3
        )

    @given(point=st.tuples(*[st.integers(-60, 60)] * 3), k=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_off_the_box(self, point, k):
        for claim in CLAIM_IDS:
            for reading in READINGS:
                expected = oracle_replay(claim, reading, point, k)
                assert replay_condition_counterexample(claim, reading, point, k) == expected

    def test_unknown_reading_rejected(self):
        # Refused up front, even where the hypothesis fails: (2, 4, 6) is not coprime.
        with pytest.raises(ValueError):
            replay_condition_counterexample("rst_distinct_nonzero", "sideways", (2, 4, 6), 3)
        with pytest.raises(ValueError):
            replay_condition_counterexample("uvw_distinct_nonzero", "sideways", (1, 2, -3), 3)

    @pytest.mark.parametrize(
        "claim, reading", [(["x"], "pairwise"), ("uvw_distinct_nonzero", ["x"])]
    )
    def test_unhashable_claim_or_reading_rejected(self, claim, reading):
        with pytest.raises(ValueError):
            replay_condition_counterexample(claim, reading, (1, 2, -3), 3)

    @pytest.mark.parametrize(
        "point, k", [((1, 2, 3), 0), ((1, 2, 3), 2.5), ((1.5, 2, -3.5), 3), ((1, 2), 3)]
    )
    def test_malformed_input_rejected(self, point, k):
        # No float may decide a verdict: (1.5, 2, -3.5) would "replay" as a
        # uvw counterexample, and k = 0 makes xy ** (k - 1) a float.
        with pytest.raises(ValueError):
            replay_condition_counterexample("uvw_distinct_nonzero", "pairwise", point, k)


class TestReductionRow:
    def test_reference_point(self):
        row = dict(zip(ROW_VARS, reduction_row(1, 2, 3, 1)))
        assert (row["alpha"], row["beta"], row["gamma"]) == (2, 6, 3)
        assert (row["a"], row["b"], row["c"]) == (-1, 5, 4)
        assert (row["d"], row["e"], row["f"]) == (6, -2, -4)
        assert (row["p"], row["q"]) == (0, 0)
        assert system_values(*(row[v] for v in UNIT_VARS + COEFF_VARS)) == (-196, -1296, -12096)

    def test_degenerate_points(self):
        assert reduction_row(2, 2, 3, 3)[ROW_VARS.index("a")] == 0  # x == y kills r
        row = reduction_row(0, 2, 3, 2)  # a zero coordinate kills xy and zx
        assert row[ROW_VARS.index("alpha")] == row[ROW_VARS.index("gamma")] == 0

    def test_each_admitted_point_builds_its_forms_once(self, monkeypatch):
        # Its reduction row and its r, s, t chain flags share one linear_forms.
        calls = []
        forms = conditions_module.linear_forms
        monkeypatch.setattr(conditions_module, "linear_forms", lambda *pt: calls.append(pt) or forms(*pt))
        verify_condition_derivations(4, 3)
        span = range(-4, 5)
        assert calls == [pt for pt in product(span, repeat=3) if chain_flags(*map(abs, pt))[1]]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_system_values_match_symbolic_system(self, k):
        system = derive_system(2 * k + 1)
        for x, y, z in [(1, 2, 3), (2, -3, 5), (-4, 7, 1), (3, 5, -2)]:
            row = dict(zip(ROW_VARS, reduction_row(x, y, z, k)))
            values = system_values(*(row[v] for v in UNIT_VARS + COEFF_VARS))
            assert values == system.evaluate(x, y, z)
