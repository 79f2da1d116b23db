"""Claim ledger: verdicts, replay, monotonicity, completeness."""

import dataclasses
from itertools import product

import pytest

import fltaudit.audit as audit_mod
from fltaudit.audit import (
    FAILS,
    HOLDS,
    UNDECIDED,
    AuditConfig,
    compare_to_manifest,
    load_default_manifest,
    replay_evidence,
    run_audit,
)
from fltaudit.lemma import ConsistencyResult, DerivationError, verify_identity
from fltaudit.poly import ONE
from fltaudit.search import (
    ROW_VARS,
    ConjectureInstance,
    SearchSpace,
    check_conditions,
    search,
)

from oracles import oracle_enumerate_triples, oracle_represent_triple

SMALL = AuditConfig(
    identity_n_min=3,
    identity_n_max=4,
    consistency_n_min=3,
    consistency_n_max=4,
    c_max=20,
    box_bound=3,
    search_bound=2,
    triple_base_max=30,
)


@pytest.fixture(scope="module")
def small_report():
    return run_audit(SMALL)


@pytest.fixture(scope="module")
def default_report():
    return run_audit()


# A general-case counterexample in [-2, 2]: its eighth value, 1, is the one
# the bool test replaces with True.
GENERAL_COUNTEREXAMPLE = (-2, -1, -2, -2, -2, -2, -2, 1, 2, 2, 2)


def _derivation_breaks(n):
    raise DerivationError(f"halving not exact at n={n}")


# claim id, the fltaudit.audit name its item test calls, and a broken stand-in.
BROKEN = [
    ("C1", "verify_identity", lambda n: verify_identity(n) + ONE),
    ("C3", "derive_system", _derivation_breaks),
    ("C4", "consistency_residual", lambda n: ConsistencyResult(ONE, False, None, n)),
]


def with_checker(monkeypatch, claim_id, check):
    """Put ``check`` in place of one claim's checker in the ledger table."""
    statement, _, replay = audit_mod._CLAIMS[claim_id]
    monkeypatch.setitem(audit_mod._CLAIMS, claim_id, (statement, check, replay))


class TestVerdicts:
    def test_expected_verdicts_small_scope(self, small_report):
        summary = small_report.verdict_summary()
        assert summary["C1"] == HOLDS
        assert summary["C2"] == FAILS
        assert summary["C3"] == HOLDS
        assert summary["C4"] == HOLDS
        assert summary["C5"] == {"pairwise": FAILS, "adjacent": FAILS}
        assert small_report.claim("C6").verdict == HOLDS
        assert small_report.claim("C7").verdict == HOLDS

    def test_c2_carries_counterexample_evidence(self, small_report):
        triples = [tuple(item["triple"]) for item in small_report.claim("C2").evidence]
        assert (9, 12, 15) in triples
        assert (4, 3, 5) in triples
        data = small_report.claim("C2").data
        assert data["primitive_even_b_failures"] == 0
        assert data["charitable_failures"] < data["literal_failures"]

    @pytest.mark.parametrize("flags", list(product([False, True], repeat=2)))
    def test_c2_counts_match_three_enumerations(self, flags):
        primitive_only, even_b_only = flags
        config = AuditConfig(
            c_max=100,
            parametrization_primitive_only=primitive_only,
            parametrization_even_b_only=even_b_only,
        )
        data = audit_mod._CLAIMS["C2"][1](config)["data"]

        def failures(representable, **sample):
            return sum(not representable(*t) for t in oracle_enumerate_triples(100, **sample))

        def literal(a, b, c):
            return oracle_represent_triple(a, b, c) is not None

        def charitable(a, b, c):
            swaps = ((a, b), (b, a), (abs(a), abs(b)), (abs(b), abs(a)))
            return any(literal(x, y, abs(c)) for x, y in swaps)

        sample = dict(primitive_only=primitive_only, even_b_only=even_b_only)
        assert data == {
            "literal_failures": failures(literal, **sample),
            "charitable_failures": failures(charitable, **sample),
            "primitive_even_b_failures": failures(literal, primitive_only=True, even_b_only=True),
        }

    def test_c5_pairwise_evidence_contains_sum_zero_point(self, small_report):
        entry = small_report.claim("C5")
        pairwise_points = [
            tuple(item["point"])
            for item in entry.evidence
            if item["reading"] == "pairwise"
        ]
        assert (1, 2, -3) in pairwise_points

    def test_c6_marks_higher_exponents_undecided(self, small_report):
        entry = small_report.claim("C6")
        assert entry.subverdicts["exponent > 2"] == UNDECIDED
        assert entry.data["samples"] > 0

    def test_c6_smallest_scope_samples_one_triple(self):
        entry = run_audit(dataclasses.replace(SMALL, triple_base_max=5)).claim("C6")
        assert entry.data["samples"] == 1
        assert entry.verdict == HOLDS
        assert entry.subverdicts["exponent 2"] == HOLDS

    def test_c7_records_trivial_solutions(self, small_report):
        entry = small_report.claim("C7")
        assert entry.data["trivial_solutions"] >= 1
        assert entry.data["certificate"]["exhausted"]

    def test_report_completeness(self, small_report):
        ids = [entry.claim_id for entry in small_report.claims]
        assert ids == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]

    @pytest.mark.parametrize("scope", ["small_report", "default_report"])
    def test_fails_exactly_when_there_is_evidence(self, request, scope):
        for entry in request.getfixturevalue(scope).claims:
            assert (entry.verdict == FAILS) == bool(entry.evidence), entry.claim_id

    @pytest.mark.parametrize(
        "evidence, verdict", [([{"n": 3}], FAILS), ([], HOLDS)], ids=["evidence", "none"]
    )
    def test_verdict_follows_the_evidence(self, monkeypatch, evidence, verdict):
        with_checker(monkeypatch, "C3", lambda config: {"scope": {}, "evidence": evidence})
        entry = run_audit(SMALL).claim("C3")
        assert entry.verdict == verdict
        assert entry.evidence == evidence

    def test_statements_have_no_citation_apparatus(self, small_report):
        for entry in small_report.claims:
            assert "Eq" not in entry.statement
            assert "paper" not in entry.statement.lower()


class TestReplay:
    def test_all_fails_evidence_replays(self, small_report):
        for entry in small_report.claims:
            if entry.verdict != FAILS:
                continue
            assert entry.evidence, f"{entry.claim_id} FAILS without evidence"
            for item in entry.evidence:
                assert replay_evidence(entry.claim_id, item, SMALL), (
                    entry.claim_id,
                    item,
                )

    def test_replay_rejects_fabricated_evidence(self):
        assert not replay_evidence("C2", {"triple": [3, 4, 5]})
        assert not replay_evidence("C1", {"n": 3})
        # C6 speaks of primitive solutions: neither of these breaks it.
        assert not replay_evidence("C6", {"triple": [6, 8, 10]})
        assert not replay_evidence("C6", {"triple": [3, 4, 6]})
        assert not replay_evidence(
            "C5", {"claim": "uvw_distinct_nonzero", "reading": "pairwise", "point": [1, 2, 4], "k": None}
        )

    @pytest.mark.parametrize("claim_id, name, broken", BROKEN, ids=[b[0] for b in BROKEN])
    def test_real_failures_replay_through_their_item_test(
        self, monkeypatch, claim_id, name, broken
    ):
        with monkeypatch.context() as patch:
            patch.setattr(audit_mod, name, broken)
            entry = run_audit(SMALL).claim(claim_id)
            assert entry.verdict == FAILS
            assert [item["n"] for item in entry.evidence] == [3, 4]
            assert all(replay_evidence(claim_id, item, SMALL) for item in entry.evidence)
        assert not any(replay_evidence(claim_id, item, SMALL) for item in entry.evidence)

    @pytest.mark.parametrize(
        "claim_id, item",
        [
            ("C7", dict(zip(ROW_VARS, map(float, GENERAL_COUNTEREXAMPLE)))),
            ("C7", dict(zip(ROW_VARS, (*GENERAL_COUNTEREXAMPLE[:7], True, 2, 2, 2)))),
            ("C2", {"triple": [9.0, 12.0, 15.0]}),
            ("C6", {"triple": [3.0, 4.0, 5.0]}),
            ("C5", {"claim": "rst_distinct_nonzero", "reading": "pairwise", "point": 7, "k": 3}),
            ("C5", {"claim": ["x"], "reading": "pairwise", "point": [1, 2, 3], "k": 3}),
        ],
        ids=[
            "C7-float-row",
            "C7-bool-in-row",
            "C2-float-triple",
            "C6-float-triple",
            "C5-int-point",
            "C5-list-claim",
        ],
    )
    def test_replay_refuses_values_that_are_not_ints(self, claim_id, item):
        with pytest.raises(ValueError):
            replay_evidence(claim_id, item)

    def test_unknown_claim_rejected(self):
        with pytest.raises(KeyError):
            replay_evidence("C99", {})

    def test_unknown_reading_rejected(self):
        item = {"claim": "rst_distinct_nonzero", "reading": "sideways", "point": [2, 4, 6], "k": None}
        with pytest.raises(ValueError):
            replay_evidence("C5", item)

    def test_search_counterexamples_replay(self):
        # The general box has adjacent-reading counterexamples; C7 evidence
        # has the shape of ``counterexamples()`` items.
        items = search(SearchSpace.cube(-2, 2, case="general")).counterexamples()
        assert items
        for item in items:
            assert item["readings"]["adjacent"]
            assert replay_evidence("C7", item), item

    def test_trivial_search_solution_does_not_replay(self):
        row = (1, 1, 1, 1, 0, 0, 2, 1, 1, 4, 1)
        item = dict(zip(ROW_VARS, row))
        report = check_conditions(ConjectureInstance(*row))
        assert report.satisfied and report.trivial
        assert not replay_evidence("C7", item)


class TestMonotonicity:
    def test_enlarging_scope_never_flips_fails_to_holds(self, small_report):
        bigger = run_audit(
            AuditConfig(
                identity_n_min=3,
                identity_n_max=5,
                consistency_n_min=3,
                consistency_n_max=5,
                c_max=40,
                box_bound=4,
                search_bound=3,
                triple_base_max=60,
            )
        )
        for entry in small_report.claims:
            if entry.verdict == FAILS:
                assert bigger.claim(entry.claim_id).verdict == FAILS
            if entry.subverdicts:
                larger_sub = bigger.claim(entry.claim_id).subverdicts
                for key, verdict in entry.subverdicts.items():
                    if verdict == FAILS:
                        assert larger_sub[key] == FAILS


class TestManifest:
    def test_default_scope_matches_shipped_manifest(self, default_report):
        ok, drifts = compare_to_manifest(default_report, load_default_manifest())
        assert ok, drifts

    def test_drift_detection(self, small_report):
        manifest = {"C1": "FAILS"}
        ok, drifts = compare_to_manifest(small_report, manifest)
        assert not ok
        assert any("C1" in drift for drift in drifts)

    def test_subverdict_drift_detection(self, small_report):
        manifest = {"C5": {"pairwise": "HOLDS"}}
        ok, drifts = compare_to_manifest(small_report, manifest)
        assert not ok

    def test_missing_claim_detected(self, small_report):
        ok, drifts = compare_to_manifest(small_report, {"C42": "HOLDS"})
        assert not ok


class TestIsolation:
    def test_checker_crash_yields_undecided(self, monkeypatch):
        def boom(config):
            raise RuntimeError("synthetic failure")

        with_checker(monkeypatch, "C4", boom)
        report = run_audit(SMALL)
        entry = report.claim("C4")
        assert entry.verdict == UNDECIDED
        assert any("synthetic failure" in note for note in entry.notes)
        # The other claims are unaffected.
        assert report.claim("C1").verdict == HOLDS

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(c_max=3)
        with pytest.raises(ValueError):
            AuditConfig(condition_k=2)
        with pytest.raises(ValueError):
            AuditConfig(identity_n_min=2)

    @pytest.mark.parametrize(
        "override",
        [
            {"search_shards": True},
            {"c_max": 100.0},
            {"search_bound": "3"},
            {"parametrization_primitive_only": 1},
            {"identity_n_max": 8.0},
            {"consistency_n_min": 5, "consistency_n_max": 4},
        ],
    )
    def test_config_values_need_their_field_type(self, override):
        with pytest.raises(ValueError):
            AuditConfig(**override)
