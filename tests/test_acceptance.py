"""Acceptance criteria, one test per criterion.

Every test prints a single PASS/FAIL line (visible even under pytest
capture) and then asserts the criterion at its stated tolerance.  All
tolerances are exact: the arithmetic is integer arithmetic throughout.
"""

import random
import time

import pytest

from fltaudit.audit import (
    compare_to_manifest,
    load_default_manifest,
    replay_evidence,
    run_audit,
)
from fltaudit.fermat import scan_power_equation
from fltaudit.lemma import (
    build_lemma_terms,
    consistency_residual,
    derive_system,
    fermat_poly,
    lhs_poly,
    numeric_cross_check,
    verify_identity,
)
from fltaudit.pythagoras import audit_parametrization
from fltaudit.search import SearchSpace, search, write_result_log

from oracles import consistency_rhs_at, naive_unit_scan

SEED = 1
PER_EXPONENT_BUDGET_S = 10.0


@pytest.fixture()
def announce(capsys):
    def _announce(number: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")

    return _announce


def _clear_symbolic_caches():
    for fn in (build_lemma_terms, lhs_poly, fermat_poly, derive_system):
        fn.cache_clear()


def test_criterion_1_symbolic_identity(announce):
    """Residual is the zero polynomial for n in 3..10, each n <= 8 within budget."""
    ok = False
    timings = {}
    residual_zero = {}
    try:
        _clear_symbolic_caches()
        for n in range(3, 11):
            started = time.perf_counter()
            residual_zero[n] = verify_identity(n).is_zero
            timings[n] = time.perf_counter() - started
        ok = all(residual_zero.values()) and all(
            timings[n] < PER_EXPONENT_BUDGET_S for n in range(3, 9)
        )
    finally:
        announce(1, "symbolic identity, n in 3..10", ok)
    assert all(residual_zero.values()), residual_zero
    slow = {n: t for n, t in timings.items() if n <= 8 and t >= PER_EXPONENT_BUDGET_S}
    assert not slow, f"exponents over the {PER_EXPONENT_BUDGET_S}s budget: {slow}"


def test_criterion_2_numeric_cross_check(announce):
    """1000 seeded random points per n in 3..9 agree exactly on both sides."""
    ok = False
    mismatches = []
    try:
        rng = random.Random(SEED)
        special = [
            (0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0),
            (2, 2, 3), (-1, -1, -1), (5, 5, 5), (3, 2, 3), (50, -50, 50),
        ]
        for n in range(3, 10):
            points = [
                (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
                for _ in range(1000)
            ] + special
            assert any(0 in pt for pt in points)
            assert any(len(set(pt)) < 3 for pt in points)
            for point in points:
                lhs, rhs = numeric_cross_check(n, point)
                if lhs != rhs:
                    mismatches.append((n, point, lhs, rhs))
        ok = not mismatches
    finally:
        announce(2, f"numeric cross-check, seed {SEED}", ok)
    assert not mismatches, mismatches[:5]


def test_criterion_3_consistency_identity(announce):
    """M^2 - P*Q equals the quadruple-product form for n in 3..8, spot -691200."""
    ok = False
    holds = {}
    try:
        for n in range(3, 9):
            holds[n] = consistency_residual(n).holds
        spot_residual = consistency_residual(3).residual.evaluate(1, 2, 3)
        spot_product = consistency_rhs_at(3, 1, 2, 3)
        ok = all(holds.values()) and spot_residual == spot_product == -691200
    finally:
        announce(3, "consistency identity, n in 3..8", ok)
    assert all(holds.values()), holds
    assert spot_residual == -691200
    assert spot_product == -691200


def test_criterion_4_parametrization_audit(announce):
    """c_max=100 audit finds the known gaps; the classical case is clean."""
    ok = False
    try:
        failures = {t.as_tuple() for t in audit_parametrization(100)}
        classical = audit_parametrization(100, primitive_only=True, even_b_only=True)
        ok = (9, 12, 15) in failures and (4, 3, 5) in failures and classical == []
    finally:
        announce(4, "parametrization audit, c_max 100", ok)
    assert (9, 12, 15) in failures
    assert (4, 3, 5) in failures
    assert classical == []


def test_criterion_5_conjecture_search(announce):
    """Unit case over [-4,4]: no counterexamples; [-2,2] matches the naive oracle."""
    ok = False
    try:
        result = search(SearchSpace.cube(-4, 4))
        small = search(SearchSpace.cube(-2, 2))
        oracle = naive_unit_scan(-2, 2)
        got = {inst.key() for inst, _ in small.solutions}
        ok = (
            result.exhausted
            and result.counterexamples_pairwise == 0
            and result.counterexamples_adjacent == 0
            and result.trivial_solutions >= 1
            and got == oracle
        )
    finally:
        announce(5, "conjecture search, unit case [-4,4]", ok)
    assert result.exhausted
    assert result.counterexamples_pairwise == 0
    assert result.counterexamples_adjacent == 0
    assert result.trivial_solutions >= 1
    assert got == oracle


def test_criterion_6_flt_scan(announce):
    """Bases to 100: no solutions for n in 3..7; classics found at n = 2."""
    ok = False
    try:
        higher = {n: scan_power_equation(100, n) for n in range(3, 8)}
        squares = scan_power_equation(100, 2)
        ok = (
            all(not sols for sols in higher.values())
            and (3, 4, 5) in squares
            and (5, 12, 13) in squares
        )
    finally:
        announce(6, "power-equation scan, base 100", ok)
    for n, sols in higher.items():
        assert sols == [], (n, sols)
    assert (3, 4, 5) in squares
    assert (5, 12, 13) in squares


def test_criterion_7_determinism_and_resume(announce, tmp_path):
    """Shard counts agree; interrupt plus resume reproduces the log exactly."""
    ok = False
    try:
        rows = {}
        for shards in (1, 2, 8):
            result = search(SearchSpace.cube(-4, 4, shards=shards))
            rows[shards] = list(result.solutions)
        shards_agree = rows[1] == rows[2] == rows[8]

        straight_log = tmp_path / "straight.jsonl"
        resumed_log = tmp_path / "resumed.jsonl"
        write_result_log(search(SearchSpace.cube(-3, 3, shards=4)), straight_log)

        class Interrupt(RuntimeError):
            pass

        def interrupt_after_two(shard_id, record):
            if shard_id == 1:
                raise Interrupt

        checkpoint = tmp_path / "resume.ckpt"
        space = SearchSpace.cube(-3, 3, shards=4, checkpoint_path=checkpoint)
        try:
            search(space, on_shard_complete=interrupt_after_two)
        except Interrupt:
            pass
        resumed = search(space)
        write_result_log(resumed, resumed_log)
        resume_matches = (
            resumed.shards_reused == 2
            and straight_log.read_bytes() == resumed_log.read_bytes()
        )
        ok = shards_agree and resume_matches
    finally:
        announce(7, "determinism and checkpoint resume", ok)
    assert shards_agree
    assert resumed.shards_reused == 2
    assert straight_log.read_bytes() == resumed_log.read_bytes()


def test_criterion_8_audit_ledger(announce):
    """Default-scope ledger matches the expected-verdict manifest with replays."""
    ok = False
    try:
        report = run_audit()
        summary = report.verdict_summary()
        expected = load_default_manifest()
        verdicts_ok = (
            summary["C1"] == "HOLDS"
            and summary["C2"] == "FAILS"
            and summary["C3"] == "HOLDS"
            and summary["C4"] == "HOLDS"
            and summary["C5"]["pairwise"] == "FAILS"
            and report.claim("C6").verdict == "HOLDS"
            and report.claim("C7").verdict == "HOLDS"
            and report.claim("C7").data["certificate"]["exhausted"]
        )
        manifest_ok, drifts = compare_to_manifest(report, expected)
        c2_evidence = report.claim("C2").evidence
        c5_evidence = report.claim("C5").evidence
        replays_ok = (
            all(replay_evidence("C2", item) for item in c2_evidence)
            and all(replay_evidence("C5", item) for item in c5_evidence)
        )
        sum_zero_point = any(
            item["reading"] == "pairwise" and tuple(item["point"]) == (1, 2, -3)
            for item in c5_evidence
        )
        ok = verdicts_ok and manifest_ok and replays_ok and sum_zero_point
    finally:
        announce(8, "audit ledger, default scopes", ok)
    assert verdicts_ok
    assert manifest_ok, drifts
    assert replays_ok
    assert sum_zero_point
