"""The claim ledger: every checkable claim run to a scoped verdict.

Each claim is a bounded, machine-checkable statement wired to a checker in
another module.  Verdicts are always scoped: HOLDS means "no violation in
the configured ranges", never a universal statement; FAILS always carries
concrete evidence that re-verifies on replay; UNDECIDED marks a checker that
crashed, and C6's exponents above 2, where no solution exists to sample.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from math import gcd
from pathlib import Path

from .conditions import replay_condition_counterexample, verify_condition_derivations
from .fermat import primitive_square_triples
from .ints import at_least, exact_ints
from .lemma import DerivationError, consistency_residual, derive_system, verify_identity
from .pythagoras import (
    audit_parametrization,
    is_pythagorean,
    represent_triple,
    represent_triple_charitable,
)
from .search import READINGS, ROW_VARS, SearchSpace, classify_row, search
from .version import __version__

__all__ = [
    "AuditConfig",
    "AuditReport",
    "ClaimEntry",
    "HOLDS",
    "FAILS",
    "UNDECIDED",
    "compare_to_manifest",
    "load_default_manifest",
    "replay_evidence",
    "run_audit",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class AuditConfig:
    """Scopes for every claim; defaults are the shipped desk-scale ranges."""

    identity_n_min: int = 3
    identity_n_max: int = 8
    consistency_n_min: int = 3
    consistency_n_max: int = 8
    c_max: int = 100
    parametrization_primitive_only: bool = False
    parametrization_even_b_only: bool = False
    box_bound: int = 4
    condition_k: int = 3
    search_bound: int = 3
    search_shards: int = 1
    triple_base_max: int = 100

    def __post_init__(self) -> None:
        # Each int scope's least value: an n_max's is its n_min.
        floors = dict(
            identity_n_min=3, identity_n_max=self.identity_n_min,
            consistency_n_min=3, consistency_n_max=self.consistency_n_min,
            c_max=5, box_bound=3, condition_k=3, search_bound=2, search_shards=1, triple_base_max=5,
        )
        # Field annotations are strings under ``from __future__ import annotations``.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "int":
                at_least(spec.name, value, floors[spec.name])
            elif type(value) is not bool:
                raise ValueError(f"{spec.name} must be bool, got {value!r}")


@dataclass
class ClaimEntry:
    """One ledger row: a claim, its scope, verdict and replayable evidence."""

    claim_id: str
    statement: str
    scope: dict
    verdict: str
    subverdicts: dict[str, str] | None = None
    evidence: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict | None = None
    duration_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "statement": self.statement,
            "scope": self.scope,
            "verdict": self.verdict,
            "subverdicts": self.subverdicts,
            "evidence": self.evidence,
            "notes": self.notes,
            "data": self.data,
            "duration_s": round(self.duration_s, 6),
        }


@dataclass
class AuditReport:
    config: AuditConfig
    claims: list[ClaimEntry]
    elapsed_s: float
    version: str = __version__

    def claim(self, claim_id: str) -> ClaimEntry:
        for entry in self.claims:
            if entry.claim_id == claim_id:
                return entry
        raise KeyError(claim_id)

    def verdict_summary(self) -> dict:
        summary: dict = {}
        for entry in self.claims:
            summary[entry.claim_id] = (
                dict(entry.subverdicts) if entry.subverdicts else entry.verdict
            )
        return summary

    def as_dict(self) -> dict:
        return {
            "command": "audit",
            "version": self.version,
            "config": asdict(self.config),
            "claims": [entry.as_dict() for entry in self.claims],
            "verdict_summary": self.verdict_summary(),
            "elapsed_s": round(self.elapsed_s, 6),
        }

    def render_text(self) -> str:
        lines = [f"claim ledger ({len(self.claims)} claims, {self.elapsed_s:.2f}s)"]
        for entry in self.claims:
            lines.append("")
            lines.append(f"{entry.claim_id}: {entry.verdict} (in scope)")
            lines.append(f"  statement: {entry.statement}")
            lines.append(f"  scope: {json.dumps(entry.scope, sort_keys=True)}")
            if entry.subverdicts:
                parts = ", ".join(f"{k}: {v}" for k, v in sorted(entry.subverdicts.items()))
                lines.append(f"  subverdicts: {parts}")
            if entry.evidence:
                lines.append(f"  evidence items: {len(entry.evidence)}")
                for item in entry.evidence[:5]:
                    lines.append(f"    {json.dumps(item, sort_keys=True)}")
                if len(entry.evidence) > 5:
                    lines.append(f"    ... {len(entry.evidence) - 5} more")
            for note in entry.notes:
                lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Item tests: each returns its claim's evidence for an input that breaks the
# claim and None otherwise.  The claim's checker maps it over the sample and
# its replay applies it to one evidence item, so a FAILS item always replays
# through the code that found it.


def _identity_failure(n: int) -> dict | None:
    residual = verify_identity(n)
    if residual.is_zero:
        return None
    head = str(residual)[:160]
    return {"n": n, "residual_terms": residual.term_count, "residual_head": head}


def _derivation_failure(n: int) -> dict | None:
    try:
        derive_system(n)
    except DerivationError as exc:
        return {"n": n, "error": str(exc)}
    return None


def _consistency_failure(n: int) -> dict | None:
    result = consistency_residual(n)
    if result.holds:
        return None
    return {
        "n": n,
        "matches_product_form": result.matches_product_form,
        "fermat_divisible": result.fermat_quotient is not None,
    }


def _parity_failure(x: int, y: int, z: int) -> dict | None:
    """C6 speaks of primitive solutions only, so any other triple passes."""
    if x * x + y * y != z * z or gcd(gcd(x, y), z) != 1:
        return None
    even_count = sum(1 for v in (x, y, z) if v % 2 == 0)
    coprime = gcd(x, y) == 1 and gcd(y, z) == 1 and gcd(z, x) == 1
    if (even_count, coprime) == (1, True):
        return None
    return {"triple": [x, y, z], "even_count": even_count, "pairwise_coprime": coprime}


# ----------------------------------------------------------------------
# Checkers return their row's own fields; ``run_audit`` adds the rest.
# Replays return True iff a FAILS evidence item still fails.


def _verdict(evidence) -> str:
    """The ledger's one rule: FAILS exactly when there is evidence, else HOLDS."""
    return FAILS if evidence else HOLDS


def _per_exponent(test, scope: str, note: str = "") -> tuple:
    """(checker, replay) of a claim ``test`` decides for each n in ``<scope>_n_min..max``."""

    def check(config: AuditConfig) -> dict:
        low, high = getattr(config, f"{scope}_n_min"), getattr(config, f"{scope}_n_max")
        return dict(
            scope={"n_min": low, "n_max": high},
            evidence=[found for n in range(low, high + 1) if (found := test(n))],
            notes=[f"{note} [{low}, {high}]"] if note else [],
        )

    return check, lambda item, config: test(item["n"]) is not None


def _check_parametrization(config: AuditConfig) -> dict:
    failures = audit_parametrization(
        config.c_max,
        primitive_only=config.parametrization_primitive_only,
        even_b_only=config.parametrization_even_b_only,
    )
    # The charitable reading tries the literal one first, so each of its
    # failures is a literal failure; and every primitive triple with even B
    # is in the sample whatever the two flags are.
    charitable = sum(represent_triple_charitable(t.A, t.B, t.C) is None for t in failures)
    primitive_even = sum(gcd(t.A, t.B) == 1 and t.B % 2 == 0 for t in failures)
    return dict(
        scope={
            "c_max": config.c_max,
            "primitive_only": config.parametrization_primitive_only,
            "even_b_only": config.parametrization_even_b_only,
        },
        evidence=[{"triple": list(t.as_tuple())} for t in failures],
        data={
            "literal_failures": len(failures),
            "charitable_failures": charitable,
            "primitive_even_b_failures": primitive_even,
        },
        notes=[
            f"charitable reading (sign flips and swap allowed): "
            f"{charitable} unrepresentable triples",
            f"primitive positive triples with even middle term: "
            f"{primitive_even} unrepresentable (classical case)",
        ],
    )


def _replay_parametrization(item: dict, config: AuditConfig) -> bool:
    a, b, c = exact_ints(item["triple"], 3)
    return is_pythagorean(a, b, c) and represent_triple(a, b, c) is None


def _check_conditions(config: AuditConfig) -> dict:
    checks = verify_condition_derivations(config.box_bound, config.condition_k)
    evidence = [
        {"claim": check.claim, "reading": check.reading, "point": list(point), "k": check.k}
        for check in checks
        for point in check.counterexamples
    ]
    return dict(
        scope={
            "box_bound": config.box_bound,
            "k": config.condition_k,
            "regimes": {"odd": 2 * config.condition_k + 1},
        },
        subverdicts={
            reading: _verdict(
                any(check.counterexamples for check in checks if check.reading == reading)
            )
            for reading in READINGS
        },
        evidence=evidence,
        data={
            "checks": [
                {
                    "claim": check.claim,
                    "reading": check.reading,
                    "hypothesis_points": check.hypothesis_points,
                    "counterexamples": len(check.counterexamples),
                }
                for check in checks
            ]
        },
    )


def _replay_conditions(item: dict, config: AuditConfig) -> bool:
    k = item["k"] if item.get("k") is not None else config.condition_k
    return replay_condition_counterexample(item["claim"], item["reading"], item["point"], k)


def _check_parity_coprime(config: AuditConfig) -> dict:
    triples = primitive_square_triples(config.triple_base_max)
    evidence = [found for triple in triples if (found := _parity_failure(*triple))]
    return dict(
        scope={"exponent": 2, "base_max": config.triple_base_max},
        subverdicts={"exponent 2": _verdict(evidence), "exponent > 2": UNDECIDED},
        evidence=evidence,
        data={"samples": len(triples)},
        notes=["exponent > 2: UNDECIDED in bounds, no solutions exist to sample"],
    )


def _check_search(config: AuditConfig) -> dict:
    space = SearchSpace.cube(
        -config.search_bound,
        config.search_bound,
        case="unit",
        shards=config.search_shards,
    )
    result = search(space)
    notes = ["unit-coefficient case only at this scope"]
    if result.adjacent_def_admissible:
        notes.append(
            f"{result.adjacent_def_admissible} nontrivial solutions satisfy the "
            "side conditions only when the d/e/f chain is read adjacent-only; "
            "they are logged but not counted as counterexamples"
        )
    return dict(
        scope={"case": "unit", "bound": config.search_bound},
        subverdicts={
            reading: _verdict(getattr(result, f"counterexamples_{reading}"))
            for reading in READINGS
        },
        evidence=result.counterexamples(),
        data={
            "solutions": len(result.solutions),
            "trivial_solutions": result.trivial_solutions,
            "adjacent_def_admissible": result.adjacent_def_admissible,
            "certificate": result.certificate(),
        },
        notes=notes,
    )


def _replay_search(item: dict, config: AuditConfig) -> bool:
    report = classify_row([item[v] for v in ROW_VARS])
    return report.counterexample_pairwise or report.counterexample_adjacent


# ----------------------------------------------------------------------
# The ledger: claim id -> (statement, checker, replay), in report order.
# A claim is one row here plus its entry in the expected-verdict manifest.
# Item tests look up the functions they call when they run.

_CLAIMS = {
    "C1": (
        "For each exponent n in scope, (8rst)^2 (xyz)^(n-2) (x^n + y^n - z^n) "
        "expands to exactly A^2 + B^2 - C^2.",
        *_per_exponent(_identity_failure, "identity", "symbolic residual computed for every n in"),
    ),
    "C2": (
        "Every integer triple (A, B, C) with A^2 + B^2 = C^2 is representable "
        "as A = p^2 - q^2, B = 2pq, C = p^2 + q^2 with integers p > q > 0.",
        _check_parametrization,
        _replay_parametrization,
    ),
    "C3": (
        "The direct closed forms for Q, M, P agree with the halved "
        "combinations (C - A)/2, B/2, (C + A)/2, every halving being exact.",
        *_per_exponent(_derivation_failure, "identity"),
    ),
    "C4": (
        "M^2 - P*Q expands to exactly (4rst)^2 (xyz)^(n-2) (x^n + y^n - z^n), "
        "so the extraction of (p, q) is coherent precisely on x^n + y^n = z^n.",
        *_per_exponent(_consistency_failure, "consistency"),
    ),
    "C5": (
        "For bounded integer (x, y, z) satisfying the stated hypotheses, the "
        "derived side conditions hold, under each reading of the inequality chains.",
        _check_conditions,
        _replay_conditions,
    ),
    "C6": (
        "In a primitive integer solution of x^2 + y^2 = z^2, exactly one of "
        "x, y, z is even and the three are pairwise coprime.",
        _check_parity_coprime,
        lambda item, config: _parity_failure(*exact_ints(item["triple"], 3)) is not None,
    ),
    "C7": (
        "The three-equation quadratic system has no nontrivial integer "
        "solution satisfying the side conditions, within the searched box.",
        _check_search,
        _replay_search,
    ),
}


def run_audit(config: AuditConfig | None = None) -> AuditReport:
    """Run every claim checker; failures isolate to their claim."""
    config = config or AuditConfig()
    started = time.perf_counter()
    claims: list[ClaimEntry] = []
    for claim_id, (statement, check, _) in _CLAIMS.items():
        claim_started = time.perf_counter()
        try:
            found = check(config)
            entry = ClaimEntry(claim_id, statement, verdict=_verdict(found.get("evidence")), **found)
        except Exception as exc:  # noqa: BLE001 - the ledger must always complete
            entry = ClaimEntry(
                claim_id,
                statement,
                scope={},
                verdict=UNDECIDED,
                notes=[f"checker raised {type(exc).__name__}: {exc}"],
            )
        entry.duration_s = time.perf_counter() - claim_started
        claims.append(entry)
    return AuditReport(
        config=config, claims=claims, elapsed_s=time.perf_counter() - started
    )


def replay_evidence(claim_id: str, item: dict, config: AuditConfig | None = None) -> bool:
    """Re-run one FAILS evidence item through its claim's replay; True iff it still fails."""
    return _CLAIMS[claim_id][2](item, config or AuditConfig())


# ----------------------------------------------------------------------
# Expected-verdict manifest


def load_default_manifest() -> dict:
    payload = resources.files("fltaudit").joinpath("data/expected_verdicts.json")
    return json.loads(payload.read_text(encoding="utf-8"))


def load_manifest(path: str | Path) -> dict:
    """Read a manifest file; ``ValueError`` unless it holds a JSON object."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError("manifest file must hold a JSON object")
    return manifest


def compare_to_manifest(report: AuditReport, manifest: dict) -> tuple[bool, list[str]]:
    """Check the report's verdicts against an expected-verdict manifest."""
    drifts: list[str] = []
    summary = report.verdict_summary()
    for claim_id, expected in manifest.items():
        if claim_id not in summary:
            drifts.append(f"{claim_id}: missing from report")
            continue
        actual = summary[claim_id]
        if isinstance(expected, dict):
            for key, want in expected.items():
                got = actual.get(key) if isinstance(actual, dict) else None
                if got != want:
                    drifts.append(f"{claim_id}[{key}]: expected {want}, got {got}")
        else:
            top = report.claim(claim_id).verdict
            if top != expected:
                drifts.append(f"{claim_id}: expected {expected}, got {top}")
    return not drifts, drifts
