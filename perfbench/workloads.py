"""The benchmark's workloads: the steps each operation runs and its correctness gate.

An operation is one or more fltaudit processes run one after another in a
fresh directory.  ``prepare`` runs once per benchmark run and ``stage`` once
per operation, both outside the timed span; ``check`` runs after the
operation's last process has exited and returns the reasons it is wrong (an
empty list when it is right).  Sizes are parameters so the tests can run
the same code on smoke-sized boxes; ``WORKLOADS`` holds the full sizes with
the references observed on fltaudit 0.1.0 (``reference.json``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

REPORT = "report.json"
RESULT_LOG = "results.jsonl"
CHECKPOINT = "checkpoint.bin"


@dataclass(frozen=True)
class Step:
    """One process: ``cli`` runs ``fltaudit ARGS``, ``orthant`` the library call."""

    kind: str
    args: list[str]


# Runs one step with the given working directory and returns its exit code.
StepRunner = Callable[[Step, Path], int]


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_report(path: Path, problems: list[str]) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return {}


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_exit_codes(problems: list[str], codes: list[int]) -> None:
    expect(problems, "exit codes", codes, [0] * len(codes))


def check_search_counts(problems: list[str], report: dict, ref: dict) -> None:
    for key in ("solution_count", "trivial_solutions", "scanned"):
        expect(problems, key, report.get(key), ref[key])
    expect(problems, "exhausted", report.get("exhausted"), True)
    none = {"pairwise": 0, "adjacent": 0}
    expect(problems, "counterexamples", report.get("counterexamples"), none)


class Workload:
    name = ""

    def prepare(self, run_dir: Path, run_step: StepRunner) -> dict:
        return {}

    def stage(self, out_dir: Path, ctx: dict) -> None:
        pass

    def steps(self, seed: int) -> list[Step]:
        raise NotImplementedError

    def check(self, out_dir: Path, codes: list[int], ctx: dict, seed: int) -> list[str]:
        raise NotImplementedError


class SearchCube(Workload):
    """The C7 search as users run it; row classification and the result log dominate."""

    name = "search-cube"

    def __init__(self, bound: int, shards: int, ref: dict) -> None:
        self.bound, self.shards, self.ref = bound, shards, ref

    def steps(self, seed: int) -> list[Step]:
        return [
            Step(
                "cli",
                [
                    "search", "--case", "unit",
                    "--lower", str(-self.bound), "--upper", str(self.bound),
                    "--shards", str(self.shards), "--workers", "1",
                    "--checkpoint", CHECKPOINT, "--result-log", RESULT_LOG,
                    "--format", "json", "--out", REPORT,
                ],
            )
        ]

    def check_search(
        self, out_dir: Path, codes: list[int], reused: int, log_sha: str | None
    ) -> list[str]:
        problems: list[str] = []
        check_exit_codes(problems, codes)
        report = load_report(out_dir / REPORT, problems)
        check_search_counts(problems, report, self.ref)
        expect(problems, "shards_reused", report.get("shards_reused"), reused)
        log = out_dir / RESULT_LOG
        expect(problems, "result log sha256", log.is_file() and sha256_of(log), log_sha)
        return problems

    def check(self, out_dir: Path, codes: list[int], ctx: dict, seed: int) -> list[str]:
        return self.check_search(out_dir, codes, 0, self.ref["log_sha256"])


class SearchResume(SearchCube):
    """The search-cube argv started from a checkpoint that holds every shard.

    The kernel does no work: the checkpoint read, merge, classification and
    log do all of it.  The checkpoint is written by the program under test in
    ``prepare``, so a change of checkpoint format never meets a stale fixture.
    """

    name = "search-resume"

    def prepare(self, run_dir: Path, run_step: StepRunner) -> dict:
        prep = run_dir / "prep"
        prep.mkdir()
        (step,) = self.steps(0)
        code = run_step(step, prep)
        problems = super().check(prep, [code], {}, 0)
        log = prep / RESULT_LOG
        log_sha = sha256_of(log) if log.is_file() else None
        return {"checkpoint": prep / CHECKPOINT, "log_sha256": log_sha, "problems": problems}

    def stage(self, out_dir: Path, ctx: dict) -> None:
        if ctx["checkpoint"].is_file():
            shutil.copyfile(ctx["checkpoint"], out_dir / CHECKPOINT)

    def check(self, out_dir: Path, codes: list[int], ctx: dict, seed: int) -> list[str]:
        problems = [f"prep: {p}" for p in ctx["problems"]]
        problems += self.check_search(out_dir, codes, self.shards, ctx["log_sha256"])
        return problems


class SearchOrthant(Workload):
    """The library search with positive a, b, c.

    No zero-product trivial rows, so the kernel does most of the work.
    """

    name = "search-orthant"

    def __init__(self, abc: tuple[int, int], def_: tuple[int, int], shards: int, ref: dict) -> None:
        bounds = {**{v: list(abc) for v in "abc"}, **{v: list(def_) for v in "def"}}
        self.spec = json.dumps({"bounds": bounds, "shards": shards}, sort_keys=True)
        self.ref = ref

    def steps(self, seed: int) -> list[Step]:
        return [Step("orthant", [self.spec, CHECKPOINT, REPORT])]

    def check(self, out_dir: Path, codes: list[int], ctx: dict, seed: int) -> list[str]:
        problems: list[str] = []
        check_exit_codes(problems, codes)
        report = load_report(out_dir / REPORT, problems)
        check_search_counts(problems, report, self.ref)
        expect(problems, "rows sha256", report.get("rows_sha256"), self.ref["rows_sha256"])
        return problems


class AuditSession(Workload):
    """verify-identity, audit and scan-flt, each in its own process.

    The claim ledger with the search nearly idle: the control for search
    changes, where C2, conditions, fermat and the polynomials do the work.
    """

    name = "audit-session"

    def __init__(self, identity: list[str], audit: list[str], scan: list[str], ref: dict) -> None:
        self.identity, self.audit, self.scan, self.ref = identity, audit, scan, ref

    def steps(self, seed: int) -> list[Step]:
        out = ["--format", "json", "--out"]
        return [
            Step("cli", ["verify-identity", *self.identity, "--seed", str(seed), *out,
                         "identity.json"]),
            Step("cli", ["audit", *self.audit, *out, "audit.json"]),
            Step("cli", ["scan-flt", *self.scan, *out, "scan.json"]),
        ]

    def check(self, out_dir: Path, codes: list[int], ctx: dict, seed: int) -> list[str]:
        problems: list[str] = []
        check_exit_codes(problems, codes)
        identity = load_report(out_dir / "identity.json", problems)
        expect(problems, "identity seed", identity.get("seed"), seed)
        expect(problems, "identity all_zero", identity.get("all_zero"), True)
        expect(problems, "numeric mismatches", identity.get("numeric_mismatches"), 0)
        audit = load_report(out_dir / "audit.json", problems)
        expect(problems, "manifest_match", audit.get("manifest_match"), True)
        summary = self.ref["verdict_summary"]
        expect(problems, "verdict_summary", audit.get("verdict_summary"), summary)
        scan = load_report(out_dir / "scan.json", problems)
        expect(problems, "scan-flt solutions", scan.get("total_solutions"), 0)
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SearchCube(8, 17, REFERENCE["search-cube"]),
        SearchResume(8, 17, REFERENCE["search-cube"]),
        SearchOrthant((1, 48), (-12, 12), 48, REFERENCE["search-orthant"]),
        AuditSession(
            ["--n-min", "3", "--n-max", "24", "--points", "200"],
            ["--n-max", "24", "--c-max", "2500", "--box-bound", "12", "--search-bound", "4",
             "--base-max", "1500"],
            ["--base-max", "400", "--n-min", "3", "--n-max", "7"],
            REFERENCE["audit-session"],
        ),
    )
}
