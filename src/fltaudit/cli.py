"""Command-line interface: verification, audit, search and scan subcommands.

Exit codes are part of the contract:

    0   success (no finding)
    1   run aborted (self-test abort hook)
    2   identity verification failure
    3   audit verdicts drifted from the expected-verdict manifest
    5   the search found a counterexample
    64  usage error (bad flags, bad ranges, empty or shared paths, missing config file)
    70  internal error (an unexpected exception; one line on stderr)
    74  checkpoint or report I/O failure

Every command is deterministic for a fixed configuration; randomized numeric
cross-checks take an explicit --seed that is recorded in the report.

A ``--format json`` report is one line of canonical JSON (keys sorted, no
whitespace), written by ``checkpoint.canonical_pieces``, the writer of
checkpoint records, with the encoder of search signatures and result-log
lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .checkpoint import CheckpointError, canonical_pieces
from .version import __version__

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_IDENTITY = 2
EXIT_AUDIT_DRIFT = 3
EXIT_COUNTEREXAMPLE = 5
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IO = 74


class UsageError(Exception):
    """Invalid configuration detected after argument parsing."""


class SelfTestAbort(Exception):
    """Raised by the --self-test-abort-after hook at a shard boundary."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the contract says 64.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _path(text: str) -> Path:
    # Path("") is Path("."), which would fail as I/O on a directory after the work.
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fltaudit",
        description=(
            "Exact-arithmetic verification, claim auditing and bounded "
            "counterexample search for the squared-triple identity and its "
            "associated quadratic Diophantine system."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--format", choices=("text", "json"), default="text", help="report format"
        )
        sub.add_argument("--out", type=_path, default=None, help="write the report to a file")

    p = commands.add_parser(
        "verify-identity", parents=[], help="expand both sides of the identity per exponent"
    )
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument(
        "--points",
        type=int,
        default=100,
        help="random numeric cross-check points per exponent (0 disables)",
    )
    p.add_argument("--seed", type=int, default=1, help="seed for the numeric cross-check")
    p.add_argument(
        "--self-test-sabotage",
        action="store_true",
        help="negative control: perturb each residual and expect exit 2",
    )
    add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_identity)

    p = commands.add_parser("audit", help="run the claim ledger and compare verdicts")
    # Scope flags default to None: an unset flag leaves AuditConfig's default.
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--c-max", type=int, default=None)
    p.add_argument("--box-bound", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="power parameter for condition checks")
    p.add_argument("--search-bound", type=int, default=None)
    p.add_argument("--search-shards", type=int, default=None)
    p.add_argument("--base-max", type=int, default=None, help="base bound for parity sampling")
    p.add_argument("--primitive-only", action="store_true", default=None)
    p.add_argument("--even-b-only", action="store_true", default=None)
    p.add_argument("--config", type=_path, default=None, help="JSON file with scope overrides")
    p.add_argument(
        "--manifest", type=_path, default=None, help="expected-verdict manifest (JSON)"
    )
    p.add_argument(
        "--self-test-sabotage",
        action="store_true",
        help="negative control: flip one verdict and expect exit 3",
    )
    add_output_flags(p)
    p.set_defaults(handler=_cmd_audit)

    p = commands.add_parser("search", help="exhaustive bounded counterexample search")
    p.add_argument("--lower", type=int, default=-3)
    p.add_argument("--upper", type=int, default=3)
    p.add_argument("--case", choices=("unit", "general"), default="unit")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", type=_path, default=None)
    p.add_argument(
        "--result-log", type=_path, default=None, help="normalized JSONL solution log"
    )
    p.add_argument(
        "--self-test-sabotage",
        action="store_true",
        help="negative control: inject a synthetic counterexample and expect exit 5",
    )
    p.add_argument(
        "--self-test-abort-after",
        type=int,
        default=None,
        metavar="N",
        help="negative control: abort after N freshly completed shards (exit 1)",
    )
    add_output_flags(p)
    p.set_defaults(handler=_cmd_search)

    p = commands.add_parser("scan-flt", help="brute-force scan of x^n + y^n = z^n")
    p.add_argument("--base-max", type=int, default=100)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=7)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_scan_flt)

    p = commands.add_parser("represent", help="find p > q > 0 for a Pythagorean triple")
    p.add_argument("A", type=int)
    p.add_argument("B", type=int)
    p.add_argument("C", type=int)
    p.add_argument(
        "--charitable", action="store_true", help="also try sign flips and the (A, B) swap"
    )
    add_output_flags(p)
    p.set_defaults(handler=_cmd_represent)

    return parser


# ----------------------------------------------------------------------
# Command handlers: each returns (exit_code, json_payload, text_rendering)
# and imports only the modules it runs, so a run loads no other subcommand's.


def _cmd_verify_identity(args: argparse.Namespace) -> tuple[int, dict, str]:
    import random

    from .lemma import identity_record

    if args.n_min < 3:
        raise UsageError(f"--n-min must be >= 3, got {args.n_min}")
    if args.n_min > args.n_max:
        raise UsageError(f"empty exponent range [{args.n_min}, {args.n_max}]")
    if args.points < 0:
        raise UsageError(f"--points must be >= 0, got {args.points}")
    rng = random.Random(args.seed)
    records = [
        identity_record(n, points=args.points, rng=rng, sabotage=args.self_test_sabotage)
        for n in range(args.n_min, args.n_max + 1)
    ]
    mismatches = sum(rec["numeric_mismatches"] for rec in records)
    all_zero = all(rec["residual_zero"] for rec in records) and mismatches == 0
    payload = {
        "command": "verify-identity",
        "version": __version__,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "points": args.points,
        "seed": args.seed,
        "sabotaged": args.self_test_sabotage,
        "records": records,
        "all_zero": all_zero,
        "numeric_mismatches": mismatches,
    }
    lines = [f"identity verification for n in [{args.n_min}, {args.n_max}]"]
    for rec in records:
        status = "zero" if rec["residual_zero"] else f"NONZERO ({rec['residual_terms']} terms)"
        numeric = (
            f", numeric {rec['numeric_points'] - rec['numeric_mismatches']}"
            f"/{rec['numeric_points']} ok"
            if rec["numeric_points"]
            else ""
        )
        lines.append(f"  n={rec['n']}: residual {status}{numeric}, {rec['elapsed_s']:.3f}s")
    lines.append(f"seed: {args.seed}")
    lines.append("verdict: " + ("identity holds in range" if all_zero else "FAILURE"))
    return (EXIT_OK if all_zero else EXIT_IDENTITY), payload, "\n".join(lines) + "\n"


def _cmd_audit(args: argparse.Namespace) -> tuple[int, dict, str]:
    from dataclasses import fields

    from .audit import (
        AuditConfig,
        compare_to_manifest,
        load_default_manifest,
        load_manifest,
        run_audit,
    )

    flags = {
        "identity_n_min": args.n_min,
        "identity_n_max": args.n_max,
        "consistency_n_min": args.n_min,
        "consistency_n_max": args.n_max,
        "c_max": args.c_max,
        "parametrization_primitive_only": args.primitive_only,
        "parametrization_even_b_only": args.even_b_only,
        "box_bound": args.box_bound,
        "condition_k": args.k,
        "search_bound": args.search_bound,
        "search_shards": args.search_shards,
        "triple_base_max": args.base_max,
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config is not None:
        if not args.config.exists():
            raise UsageError(f"config file not found: {args.config}")
        try:
            file_overrides = json.loads(args.config.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_overrides, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_overrides) - {f.name for f in fields(AuditConfig)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        overrides.update(file_overrides)
    try:
        config = AuditConfig(**overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.manifest is not None:
        if not args.manifest.exists():
            raise UsageError(f"manifest file not found: {args.manifest}")
        try:
            manifest = load_manifest(args.manifest)
        except ValueError as exc:
            raise UsageError(f"bad manifest file: {exc}") from exc
    else:
        manifest = load_default_manifest()

    report = run_audit(config)
    if args.self_test_sabotage:
        entry = report.claim("C1")
        entry.verdict = "FAILS" if entry.verdict == "HOLDS" else "HOLDS"
        entry.notes.append("negative control: verdict flipped by --self-test-sabotage")
    matched, drifts = compare_to_manifest(report, manifest)

    payload = report.as_dict()
    payload["sabotaged"] = args.self_test_sabotage
    payload["manifest_match"] = matched
    payload["manifest_drift"] = drifts
    text = report.render_text()
    if drifts:
        text += "\nmanifest drift:\n" + "\n".join(f"  {d}" for d in drifts) + "\n"
    else:
        text += "\nverdicts match the expected manifest\n"
    return (EXIT_OK if matched else EXIT_AUDIT_DRIFT), payload, text


def _cmd_search(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .resultlog import write_result_log
    from .search import ROW_VARS, SearchSpace, search

    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    # Outputs that share a file overwrite each other: the log the checkpoint, the report the log.
    named: dict[Path, str] = {}
    outputs = {"--checkpoint": args.checkpoint, "--result-log": args.result_log, "--out": args.out}
    for flag, path in outputs.items():
        first = flag if path is None else named.setdefault(path.resolve(), flag)
        if first != flag:
            raise UsageError(f"{first} and {flag} name the same file {path}")
    try:
        space = SearchSpace.cube(
            args.lower,
            args.upper,
            case=args.case,
            shards=args.shards,
            checkpoint_path=args.checkpoint,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    hook = None
    if args.self_test_abort_after is not None:
        if args.self_test_abort_after < 1:
            raise UsageError("--self-test-abort-after must be >= 1")
        completed = [0]

        def hook(shard_id: int, record: dict) -> None:
            completed[0] += 1
            if completed[0] >= args.self_test_abort_after:
                raise SelfTestAbort(
                    f"self-test abort after shard {shard_id} "
                    f"({completed[0]} fresh shards completed)"
                )

    result = search(space, workers=args.workers, on_shard_complete=hook)
    if args.result_log is not None:
        write_result_log(result, args.result_log)

    pairwise = result.counterexamples_pairwise
    adjacent = result.counterexamples_adjacent
    rows = result.counterexamples()
    if args.self_test_sabotage:
        synthetic = dict(zip(ROW_VARS, (1, 1, 1) + (0,) * 8))
        rows.append(dict(synthetic, readings={"pairwise": True, "adjacent": True}, synthetic=True))
        pairwise += 1
        adjacent += 1

    payload = {
        "command": "search",
        "version": __version__,
        "case": space.case,
        "bounds": {k: list(v) for k, v in sorted(space.bounds.items())},
        "shards": space.shards,
        "workers": args.workers,
        "signature": result.signature,
        "solution_count": len(result.solutions),
        "trivial_solutions": result.trivial_solutions,
        "counterexamples": {"pairwise": pairwise, "adjacent": adjacent},
        "adjacent_def_admissible": result.adjacent_def_admissible,
        "counterexample_rows": rows,
        "scanned": result.scanned,
        "total_assignments": result.total_assignments,
        "exhausted": result.exhausted,
        "shards_reused": result.shards_reused,
        "checkpoint": None if args.checkpoint is None else str(args.checkpoint),
        "result_log": None if args.result_log is None else str(args.result_log),
        "sabotaged": args.self_test_sabotage,
    }
    found = pairwise or adjacent
    lines = [
        f"search over {space.case} case, bounds [{args.lower}, {args.upper}], "
        f"{space.shards} shard(s)",
        f"  assignments scanned: {result.scanned} of {result.total_assignments} "
        f"(exhausted: {result.exhausted})",
        f"  solutions: {len(result.solutions)} "
        f"({result.trivial_solutions} trivial, {result.shards_reused} shards resumed)",
        f"  counterexamples: pairwise {pairwise}, adjacent {adjacent}",
        f"  satisfied only under adjacent d/e/f chain: {result.adjacent_def_admissible}",
        "verdict: " + ("COUNTEREXAMPLE FOUND" if found else "no counterexample in bounds"),
    ]
    return (EXIT_COUNTEREXAMPLE if found else EXIT_OK), payload, "\n".join(lines) + "\n"


def _cmd_scan_flt(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .fermat import scan_power_equation

    if args.base_max < 1:
        raise UsageError(f"--base-max must be >= 1, got {args.base_max}")
    if args.n_min < 2:
        raise UsageError(f"--n-min must be >= 2, got {args.n_min}")
    if args.n_min > args.n_max:
        raise UsageError(f"empty exponent range [{args.n_min}, {args.n_max}]")
    records = []
    for n in range(args.n_min, args.n_max + 1):
        solutions = scan_power_equation(args.base_max, n)
        records.append({"n": n, "solutions": [list(s) for s in solutions]})
    total = sum(len(rec["solutions"]) for rec in records)
    payload = {
        "command": "scan-flt",
        "version": __version__,
        "base_max": args.base_max,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "records": records,
        "total_solutions": total,
    }
    lines = [f"scan of x^n + y^n = z^n with 1 <= x <= y <= {args.base_max}"]
    for rec in records:
        shown = ", ".join(str(tuple(s)) for s in rec["solutions"][:8])
        more = " ..." if len(rec["solutions"]) > 8 else ""
        lines.append(f"  n={rec['n']}: {len(rec['solutions'])} solution(s) {shown}{more}")
    return EXIT_OK, payload, "\n".join(lines) + "\n"


def _cmd_represent(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .pythagoras import is_pythagorean, represent_triple, represent_triple_charitable

    finder = represent_triple_charitable if args.charitable else represent_triple
    rep = finder(args.A, args.B, args.C)
    payload = {
        "command": "represent",
        "version": __version__,
        "input": [args.A, args.B, args.C],
        "pythagorean": is_pythagorean(args.A, args.B, args.C),
        "charitable": args.charitable,
        "representation": None if rep is None else {"p": rep.p, "q": rep.q},
    }
    text = "none\n" if rep is None else f"p={rep.p} q={rep.q}\n"
    return EXIT_OK, payload, text


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    target = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    with target as handle:
        if args.format == "json":
            # One canonical line, in the pieces checkpoint records are written
            # in: a one-call encoding of a 0.6 MB audit report peaks at 3.1 MB.
            handle.writelines(canonical_pieces(payload))
            handle.write("\n")
        else:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.handler(args)
        _emit(args, payload, text)
        return code
    except UsageError as exc:
        print(f"fltaudit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfTestAbort as exc:
        print(f"fltaudit: aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except CheckpointError as exc:
        print(f"fltaudit: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"fltaudit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - a bug must not pass for exit 1 (aborted)
        print(f"fltaudit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
