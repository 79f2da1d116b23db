"""One workload step in its own interpreter: the library call, or a traced step.

    python3 perfbench/child.py orthant SPEC_JSON CHECKPOINT REPORT
    python3 perfbench/child.py --trace SPANS --run-id ID cli ARG...
    python3 perfbench/child.py --trace SPANS --run-id ID orthant SPEC_JSON CHECKPOINT REPORT

``orthant`` runs ``search(SearchSpace(...))`` as a library user would and
writes its counts and a digest of its rows to REPORT.  ``cli`` runs
``fltaudit.cli.main`` in process; untraced CLI steps use ``python -m
fltaudit`` instead.  With ``--trace`` the layers are wrapped first and the
spans are written to SPANS when the step ends.  fltaudit must be importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import hashlib
import json
import sys


def orthant(spec: str, checkpoint: str, report: str) -> int:
    from fltaudit.search import SearchSpace, search

    spec = json.loads(spec)
    bounds = {name: tuple(pair) for name, pair in spec["bounds"].items()}
    result = search(
        SearchSpace(bounds=bounds, case="unit", shards=spec["shards"], checkpoint_path=checkpoint)
    )
    keys = json.dumps([inst.key() for inst, _ in result.solutions], separators=(",", ":"))
    summary = {
        "solution_count": len(result.solutions),
        "trivial_solutions": result.trivial_solutions,
        "scanned": result.scanned,
        "exhausted": result.exhausted,
        "counterexamples": {
            "pairwise": result.counterexamples_pairwise,
            "adjacent": result.counterexamples_adjacent,
        },
        "rows_sha256": hashlib.sha256(keys.encode("ascii")).hexdigest(),
    }
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True)
    return 0


def run(kind: str, args: list[str]) -> int:
    if kind == "orthant":
        return orthant(*args)
    if kind == "cli":
        import fltaudit.cli

        return fltaudit.cli.main(args)
    raise SystemExit(f"unknown step kind {kind!r}")


def main(argv: list[str]) -> int:
    if argv[0] != "--trace":
        return run(argv[0], argv[1:])
    spans, run_id, kind, args = argv[1], argv[3], argv[4], argv[5:]
    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return run(kind, args)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
