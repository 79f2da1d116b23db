"""Spans and counters recorded around fltaudit's layers, from outside the program.

A traced child process calls ``install()`` before it runs a workload step.
That replaces each function in ``WRAPS`` with a wrapper, at the module
attribute its callers look up (``fltaudit.cli.search``,
``fltaudit.search.append_record``, ...), so no source under ``src/`` changes.
A wrapper with a span name records ``[id, parent, name, start, end]`` in
memory; one without only feeds a counter.  ``Tracer.dump`` writes everything
out when the step ends, and ``layer_metrics`` turns the dumps of one
operation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

MB = 1e6
CLAIMS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


def _size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _cli_out(counters, args, kwargs, result):
    argv = args[0]
    if "--out" in argv:
        counters["cli.report_bytes"] += _size(argv[argv.index("--out") + 1])


def _search_result(counters, args, kwargs, result):
    counters["search.scanned"] += result.scanned
    counters["search.rows"] += len(result.solutions)
    counters["search.trivial"] += result.trivial_solutions


def _log_size(counters, args, kwargs, result):
    counters["search.log_bytes"] += _size(args[1])


def _checkpoint_size(counters, args, kwargs, result):
    counters["checkpoint.appends"] += 1
    counters["checkpoint.bytes"] = max(counters["checkpoint.bytes"], _size(args[0]))


def _claim_durations(counters, args, kwargs, result):
    for entry in result.claims:
        counters[f"audit.{entry.claim_id}_s"] += entry.duration_s


def _numeric_points(counters, args, kwargs, result):
    counters["lemma.numeric_points"] += result["numeric_points"]


def _lhs_terms(counters, args, kwargs, result):
    # lhs_poly is cached by exponent, so this lookup repeats no expansion.
    lemma = importlib.import_module("fltaudit.lemma")
    counters["poly.lhs_terms"] += lemma.lhs_poly(args[0]).term_count


def _hypothesis_points(counters, args, kwargs, result):
    counters["conditions.hypothesis_points"] += sum(c.hypothesis_points for c in result)


def _pairs(counters, args, kwargs, result):
    base_max = args[0]
    counters["fermat.pairs"] += base_max * (base_max + 1) // 2


def _triples(counters, args, kwargs, result):
    counters["pythagoras.triples"] += len(result)


def _represent_call(counters, args, kwargs, result):
    counters["pythagoras.represent_calls"] += 1


# (module, attribute, span name or None for a counter only, post hook)
WRAPS = (
    ("fltaudit.cli", "main", "cli.main", _cli_out),
    ("fltaudit.cli", "search", "search.search", _search_result),
    ("fltaudit.audit", "search", "search.search", _search_result),
    ("fltaudit.search", "search", "search.search", _search_result),
    ("fltaudit.search", "_scan_shard", "search.scan_shard", None),
    ("fltaudit.cli", "write_result_log", "search.write_result_log", _log_size),
    ("fltaudit.search", "append_record", "checkpoint.append_record", _checkpoint_size),
    ("fltaudit.search", "read_records", "checkpoint.read_records", None),
    ("fltaudit.cli", "run_audit", "audit.run_audit", _claim_durations),
    ("fltaudit.cli", "identity_record", "lemma.identity_record", _numeric_points),
    ("fltaudit.lemma", "verify_identity", "lemma.verify_identity", _lhs_terms),
    ("fltaudit.audit", "verify_identity", "lemma.verify_identity", _lhs_terms),
    ("fltaudit.lemma", "derive_system", "lemma.derive_system", None),
    ("fltaudit.audit", "derive_system", "lemma.derive_system", None),
    ("fltaudit.audit", "consistency_residual", "lemma.consistency_residual", None),
    ("fltaudit.audit", "audit_parametrization", "pythagoras.audit_parametrization", None),
    ("fltaudit.pythagoras", "enumerate_triples", None, _triples),
    ("fltaudit.pythagoras", "represent_triple", None, _represent_call),
    (
        "fltaudit.audit",
        "verify_condition_derivations",
        "conditions.verify_condition_derivations",
        _hypothesis_points,
    ),
    ("fltaudit.cli", "scan_power_equation", "fermat.scan_power_equation", _pairs),
    ("fltaudit.fermat", "scan_power_equation", "fermat.scan_power_equation", _pairs),
)


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    def wrap(self, module_name: str, attr: str, span: str | None, post) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:  # the layer no longer has this entry point
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                parent = self.stack[-1] if self.stack else None
                record = [len(self.spans), parent, span, perf_counter(), None]
                self.spans.append(record)
                self.stack.append(record[0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[4] = perf_counter()
                    self.stack.pop()
            if post is not None:
                post(self.counters, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def install(self) -> None:
        for entry in WRAPS:
            self.wrap(*entry)

    def dump(self, path) -> None:
        payload = {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _self_times(spans) -> tuple[dict[str, float], float, dict[int, list]]:
    """Per-name self time, total root-span time, and the children of each span."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    self_time: dict[str, float] = defaultdict(float)
    roots = 0.0
    for sid, parent, name, start, end in spans:
        self_time[name] += (end - start) - sum(c[4] - c[3] for c in children[sid])
        if parent is None:
            roots += end - start
    return self_time, roots, children


def _scan_classify(spans, children) -> tuple[float, float]:
    """Split each search span at the end of its last scan, append or read.

    Scan time runs from the call to that point, minus the checkpoint read
    and append spans; classify time (merge, sort, classification) runs from
    there to the return.  With every shard resumed, scan ends when
    read_records returns.
    """
    scan = classify = 0.0
    for sid, _, name, start, end in spans:
        if name != "search.search":
            continue
        inner = children[sid]
        boundary = max((c[4] for c in inner), default=start)
        io = sum(c[4] - c[3] for c in inner if c[2].startswith("checkpoint."))
        scan += boundary - start - io
        classify += end - boundary
    return scan, classify


def layer_metrics(dumps: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one operation from the dumps of its processes.

    ``wall_s`` is the operation's spawn-to-exit time; the part of it that no
    root span covers (interpreter start, imports, exit) is ``trace.uncovered_s``.
    """
    self_time: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    covered = scan = classify = 0.0
    for dump in dumps:
        own, roots, children = _self_times(dump["spans"])
        for name, value in own.items():
            self_time[name] += value
        for name, value in dump["counters"].items():
            counters[name] += value
        covered += roots
        s, c = _scan_classify(dump["spans"], children)
        scan += s
        classify += c
    rows = counters["search.rows"]
    metrics = {
        "search.scan_s": scan,
        "search.scanned": counters["search.scanned"],
        "search.classify_s": classify,
        "search.rows": rows,
        "search.nontrivial_ratio": (rows - counters["search.trivial"]) / rows if rows else 0.0,
        "search.log_write_s": self_time["search.write_result_log"],
        "search.log_mb": counters["search.log_bytes"] / MB,
        "checkpoint.append_s": self_time["checkpoint.append_record"],
        "checkpoint.appends": counters["checkpoint.appends"],
        "checkpoint.mb": counters["checkpoint.bytes"] / MB,
        "checkpoint.read_s": self_time["checkpoint.read_records"],
        "cli.report_s": self_time["cli.main"],
        "cli.report_mb": counters["cli.report_bytes"] / MB,
    }
    for claim in CLAIMS:
        metrics[f"audit.{claim}_s"] = counters[f"audit.{claim}_s"]
    metrics.update(
        {
            "lemma.identity_s": self_time["lemma.verify_identity"],
            "lemma.consistency_s": self_time["lemma.consistency_residual"]
            + self_time["lemma.derive_system"],
            "lemma.numeric_s": self_time["lemma.identity_record"],
            "lemma.numeric_points": counters["lemma.numeric_points"],
            "poly.lhs_terms": counters["poly.lhs_terms"],
            "pythagoras.audit_s": self_time["pythagoras.audit_parametrization"],
            "pythagoras.triples": counters["pythagoras.triples"],
            "pythagoras.represent_calls": counters["pythagoras.represent_calls"],
            "conditions.verify_s": self_time["conditions.verify_condition_derivations"],
            "conditions.hypothesis_points": counters["conditions.hypothesis_points"],
            "fermat.scan_s": self_time["fermat.scan_power_equation"],
            "fermat.pairs": counters["fermat.pairs"],
            "trace.uncovered_s": wall_s - covered,
        }
    )
    return metrics
