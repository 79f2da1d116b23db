"""Tests of the benchmark itself on smoke-sized boxes, including negative controls.

    python3 -m pytest perfbench -q

A wrong program must never pass the correctness gate: a sabotaged search
and a result log with one byte altered must each count as a failed
operation.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
from workloads import RESULT_LOG, SearchCube, SearchOrthant, SearchResume, Step

HERE = Path(__file__).resolve().parent

# Outputs of fltaudit 0.1.0 on the smoke boxes: unit case in [-3, 3]^6 with
# 3 shards, and a, b, c in [1, 6], d, e, f in [-3, 3] with 3 shards.
SMOKE_CUBE = {
    "log_sha256": "4d383d6f856255474813308c574a42e82c7d44f0942f25ecfa59adf4f717b5c4",
    "solution_count": 5185,
    "trivial_solutions": 4585,
    "scanned": 117649,
}
SMOKE_ORTHANT = {
    "rows_sha256": "6907ccda63c8c7ef08027ae5bc9583fc59ebb0407bb65dbcbc98ad25cd96b306",
    "solution_count": 200,
    "trivial_solutions": 50,
    "scanned": 74088,
}


class SabotagedCube(SearchCube):
    """Runs the search with its negative control: exit 5 and a synthetic row."""

    def steps(self, seed: int) -> list[Step]:
        return [Step(s.kind, [*s.args, "--self-test-sabotage"]) for s in super().steps(seed)]


class AlteredLogCube(SearchCube):
    """Flips one bit of the result log after the search exits, before the gate."""

    def check(self, out_dir, codes, ctx, seed):
        log = out_dir / RESULT_LOG
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0x01
        log.write_bytes(bytes(data))
        return super().check(out_dir, codes, ctx, seed)


def result_of(ops: list[bench.Op]) -> dict:
    return bench.report("smoke", 1, bench.Run(ops=ops, traced=[], overheads=[], setup=[0.1]), False)


def test_clean_search_passes(tmp_path):
    op = bench.run_op(SearchCube(3, 3, SMOKE_CUBE), {}, 1, tmp_path / "op")
    assert op.ok, op.problems
    assert op.output_mb > 0
    assert result_of([op])["correct"] is True


def test_sabotaged_search_is_a_failed_operation(tmp_path):
    op = bench.run_op(SabotagedCube(3, 3, SMOKE_CUBE), {}, 1, tmp_path / "op")
    assert any(p.startswith("exit codes") for p in op.problems)
    assert any(p.startswith("counterexamples") for p in op.problems)
    result = result_of([op])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_altered_result_log_is_a_failed_operation(tmp_path):
    op = bench.run_op(AlteredLogCube(3, 3, SMOKE_CUBE), {}, 1, tmp_path / "op")
    assert op.problems and all(p.startswith("result log sha256") for p in op.problems)
    assert result_of([op])["failed"] == 1


def test_sampled_operation_is_scaled_by_a_positive_speed(tmp_path):
    op = bench.run_op(SearchCube(3, 3, SMOKE_CUBE), {}, 1, tmp_path / "op", sampled=True)
    assert op.ok, op.problems
    assert 0 < op.speed < 10
    values = bench.metric_values(bench.Run(ops=[op], traced=[], overheads=[], setup=[0.1]), False)
    assert values["wall_s"] == [op.wall_s * op.speed]


def test_resume_reuses_every_shard_and_logs_identically(tmp_path):
    workload = SearchResume(3, 3, SMOKE_CUBE)
    ctx = workload.prepare(tmp_path, bench.run_step)
    assert ctx["problems"] == []
    op = bench.run_op(workload, ctx, 1, tmp_path / "op")
    assert op.ok, op.problems


def test_traced_library_search_reports_its_layers(tmp_path):
    workload = SearchOrthant((1, 6), (-3, 3), 3, SMOKE_ORTHANT)
    op = bench.run_op(workload, {}, 1, tmp_path / "op", traced=True)
    assert op.ok, op.problems
    layers = op.layers
    assert (layers["search.rows"], layers["search.scanned"]) == (200, 74088)
    assert layers["search.nontrivial_ratio"] == 150 / 200
    assert layers["checkpoint.appends"] == 3
    assert layers["checkpoint.mb"] > 0
    assert layers["checkpoint.read_s"] == 0
    assert layers["search.scan_s"] > 0 and layers["search.classify_s"] > 0
    assert 0 < layers["trace.uncovered_s"] < op.wall_s


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench_dir)
    shutil.copy(HERE / "reference.json", bench_dir)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "search-cube", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
