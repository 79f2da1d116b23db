"""CLI contract: exit codes, schemas, determinism, negative controls."""

import dataclasses
import json
import subprocess
import sys
import time
import types

import jsonschema
import pytest

from fltaudit.audit import AuditConfig
from fltaudit.checkpoint import CANONICAL_JSON, append_record
from fltaudit.cli import (
    EXIT_ABORTED,
    EXIT_AUDIT_DRIFT,
    EXIT_COUNTEREXAMPLE,
    EXIT_IDENTITY,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
)

from checkpoints import dying_scan, read_all


def load_schema(schema_dir, name):
    return json.loads((schema_dir / name).read_text())


def strip_timings(obj):
    """Drop wall-time fields so deterministic content can be compared."""
    if isinstance(obj, dict):
        return {
            key: strip_timings(value)
            for key, value in obj.items()
            if key not in ("elapsed_s", "duration_s")
        }
    if isinstance(obj, list):
        return [strip_timings(item) for item in obj]
    return obj


class TestVerifyIdentity:
    def test_ok_exit_and_schema(self, run_cli, schema_dir, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["verify-identity", "--n-min", 3, "--n-max", 4, "--points", 20,
             "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, load_schema(schema_dir, "verify_identity_report.schema.json"))
        assert payload["all_zero"] is True
        assert payload["seed"] == 1

    def test_usage_error_on_small_exponent(self, run_cli):
        code, _, err = run_cli(["verify-identity", "--n-min", 2])
        assert code == EXIT_USAGE
        assert "n-min" in err

    def test_sabotage_negative_control(self, run_cli):
        code, _, _ = run_cli(
            ["verify-identity", "--n-min", 3, "--n-max", 3, "--points", 0,
             "--self-test-sabotage"]
        )
        assert code == EXIT_IDENTITY

    def test_seed_reproducibility(self, run_cli, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            code, _, _ = run_cli(
                ["verify-identity", "--n-min", 3, "--n-max", 4, "--points", 30,
                 "--seed", 99, "--format", "json", "--out", out_file]
            )
            assert code == EXIT_OK
            files.append(strip_timings(json.loads(out_file.read_text())))
        assert files[0] == files[1]


class TestAudit:
    def test_default_scope_matches_manifest(self, run_cli, schema_dir, tmp_path):
        out_file = tmp_path / "audit.json"
        code, _, _ = run_cli(["audit", "--format", "json", "--out", out_file])
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, load_schema(schema_dir, "audit_report.schema.json"))
        assert payload["manifest_match"] is True
        assert payload["verdict_summary"]["C1"] == "HOLDS"
        assert payload["verdict_summary"]["C2"] == "FAILS"

    def test_sabotage_drifts(self, run_cli):
        code, _, _ = run_cli(["audit", "--self-test-sabotage"])
        assert code == EXIT_AUDIT_DRIFT

    def test_missing_config_file(self, run_cli, tmp_path):
        code, _, err = run_cli(["audit", "--config", tmp_path / "nope.json"])
        assert code == EXIT_USAGE
        assert "not found" in err

    def test_missing_manifest_file(self, run_cli, tmp_path):
        code, _, _ = run_cli(["audit", "--manifest", tmp_path / "nope.json"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("body", ["nope", "[1]", "5"])
    def test_malformed_manifest_is_a_usage_error(self, run_cli, tmp_path, body):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(body)
        code, _, err = run_cli(["audit", "--manifest", manifest])
        assert code == EXIT_USAGE, err
        assert "internal error" not in err

    def test_config_file_overrides(self, run_cli, tmp_path):
        config = tmp_path / "scope.json"
        config.write_text(json.dumps({"c_max": 20, "search_bound": 2, "box_bound": 3}))
        out_file = tmp_path / "audit.json"
        code, _, _ = run_cli(
            ["audit", "--config", config, "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        assert payload["config"]["c_max"] == 20

    @pytest.mark.parametrize(
        "flags, file_scope, changed",
        [
            ([], None, {}),
            (["--n-max", 5], None, {"identity_n_max": 5, "consistency_n_max": 5}),
            (["--c-max", 40], {"c_max": 20}, {"c_max": 20}),
        ],
        ids=["no-flags", "n-max", "config-file-wins"],
    )
    def test_scope_comes_from_audit_config(self, run_cli, tmp_path, flags, file_scope, changed):
        # Only given flags override AuditConfig's defaults; a config file wins over them.
        if file_scope is not None:
            config = tmp_path / "scope.json"
            config.write_text(json.dumps(file_scope))
            flags = [*flags, "--config", config]
        out_file = tmp_path / "audit.json"
        code, _, err = run_cli(["audit", *flags, "--format", "json", "--out", out_file])
        assert code == EXIT_OK, err
        payload = json.loads(out_file.read_text())
        assert payload["config"] == {**dataclasses.asdict(AuditConfig()), **changed}

    def test_unknown_config_key_rejected(self, run_cli, tmp_path):
        config = tmp_path / "scope.json"
        config.write_text(json.dumps({"mystery_knob": 1}))
        code, _, _ = run_cli(["audit", "--config", config])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "body", ["5", '["c_max"]', '{"c_max": "x"}', '{"c_max": 5.5}', '{"search_bound": 2.5}']
    )
    def test_ill_typed_config_is_a_usage_error(self, run_cli, tmp_path, body):
        config = tmp_path / "scope.json"
        config.write_text(body)
        code, _, err = run_cli(["audit", "--config", config])
        assert code == EXIT_USAGE, err
        assert "internal error" not in err

    def test_primitive_even_b_mode_drifts_from_default_manifest(self, run_cli, tmp_path):
        # Restricting to the classical case empties C2, which the default
        # manifest flags as drift (C2 expected FAILS).
        out_file = tmp_path / "audit.json"
        code, _, _ = run_cli(
            ["audit", "--c-max", 15, "--primitive-only", "--even-b-only",
             "--search-bound", 2, "--format", "json", "--out", out_file]
        )
        assert code == EXIT_AUDIT_DRIFT
        payload = json.loads(out_file.read_text())
        assert payload["verdict_summary"]["C2"] == "HOLDS"
        assert payload["claims"][1]["evidence"] == []


class TestSearch:
    def test_clean_box_exit_and_schema(self, run_cli, schema_dir, tmp_path):
        out_file = tmp_path / "search.json"
        code, _, _ = run_cli(
            ["search", "--lower", -2, "--upper", 2, "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, load_schema(schema_dir, "search_report.schema.json"))
        assert payload["counterexamples"] == {"pairwise": 0, "adjacent": 0}
        assert payload["exhausted"] is True

    def test_result_log_lines_validate(self, run_cli, schema_dir, tmp_path):
        log = tmp_path / "solutions.jsonl"
        code, _, _ = run_cli(
            ["search", "--lower", -1, "--upper", 1, "--result-log", log]
        )
        assert code == EXIT_OK
        schema = load_schema(schema_dir, "search_result_line.schema.json")
        lines = log.read_text().splitlines()
        assert lines
        for line in lines:
            jsonschema.validate(json.loads(line), schema)

    def test_empty_box_usage_error(self, run_cli):
        code, _, _ = run_cli(["search", "--lower", 2, "--upper", -2])
        assert code == EXIT_USAGE

    def test_sabotage_counterexample_exit(self, run_cli):
        code, _, _ = run_cli(
            ["search", "--lower", -1, "--upper", 1, "--self-test-sabotage"]
        )
        assert code == EXIT_COUNTEREXAMPLE

    def test_malformed_checkpoint_io_exit(self, run_cli, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage!")
        code, _, err = run_cli(
            ["search", "--lower", -1, "--upper", 1, "--checkpoint", bad]
        )
        assert code == EXIT_IO
        assert "checkpoint" in err

    def test_dead_worker_internal_exit_names_the_resumable_checkpoint(
        self, run_cli, tmp_path, monkeypatch
    ):
        # --workers 2 over 3 shards: three processes, and shard 1's worker dies.
        import fltaudit.search

        cp = tmp_path / "dead.ckpt"
        argv = ["search", "--lower", -2, "--upper", 2, "--shards", 3, "--workers", 2,
                "--checkpoint", cp]
        monkeypatch.setattr(fltaudit.search, "_scan_shard", dying_scan)
        code, _, err = run_cli(argv)
        assert code == EXIT_INTERNAL
        assert "a search worker died" in err and str(cp) in err and "rerun resumes" in err
        monkeypatch.undo()
        code, out, _ = run_cli([*argv, "--format", "json"])
        assert code == EXIT_OK and json.loads(out)["exhausted"]

    def test_checkpoint_record_beyond_its_shard_io_exit(self, run_cli, tmp_path):
        cp = tmp_path / "c.bin"
        argv = ["search", "--lower", -1, "--upper", 1, "--shards", 3, "--checkpoint", cp]
        assert run_cli(argv)[0] == EXIT_OK
        records, _ = read_all(cp)
        records[2]["scanned"] = -5
        cp.unlink()
        for record in records:
            append_record(cp, record)
        code, _, err = run_cli(argv)
        assert code == EXIT_IO
        assert "checkpoint shard 2" in err

    def test_record_over_the_read_bound_io_exit(self, run_cli, tmp_path, monkeypatch):
        # Unit [-2, 2] in 2 shards writes records of 531 and 558 bytes.
        import fltaudit.checkpoint

        monkeypatch.setattr(fltaudit.checkpoint, "MAX_RECORD_BYTES", 200)
        cp = tmp_path / "big.ckpt"
        code, _, err = run_cli(
            ["search", "--lower", -2, "--upper", 2, "--shards", 2, "--checkpoint", cp]
        )
        assert code == EXIT_IO
        assert err.count("\n") == 1
        assert "531 bytes exceeds the 200-byte bound" in err and "more shards" in err
        assert not cp.exists()

    def test_checkpoint_row_outside_the_box_io_exit(self, run_cli, tmp_path):
        cp = tmp_path / "c.bin"
        argv = ["search", "--lower", -2, "--upper", 2, "--checkpoint", cp]
        assert run_cli(argv)[0] == EXIT_OK
        records, _ = read_all(cp)
        records[0]["solutions"].append([1, 1, 1, 2, 1, 1, 99, 5, 7, 0, 2])
        cp.unlink()
        for record in records:
            append_record(cp, record)
        code, _, err = run_cli(argv)
        assert code == EXIT_IO
        assert "checkpoint shard 0" in err

    def test_abort_and_resume_resume_is_byte_identical(self, run_cli, tmp_path):
        straight_log = tmp_path / "straight.jsonl"
        code, _, _ = run_cli(
            ["search", "--lower", -2, "--upper", 2, "--shards", 4,
             "--result-log", straight_log]
        )
        assert code == EXIT_OK

        cp = tmp_path / "resume.ckpt"
        resumed_log = tmp_path / "resumed.jsonl"
        code, _, err = run_cli(
            ["search", "--lower", -2, "--upper", 2, "--shards", 4,
             "--checkpoint", cp, "--self-test-abort-after", 2]
        )
        assert code == EXIT_ABORTED
        assert "abort" in err.lower()

        code, _, _ = run_cli(
            ["search", "--lower", -2, "--upper", 2, "--shards", 4,
             "--checkpoint", cp, "--result-log", resumed_log, "--format", "json",
             "--out", tmp_path / "resumed.json"]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "resumed.json").read_text())
        assert payload["shards_reused"] == 2
        assert straight_log.read_bytes() == resumed_log.read_bytes()


class TestScanFlt:
    def test_squares_include_classics(self, run_cli, schema_dir, tmp_path):
        out_file = tmp_path / "scan.json"
        code, _, _ = run_cli(
            ["scan-flt", "--base-max", 15, "--n-min", 2, "--n-max", 2,
             "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, load_schema(schema_dir, "flt_scan_report.schema.json"))
        solutions = payload["records"][0]["solutions"]
        assert [3, 4, 5] in solutions
        assert [5, 12, 13] in solutions

    def test_cubes_empty(self, run_cli, tmp_path):
        out_file = tmp_path / "scan.json"
        code, _, _ = run_cli(
            ["scan-flt", "--base-max", 30, "--n-min", 3, "--n-max", 4,
             "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        assert payload["total_solutions"] == 0

    def test_powers_beyond_float_range(self, run_cli, tmp_path):
        out_file = tmp_path / "scan.json"
        code, _, _ = run_cli(
            ["scan-flt", "--base-max", 20, "--n-min", 300, "--n-max", 300,
             "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["total_solutions"] == 0

    def test_usage_errors(self, run_cli):
        assert run_cli(["scan-flt", "--base-max", 0])[0] == EXIT_USAGE
        assert run_cli(["scan-flt", "--n-min", 1])[0] == EXIT_USAGE


class TestRepresent:
    def test_found(self, run_cli, schema_dir, tmp_path):
        out_file = tmp_path / "rep.json"
        code, _, _ = run_cli(
            ["represent", 3, 4, 5, "--format", "json", "--out", out_file]
        )
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        jsonschema.validate(payload, load_schema(schema_dir, "represent_report.schema.json"))
        assert payload["representation"] == {"p": 2, "q": 1}

    def test_streamed_report_is_the_one_call_encoding(self, run_cli, tmp_path, monkeypatch):
        # Every subcommand's report is written in pieces; its bytes must be one
        # canonical line, the same to a file and to stdout.  The default audit
        # and this scan-flt hold lists longer than a piece (C5's 522 items,
        # 351 triples), and the general search 48 counterexample rows.
        still = types.SimpleNamespace(perf_counter=lambda: 0.0)  # timers read 0 in both runs
        monkeypatch.setattr("fltaudit.audit.time", still)
        monkeypatch.setattr("fltaudit.lemma.time", still)
        runs = [
            (["audit"], EXIT_OK),
            (["verify-identity", "--n-max", 5, "--points", 20], EXIT_OK),
            (["search", "--case", "general", "--lower", -2, "--upper", 2], EXIT_COUNTEREXAMPLE),
            (["scan-flt", "--base-max", 400, "--n-min", 2, "--n-max", 2], EXIT_OK),
            (["represent", 3, 4, 5], EXIT_OK),
        ]
        for argv, want_code in runs:
            out_file = tmp_path / "report.json"
            code, _, _ = run_cli([*argv, "--format", "json", "--out", out_file])
            assert code == want_code, argv
            written = out_file.read_text(encoding="utf-8")
            assert written == CANONICAL_JSON.encode(json.loads(written)) + "\n", argv
            assert run_cli([*argv, "--format", "json"])[1] == written, argv

    def test_none_still_exit_zero(self, run_cli):
        code, out, _ = run_cli(["represent", 9, 12, 15])
        assert code == EXIT_OK
        assert out.strip() == "none"

    def test_zero_triple(self, run_cli):
        code, out, _ = run_cli(["represent", 0, 0, 0])
        assert code == EXIT_OK
        assert out.strip() == "none"

    def test_text_output(self, run_cli):
        code, out, _ = run_cli(["represent", 3, 4, 5])
        assert code == EXIT_OK
        assert out.strip() == "p=2 q=1"

    def test_non_integer_rejected(self, run_cli):
        code, _, _ = run_cli(["represent", "three", 4, 5])
        assert code == EXIT_USAGE

    def test_large_inputs_answer_at_once(self):
        # A walk over p up to sqrt(C) would run far past the timeout here.
        cases = [
            (["1", "2", "100000000000000"], "none"),
            (["9999999999999999", "200000000", "10000000000000001"], "p=100000000 q=1"),
        ]
        for args, expected in cases:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "fltaudit", "represent", *args],
                capture_output=True,
                text=True,
                timeout=10,
            )
            assert proc.returncode == EXIT_OK
            assert proc.stdout.strip() == expected
            assert time.perf_counter() - started < 2  # interpreter start included


class TestParserBasics:
    def test_missing_subcommand(self, run_cli):
        code, _, _ = run_cli([])
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, run_cli):
        code, _, _ = run_cli(["frobnicate"])
        assert code == EXIT_USAGE

    def test_bad_format_value(self, run_cli):
        code, _, _ = run_cli(["represent", 3, 4, 5, "--format", "xml"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, flag",
        [("search", "--checkpoint"), ("search", "--result-log"), ("search", "--out"),
         ("audit", "--config"), ("audit", "--manifest")],
    )
    def test_empty_path_is_a_usage_error(self, run_cli, tmp_path, monkeypatch, command, flag):
        # Path("") is Path("."): refused at parse time, before any work.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([command, flag, ""])
        assert code == EXIT_USAGE
        assert f"argument {flag}: empty path" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unexpected_exception_exits_internal(self, run_cli, monkeypatch):
        import fltaudit.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_represent", broken)
        code, out, err = run_cli(["represent", 3, 4, 5])
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "fltaudit: internal error: RuntimeError: boom\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fltaudit", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fltaudit" in proc.stdout

    def test_search_determinism_across_processes(self, tmp_path):
        outputs = []
        for name in ("one.json", "two.json"):
            out_file = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "fltaudit", "search", "--lower", "-1",
                 "--upper", "1", "--shards", "3", "--format", "json",
                 "--out", str(out_file)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            outputs.append(strip_timings(json.loads(out_file.read_text())))
        assert outputs[0] == outputs[1]
