"""The canonical JSON writer shared by checkpoint records and CLI reports."""

import argparse
import tracemalloc

import pytest

from fltaudit.checkpoint import CANONICAL_JSON, canonical_pieces
from fltaudit.cli import _emit


def items(count):
    return [{"point": [i, -i, 0.5 * i], "k": None, "ok": i % 2 == 0} for i in range(count)]


class TestCanonicalPieces:
    @pytest.mark.parametrize("count", [0, 255, 256, 257, 513])
    def test_pieces_join_to_the_one_call_encoding(self, count):
        big = items(count)
        payloads = [
            big,
            tuple(big),
            [{"evidence": big, "id": "C5"}, None],  # a big list in a dict in a list
            {"a": big, "b": [-1, 2.5, None], "solutions": big, "z": {"w": big}},
            {3: big, -1: [None], 2.0: "x"},  # keys that are not str are quoted
        ]
        for payload in payloads:
            assert "".join(canonical_pieces(payload)) == CANONICAL_JSON.encode(payload)

    def test_a_long_list_goes_256_items_per_piece(self):
        big = items(513)
        encode = CANONICAL_JSON.encode
        assert list(canonical_pieces({"evidence": big, "z": 1})) == [
            '{"evidence":',
            "[" + encode(big[:256])[1:-1],
            "," + encode(big[256:512])[1:-1],
            "," + encode(big[512:])[1:-1],
            "]",
            ',"z":',
            "1",
            "}",
        ]
        assert len(list(canonical_pieces(items(256)))) == 1
        assert len(list(canonical_pieces(items(257)))) == 3

    def test_a_short_list_holding_a_long_one_is_opened(self):
        nested = [[items(300)], [1, -2, None, 3.25]]
        pieces = list(canonical_pieces(nested))
        assert "".join(pieces) == CANONICAL_JSON.encode(nested)
        assert max(map(len, pieces)) <= len(CANONICAL_JSON.encode(items(300)[:256]))

    def test_small_values_are_one_piece(self):
        for value in (None, -7, 2.5, "x", [], {}, [[-1, None]] * 256, {"a": {"b": [1.5]}}):
            assert list(canonical_pieces(value)) == [CANONICAL_JSON.encode(value)]


class TestReportMemory:
    def test_writing_a_large_report_holds_a_bounded_share(self, tmp_path):
        # A one-call encoding holds at least its whole text, here 1.6 MB, and
        # peaks at 4.2 MB; writing the pieces peaks near 64 KB.
        payload = {"claims": [{"evidence": [{"point": i} for i in range(100_000)]}]}
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            _emit(argparse.Namespace(format="json", out=out), payload, "")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = CANONICAL_JSON.encode(payload)
        assert out.read_text(encoding="utf-8") == text + "\n"
        assert len(text) > 1_000_000
        assert peak < 512 * 1024
