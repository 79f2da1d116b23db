"""Length-prefixed checkpoint records for resumable shard searches.

File layout: a sequence of records, each a 4-byte big-endian payload length
followed by that many bytes of canonical JSON.  Records are appended and
fsync'd one per completed shard, so a crash can only ever leave a truncated
tail behind the last complete record.  Reading yields the records one at a
time and, once past the last complete one, cuts that tail from the file, so
a record appended after it stays readable (the interrupted shard simply
reruns); anything else that does not decode is reported as corruption.

A search record is the header ``fltaudit.search._record_header`` declares
plus the shard's rows under ``solutions``; a resume checks its header and
rows, though not that it holds every entry (see ``fltaudit.search``).
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Generator

__all__ = ["CANONICAL_JSON", "CheckpointError", "append_record", "read_records"]

_LENGTH = struct.Struct(">I")

# Sanity bound on a single record; a length prefix beyond this is garbage,
# not a plausibly truncated write.  No record larger than this is written.
MAX_RECORD_BYTES = 1 << 28

# The canonical form of every record, result-log line and search signature:
# keys sorted, no spaces.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The C encoder holds a string for every value it writes until it joins
# them, several times the size of its output, so a record's rows are
# encoded this many at a time.
_ROWS_PER_CALL = 256


class CheckpointError(Exception):
    """The checkpoint file content is not usable for this run."""


def append_record(path: str | Path, record: dict) -> None:
    """Append one record and force it to disk before returning.

    The payload is the canonical JSON of ``record``, whose rows are under
    ``"solutions"``; no key that sorts after it may hold another one.  A
    payload that ``read_records`` would refuse is refused before the file is
    opened.
    """
    rows = record["solutions"]
    head, tail = CANONICAL_JSON.encode({**record, "solutions": []}).rsplit('"solutions":[]', 1)
    parts = (
        CANONICAL_JSON.encode(rows[i : i + _ROWS_PER_CALL])[1:-1]
        for i in range(0, len(rows), _ROWS_PER_CALL)
    )
    payload = f'{head}"solutions":[{",".join(parts)}]{tail}'.encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise CheckpointError(
            f"record of {len(payload)} bytes exceeds the {MAX_RECORD_BYTES}-byte bound "
            "a resume reads; more shards make smaller records"
        )
    with open(path, "ab") as handle:
        handle.write(_LENGTH.pack(len(payload)))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def read_records(path: str | Path) -> Generator[dict, None, bool]:
    """Each complete record in file order; returns whether a truncated tail was cut.

    Records are read and decoded one at a time, so neither the file nor its
    records are ever held whole.  The tail is cut once the last complete
    record has been yielded.
    """
    offset = 0
    with open(path, "rb") as handle:
        while header := handle.read(_LENGTH.size):
            if len(header) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack(header)
            if length > MAX_RECORD_BYTES:
                raise CheckpointError(
                    f"record length {length} at byte {offset} exceeds the sanity bound"
                )
            payload = handle.read(length)
            if len(payload) < length:
                break
            try:
                record = json.loads(payload)
            except ValueError as exc:
                raise CheckpointError(f"undecodable record at byte {offset}: {exc}") from exc
            if not isinstance(record, dict):
                raise CheckpointError(f"record at byte {offset} is not an object")
            yield record
            offset += _LENGTH.size + length
        else:
            return False
    with open(path, "r+b") as handle:
        handle.truncate(offset)
        os.fsync(handle.fileno())
    return True
