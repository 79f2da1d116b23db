"""Length-prefixed checkpoint records for resumable shard searches.

File layout: a sequence of records, each a 4-byte big-endian payload length
followed by that many bytes of canonical JSON.  Records are appended and
fsync'd one per completed shard, the first with its directory, so a crash
can only ever leave a truncated tail behind the last complete record.
Reading yields the records one at a time and, once past the last complete
one, cuts that tail from the file, so a record appended after it stays
readable (the interrupted shard simply reruns); anything else that does not
decode is reported as corruption.

A search record is the header ``fltaudit.search._record_header`` declares
plus the shard's rows under ``solutions``.  A resume checks its header and
rows, and reads records of formats 1 and 2 into format 3 by the one rule of
``fltaudit.search``: outside a square block, a prefix's rows must be its
class entry's.  So an entry deleted there is refused in formats 1 and 2;
only a rescan finds a square block's row, or the only entry of a prefix (as
a format-3 class entry is), missing.

``canonical_pieces`` is the one writer of canonical JSON text of any size:
it writes each record here and every ``--format json`` report of the CLI.
"""

from __future__ import annotations

import json
import os
import struct
from itertools import chain
from pathlib import Path
from typing import Any, Generator, Iterator, Sequence

__all__ = [
    "CANONICAL_JSON",
    "CheckpointError",
    "append_record",
    "canonical_pieces",
    "read_records",
]

_LENGTH = struct.Struct(">I")

# Sanity bound on a single record; a length prefix beyond this is garbage,
# not a plausibly truncated write.  No record larger than this is written.
MAX_RECORD_BYTES = 1 << 28

# The canonical form of every record, report, result-log line and search
# signature: keys sorted, no spaces.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The C encoder holds a string for every value it writes until it joins
# them, several times the size of its output, so a longer list is encoded
# this many items at a time.
_ITEMS_PER_CALL = 256
_SEQUENCES = frozenset((list, tuple))
_CONTAINERS = _SEQUENCES | {dict}


class CheckpointError(Exception):
    """The checkpoint file content is not usable for this run."""


def _holds_long_list(values: Sequence[Any]) -> bool:
    """Whether any of ``values`` is or holds a list longer than ``_ITEMS_PER_CALL``.

    It looks one depth at a time, so a depth of scalars, such as the ints of
    a chunk of rows, costs one pass in C.
    """
    while values:
        kinds = set(map(type, values))
        if kinds.isdisjoint(_CONTAINERS):
            return False
        seqs = values if kinds <= _SEQUENCES else [v for v in values if type(v) in _SEQUENCES]
        if seqs and max(map(len, seqs)) > _ITEMS_PER_CALL:
            return True
        nested = [*chain.from_iterable(seqs)]
        if dict in kinds:
            nested += chain.from_iterable([v.values() for v in values if type(v) is dict])
        values = nested
    return False


def canonical_pieces(value: Any) -> Iterator[str]:
    """``CANONICAL_JSON.encode(value)`` in pieces, each from one C-encoder call.

    A list longer than ``_ITEMS_PER_CALL`` is encoded that many items per
    call, and a container holding such a list is opened, so no call holds
    the text of more than a bounded share of ``value``.
    """
    if not _holds_long_list([value]):
        yield CANONICAL_JSON.encode(value)
        return
    if type(value) is dict:
        sep = "{"
        for key in sorted(value):
            # The key as the encoder writes it: a key that is not a str is quoted.
            yield sep + CANONICAL_JSON.encode({key: 0})[1:-3] + ":"
            yield from canonical_pieces(value[key])
            sep = ","
        yield "}"
        return
    sep = "["
    for i in range(0, len(value), _ITEMS_PER_CALL):
        chunk = value[i : i + _ITEMS_PER_CALL]
        if _holds_long_list(chunk):
            for item in chunk:
                yield sep
                yield from canonical_pieces(item)
                sep = ","
        else:
            yield sep + CANONICAL_JSON.encode(chunk)[1:-1]
            sep = ","
    yield "]"


def append_record(path: str | Path, record: dict) -> None:
    """Append one record and force it to disk before returning.

    The payload is the canonical JSON of ``record``.  A payload that
    ``read_records`` would refuse is refused before the file is opened.
    The first record also syncs the file's directory: a file's fsync does
    not make durable the directory entry that names it.
    """
    payload = "".join(canonical_pieces(record)).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise CheckpointError(
            f"record of {len(payload)} bytes exceeds the {MAX_RECORD_BYTES}-byte bound "
            "a resume reads; more shards make smaller records"
        )
    with open(path, "ab") as handle:
        first = handle.tell() == 0
        handle.write(_LENGTH.pack(len(payload)))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    if first:
        directory = os.open(Path(path).parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


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
