"""Checkpoint helpers for tests: a whole checkpoint read through the
one-record-at-a-time reader, and a shard scan whose worker dies."""

import os

from fltaudit.checkpoint import read_records
from fltaudit.search import _scan_shard


def read_all(path):
    """Every record of the checkpoint at ``path``, and whether a truncated tail was cut."""
    records, reader = [], read_records(path)
    while True:
        try:
            records.append(next(reader))
        except StopIteration as stop:
            return records, stop.value


def dying_scan(space, shard_id):
    """``_scan_shard``, but the process scanning shard 1 exits at once, as if killed.

    Module-level, so that a process pool can pickle it.
    """
    if shard_id == 1:
        os._exit(1)
    return _scan_shard(space, shard_id)
