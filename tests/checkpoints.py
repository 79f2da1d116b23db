"""Reading a whole checkpoint in tests, through the one-record-at-a-time reader."""

from fltaudit.checkpoint import read_records


def read_all(path):
    """Every record of the checkpoint at ``path``, and whether a truncated tail was cut."""
    records, reader = [], read_records(path)
    while True:
        try:
            records.append(next(reader))
        except StopIteration as stop:
            return records, stop.value
