"""The normalized result log of a search: one canonical JSON line per solution.

A line is the object of a row's eleven variables plus the fields of its
report, keys sorted, so d, e and f are neighbours in every line.  The log is
written 256 lines at a time from the result's entries, a spill piece at a
time, and its bytes are frozen.

An explicit row fills its report's template.  The rows of a class entry form
a bound group: every line of the group is a head, the (d, e) text of its
row, the f text and a tail, and the head and tail are bound once per p and
chain bits of the group.  The order of those pieces depends only on the
entry's free axes and on whether q is 0 (where every row shares p = 0), so
a skeleton of indices into the group's parts table is built at the first
entry of each of those at most 16 shapes and reused by the rest; a write is
one join of a slice of it through the table.
"""

from __future__ import annotations

from array import array
from itertools import groupby, product
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .checkpoint import CANONICAL_JSON
from .search import (
    _DEF_MASK,
    _PREFIX,
    _REPORTS,
    ROW_VARS,
    ConditionReport,
    SearchResult,
    _class_rows,
    _diagonal,
    _family_cells,
    _free_axes,
    _readings,
    _run_table,
)

__all__ = ["write_result_log"]

# The d, e, f slots left open when a group's line is bound.
_DEF_OPEN = ["%d"] * 3
# Lines joined into each write of the result log.
_LINES_PER_WRITE = 256
# A run of more f values than this is written by a join over f's texts, not
# by an index per piece of each line, so no skeleton is sized by f's range.
_LONG_RUN = 16


def _flag_fields(report: ConditionReport) -> dict:
    """The result-log fields that depend only on a row's report."""
    return {
        "conditions": report.as_dict(),
        "counterexample": _readings(report),
        "adjacent_def_admissible": report.admissible_with_adjacent_def,
        "trivial": report.trivial,
    }


def _line_template(report: ConditionReport) -> tuple[str, Callable[[Sequence], tuple]]:
    """The log line of ``report``'s rows as a ``%`` template and its row picker.

    ``template % pick(row)`` is the line ``CANONICAL_JSON`` writes for the
    object of ``row``'s variables plus ``_flag_fields(report)``: the flag
    values are encoded once, and each row variable is a ``%s`` slot.  A row
    holding ``"%d"`` in a slot leaves that slot open: that is how a group's
    line is bound with d, e and f still to fill.
    """
    flags = _flag_fields(report)
    keys = sorted(ROW_VARS + tuple(flags))
    encode = CANONICAL_JSON.encode
    parts = [
        f"{encode(key)}:%s" if key in ROW_VARS
        else f"{encode(key)}:{encode(flags[key]).replace('%', '%%')}"
        for key in keys
    ]
    pick = itemgetter(*(ROW_VARS.index(key) for key in keys if key in ROW_VARS))
    return "{" + ",".join(parts) + "}\n", pick


def _skeleton(
    cells: Iterator[tuple], firsts: dict[int, int], free: Sequence[range], bound: int
) -> tuple[list, list[tuple[int, int]]]:
    """A bound group's lines as indices into its parts table, and the table's bindings.

    The table holds each (d, e) text of the box, then each f text, then from
    index ``bound`` a head and a tail per binding.  A line is four indices:
    head, (d, e), f and tail.  A binding ``(first, bits)`` is the line of
    the group's entry ``first`` at those chain bits; ``firsts`` maps each
    ``p << 9 | code`` key of the group to its first entry.  The lines go in
    arrays, cut at each run of more than ``_LONG_RUN`` f values, which comes
    as ``(head, de, i, j)`` for the values ``f_range[i:j]``.
    """
    d_range, e_range, f_range = free
    first_f = len(d_range) * len(e_range)
    typecode = "H" if bound + 6 * len(firsts) <= 1 << 16 else "I"
    f_column = array(typecode, range(first_f, first_f + len(f_range)))
    segments: list = []
    lines = array(typecode)
    heads: dict[int, int] = {}  # key | bits -> the index of its binding's head
    bindings: list[tuple[int, int]] = []
    for d, e, (runs, fixed, other), leaves in cells:
        de = (d - d_range.start) * len(e_range) + e - e_range.start
        for f, (_, _, key) in leaves:
            at = None if f is None else f - f_range.start
            for bits, i, j in runs if at is None else ((fixed.get(f, other), at, at + 1),):
                head = heads.get(key | bits)
                if head is None:
                    head = heads[key | bits] = bound + 2 * len(bindings)
                    bindings.append((firsts[key], bits))
                if j - i > _LONG_RUN:
                    segments += lines, (head, de, i, j)
                    lines = array(typecode)
                    continue
                run = array(typecode, (head, de, 0, head + 1)) * (j - i)
                run[2::4] = f_column[i:j]
                lines += run
    segments.append(lines)
    return segments, bindings


def write_result_log(result: SearchResult, path: str | Path) -> None:
    """Write the normalized result log: one canonical JSON object per solution.

    Each run of entries sharing (alpha, beta, gamma, a, b, c) is written in
    turn.  Explicit rows fill their reports' templates.  A class entry is a
    bound group: its bindings fill the parts table, and its skeleton is
    joined through the table a write at a time.  The skeleton is reused from
    an earlier entry of the same shape, or built by ``_skeleton`` over
    ``_family_cells``, the one place a class entry is expanded here.  So
    memory holds one piece of the spill, one (d, e) table, at most 16
    skeletons and two writes' bytes.
    """
    templates: dict[int, tuple] = {}  # report code -> its line template and picker
    free = tuple(result.space.values_of(name) for name in "def")
    table = None
    skeletons: dict[tuple, tuple] = {}  # a class entry's shape -> its skeleton

    def fill(code: int, row: Sequence) -> str:
        entry = templates.get(code)
        if entry is None:
            entry = templates[code] = _line_template(_REPORTS[code])
        return entry[0] % entry[1](row)

    with open(path, "wb") as handle:
        batch: list[bytes] = []
        room = _LINES_PER_WRITE  # lines the current write has room for

        def put(count: int, lines: Callable[[int, int], bytes]) -> None:
            # A run's lines 0..count-1, as lines(i, j) pieces cut where a write fills.
            nonlocal room
            i = 0
            while i < count:
                j = min(count, i + room)
                batch.append(lines(i, j))
                room -= j - i
                i = j
                if not room:
                    handle.write(b"".join(batch))
                    batch.clear()
                    room = _LINES_PER_WRITE

        for _, group in groupby(result._stored(), lambda stored: _PREFIX(stored[0])):
            group, codes = zip(*group)
            entry, q = group[0], group[0][10]
            if None not in entry:
                put(len(group), lambda i, j: "".join(map(fill, codes[i:j], group[i:j])).encode())
                continue
            if table is None:
                table = _run_table(*free)
                parts = [f'{d},"e":{e},"f":'.encode() for d, e in product(*free[:2])]
                f_texts = [str(f).encode() for f in free[2]]
                parts += f_texts
                bound, pick = len(parts), parts.__getitem__
            # A class entry's shape is its free axes and whether q is 0, and
            # its row at point i of its walk has p = m**2 q.
            shape = _free_axes(entry), not q
            walk = _diagonal(free, shape[0])
            base = codes[0] & ~_DEF_MASK
            found = skeletons.get(shape)
            if found is None:
                rows = _class_rows(entry, free)
                # Each p << 9 | base key of the rows, to the first row that has it.
                firsts = {row[9] << 9 | base: i for i, row in reversed([*enumerate(rows)])}
                cells = _family_cells(rows, codes[0], free, table)
                found = skeletons[shape] = _skeleton(cells, firsts, free, bound)
            segments, bindings = found
            del parts[bound:]
            for first, bits in bindings:
                line = fill(base | bits, [*entry[:6], *_DEF_OPEN, walk[first][0] ** 2 * q, q])
                parts += line.encode().split(b"%d")[::3]
            for segment in segments:
                if type(segment) is not tuple:
                    put(len(segment) // 4, lambda i, j: b"".join(map(pick, segment[4 * i : 4 * j])))
                    continue
                head, de, i, j = segment
                head, tail = parts[head] + parts[de], parts[head + 1]
                sep = tail + head
                put(j - i, lambda a, b: head + sep.join(f_texts[i + a : i + b]) + tail)
        handle.write(b"".join(batch))
