"""The prediction index behind unordered scoring (score --unordered).

Predictions are indexed by piiprep.idindex.LineIndex, as validate indexes an
artifact, and each line is read back from the file when its gold record
arrives: about 17.5 bytes per prediction, not its labels. splitscore's
score_unordered builds the index once, in the calling process, and then
forks its workers, which share the index's pages with it. Each process runs
gold_pairs over its own range of gold lines, flagging the rows it used in a
bitmap (a bit a prediction), and the calling process then checks that every
prediction was used. Only unordered scoring imports this module.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice
from pathlib import Path

from piiprep.errors import AlignmentError, RecordError
from piiprep.idindex import _HIGH, _ROW, LineIndex, key_of
from piiprep.jsonl import iter_lines
from piiprep.scorer import _Pairs, _parse_scored_line

__all__ = ["check_all_used", "gold_pairs", "no_rows_used", "prediction_index"]


def prediction_index(pred_path: Path) -> LineIndex:
    """The index of a prediction file, before its pass (or its load)."""
    return LineIndex(pred_path, _parse_scored_line, None,
                     not_regular="unordered scoring reads predictions twice, "
                                 "so they must be in a regular file",
                     duplicate="duplicate prediction id",
                     changed="prediction file changed while scoring")


def no_rows_used(index: LineIndex) -> bytearray:
    """A bitmap of index's rows with none flagged: row r is bit r % 8 of byte r // 8."""
    return bytearray((len(index.keys) + 7) // 8)


def gold_pairs(index: LineIndex, f, gold_path: Path, used: bytearray, start: int = 0,
               first_line: int = 1, lines: int | None = None) -> _Pairs:
    """The pairs of gold lines from byte offset start, line first_line, matched by id.

    f is the prediction file as index.open() opens it. Reading stops after
    lines gold lines (None: at the end of the file). used is a bitmap, as
    no_rows_used makes it, of the rows already scored, and each row scored
    here is flagged in it. The index's keys are sorted, so the rows whose ids
    share a hash's high bits are one run, in row order.
    """
    gname = gold_path.name
    keys = index.keys
    n = len(keys)
    # starts[j] is the first key whose top bits are j or more, so a gold id's
    # run is bisected from among about eight keys.
    top = max(n.bit_length() - 3, 0)
    shift = 64 - top
    starts = array("I", (bisect_left(keys, j << shift) for j in range((1 << top) + 1)))
    with memoryview(keys) as view:
        for lineno, _, line in islice(iter_lines(gold_path, start, first_line), lines):
            rid, gold_labels = _parse_scored_line(line, lineno, gname)
            bits = key_of(rid, 0)
            j = bits >> shift
            # rid's row is in the run of keys with these high bits, with the
            # rows of any other ids whose hashes collide with it there.
            run = view[bisect_left(keys, bits, starts[j], starts[j + 1]):]
            row = -1
            for key in run:
                if key & _HIGH != bits:
                    break
                r = key & _ROW
                if not used[r >> 3] >> (r & 7) & 1:
                    pid, pred_labels = index.read(f, key)
                    if pid == rid:
                        row = r
                        break
            if row < 0:
                # Only a failure reads the run's used rows back: one with rid
                # means an earlier gold record had it.
                for key in run:
                    if key & _HIGH != bits:
                        break
                    r = key & _ROW
                    if used[r >> 3] >> (r & 7) & 1 and index.read(f, key)[0] == rid:
                        raise RecordError(f"{gname}:{lineno}: duplicate gold id {rid!r}")
                raise AlignmentError(f"no prediction for gold record {rid!r}")
            used[row >> 3] |= 1 << (row & 7)
            yield lineno, rid, gold_labels, pred_labels, row + 1


def check_all_used(index: LineIndex, f, used: int) -> None:
    """Fail naming the first prediction, in file order, that no gold record used.

    used is the bitmap of the rows used as one int: row r is bit r.
    """
    unused = ~used & ((1 << len(index.keys)) - 1)
    if unused:
        row = (unused & -unused).bit_length() - 1
        rid, _ = index.read(f, next(key for key in index.keys if key & _ROW == row))
        raise AlignmentError(f"prediction id {rid!r} has no gold record")
