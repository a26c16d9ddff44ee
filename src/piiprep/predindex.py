"""The prediction index behind unordered scoring (score --unordered).

Predictions are indexed by piiprep.idindex.LineIndex, as validate indexes an
artifact, and each line is read back from the file when its gold record
arrives: about 17.5 bytes per prediction, not its labels. stream_score
imports this module only for unordered scoring.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from pathlib import Path

from piiprep.errors import AlignmentError, RecordError
from piiprep.idindex import _HIGH, _ROW, LineIndex, key_of
from piiprep.jsonl import iter_lines
from piiprep.scorer import _Pairs, _parse_scored_line

__all__ = ["indexed_pairs"]


def indexed_pairs(gold_path: Path, pred_path: Path) -> _Pairs:
    """Pairs matched by id: predictions indexed by offset, then read back.

    The index's keys are sorted, so the rows whose ids share a hash's high
    bits are one run, in row order. used flags the rows already scored.
    """
    gname = gold_path.name
    index = LineIndex(pred_path, _parse_scored_line, None,
                      not_regular="unordered scoring reads predictions twice, "
                                  "so they must be in a regular file",
                      duplicate="duplicate prediction id",
                      changed="prediction file changed while scoring")
    for _ in index:
        pass
    keys = index.keys
    n = len(keys)
    used = bytearray(n)
    # starts[j] is the first key whose top bits are j or more, so a gold id's
    # run is bisected from among about eight keys.
    top = max(n.bit_length() - 3, 0)
    shift = 64 - top
    starts = array("I", (bisect_left(keys, j << shift) for j in range((1 << top) + 1)))
    with index.open() as f, memoryview(keys) as view:
        for lineno, _, line in iter_lines(gold_path):
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
                if not used[key & _ROW]:
                    pid, pred_labels = index.read(f, key)
                    if pid == rid:
                        row = key & _ROW
                        break
            if row < 0:
                # Only a failure reads the run's used rows back: one with rid
                # means an earlier gold record had it.
                for key in run:
                    if key & _HIGH != bits:
                        break
                    if used[key & _ROW] and index.read(f, key)[0] == rid:
                        raise RecordError(f"{gname}:{lineno}: duplicate gold id {rid!r}")
                raise AlignmentError(f"no prediction for gold record {rid!r}")
            used[row] = 1
            yield lineno, rid, gold_labels, pred_labels, row + 1
        row = used.find(0)
        if row >= 0:
            rid, _ = index.read(f, next(key for key in keys if key & _ROW == row))
            raise AlignmentError(f"prediction id {rid!r} has no gold record")
