"""The prediction index behind unordered scoring (score --unordered).

Every prediction line is checked and indexed by its byte offset and id
hash, and read back from the file when its gold record arrives, so memory
grows by about 17.5 bytes per prediction, not by its labels. stream_score
imports this module only for unordered scoring.
"""

from __future__ import annotations

import os
import stat
from array import array
from bisect import bisect_left
from itertools import pairwise
from pathlib import Path
from typing import Callable, Sequence

from piiprep.errors import AlignmentError, RecordError
from piiprep.jsonl import iter_lines
from piiprep.scorer import _Pairs, _parse_scored_line

__all__ = ["indexed_pairs"]

# Every prediction id is hashed through this one name, so a test can force
# hash collisions by replacing it.
_id_hash = hash

# An index key is an id hash, taken modulo 2**64, with its low 32 bits
# replaced by the row: _HIGH selects the hash bits and _ROW the row.
_ROW = (1 << 32) - 1
_HIGH = (1 << 64) - 1 - _ROW


def _first_duplicate(keys: Sequence[int], read_id: Callable[[int], str]) -> tuple[int, str] | None:
    """The earliest row whose id an earlier row also has, with that id.

    Equal ids have keys with equal high bits, so only neighbours whose high
    bits are equal are read back. Such a run is in row order, the row being
    the low bits.
    """
    found = None
    run: set[str] = set()  # the ids read back in the current run
    for a, b in pairwise(keys):
        if (a ^ b) & _HIGH:
            if run:
                run.clear()
            continue
        if not run:
            run.add(read_id(a))
        rid, row = read_id(b), b & _ROW
        if rid in run and (found is None or row < found[0]):
            found = row, rid
        run.add(rid)
    return found


def indexed_pairs(gold_path: Path, pred_path: Path) -> _Pairs:
    """Pairs matched by id: predictions indexed by offset, then read back.

    Row r of the index is prediction line r + 1 (a blank line is an error,
    so every line is a row), from byte offsets[r] to offsets[r + 1]. keys
    holds the rows' keys sorted, so the rows whose ids share a hash's high
    bits are one run, in row order. used flags the rows already scored.
    With the directory of the keys, about 17.5 bytes per row in all.
    """
    gname, pname = gold_path.name, pred_path.name
    # A pipe could be read once only; opening a named one again would hang.
    # Checked before the index pass, which would read the whole stream first.
    if not stat.S_ISREG(os.stat(pred_path).st_mode):
        raise RecordError(f"{pname}: unordered scoring reads predictions twice, "
                          "so they must be in a regular file")
    # Keys are sorted a sixteenth at a time, split by their top four bits, so
    # the list that sorted() makes holds a sixteenth of them.
    offsets, parts = array("Q"), [array("Q") for _ in range(16)]
    for lineno, offset, line in iter_lines(pred_path):
        rid, _ = _parse_scored_line(line, lineno, pname)
        offsets.append(offset)
        key = _id_hash(rid) & _HIGH | lineno - 1
        parts[key >> 60].append(key)
    n = len(offsets)
    if n > _ROW:
        raise RecordError(f"{pname}: unordered scoring takes at most {_ROW} predictions")
    offsets.append(offset + len(line.encode("utf-8")) if n else 0)
    keys = array("Q")
    for i in range(16):
        keys.extend(sorted(parts[i]))
        parts[i] = None
    used = bytearray(n)
    # starts[j] is the first key whose top bits are j or more, so a gold id's
    # run is bisected from among about eight keys.
    top = max(n.bit_length() - 3, 0)
    shift = 64 - top
    starts = array("I", (bisect_left(keys, j << shift) for j in range((1 << top) + 1)))
    with pred_path.open("rb") as pf, memoryview(keys) as view:
        fd = pf.fileno()

        def read_back(key: int) -> tuple[str, list]:
            """Id and labels of the row in a key's low bits, as the file now has them.

            The line was fully checked when it was indexed; one that no longer
            parses, or whose id no longer hashes to the key's high bits, means
            the file changed between the two passes.
            """
            row = key & _ROW
            start = offsets[row]
            try:
                line = os.pread(fd, offsets[row + 1] - start, start).decode("utf-8")
                rid, labels = _parse_scored_line(line, 0, pname)
            except (UnicodeDecodeError, RecordError):
                rid = None
            if rid is None or (_id_hash(rid) ^ key) & _HIGH:
                raise RecordError(f"{pname}:{row + 1}: prediction file changed while scoring")
            return rid, labels

        duplicate = _first_duplicate(keys, lambda key: read_back(key)[0])
        if duplicate is not None:
            row, rid = duplicate
            raise RecordError(f"{pname}:{row + 1}: duplicate prediction id {rid!r}")
        for lineno, _, line in iter_lines(gold_path):
            rid, gold_labels = _parse_scored_line(line, lineno, gname)
            bits = _id_hash(rid) & _HIGH
            j = bits >> shift
            # rid's row is in the run of keys with these high bits, with the
            # rows of any other ids whose hashes collide with it there.
            row = -1
            for key in view[bisect_left(keys, bits, starts[j], starts[j + 1]):]:
                if key & _HIGH != bits:
                    break
                if not used[key & _ROW]:
                    pid, pred_labels = read_back(key)
                    if pid == rid:
                        row = key & _ROW
                        break
            if row < 0:
                raise AlignmentError(f"no prediction for gold record {rid!r}")
            used[row] = 1
            yield lineno, rid, gold_labels, pred_labels, row + 1
        row = used.find(0)
        if row >= 0:
            rid, _ = read_back(next(key for key in keys if key & _ROW == row))
            raise AlignmentError(f"prediction id {rid!r} has no gold record")
