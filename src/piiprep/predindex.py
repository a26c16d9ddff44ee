"""The prediction index behind unordered scoring (score --unordered).

Every prediction line is checked and indexed by its byte offset and id
hash, and read back from the file when its gold record arrives, so memory
grows by about 17.5 bytes per prediction, not by its labels. stream_score
imports this module only for unordered scoring.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from pathlib import Path

from piiprep.errors import AlignmentError, RecordError
from piiprep.idindex import _HIGH, _ROW, IdKeys, duplicates, key_of
from piiprep.jsonl import iter_lines, require_regular_file
from piiprep.scorer import _Pairs, _parse_scored_line

__all__ = ["indexed_pairs"]


def indexed_pairs(gold_path: Path, pred_path: Path) -> _Pairs:
    """Pairs matched by id: predictions indexed by offset, then read back.

    Row r of the index is prediction line r + 1 (a blank line is an error,
    so every line is a row), from byte offsets[r] to offsets[r + 1]. keys
    holds the rows' keys sorted, so the rows whose ids share a hash's high
    bits are one run, in row order. used flags the rows already scored.
    With the directory of the keys, about 17.5 bytes per row in all.
    """
    gname, pname = gold_path.name, pred_path.name
    require_regular_file(pred_path, "unordered scoring reads predictions twice, "
                         "so they must be in a regular file")
    offsets, ids = array("Q"), IdKeys()
    for lineno, offset, line in iter_lines(pred_path):
        rid, _ = _parse_scored_line(line, lineno, pname)
        offsets.append(offset)
        ids.add(rid)
    n = len(offsets)
    offsets.append(offset + len(line.encode("utf-8")) if n else 0)
    keys = ids.sorted()
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
            if rid is None or key_of(rid, row) != key:
                raise RecordError(f"{pname}:{row + 1}: prediction file changed while scoring")
            return rid, labels

        found = duplicates(keys, lambda key: read_back(key)[0])
        if found:
            row, rid = found[0]
            raise RecordError(f"{pname}:{row + 1}: duplicate prediction id {rid!r}")
        for lineno, _, line in iter_lines(gold_path):
            rid, gold_labels = _parse_scored_line(line, lineno, gname)
            bits = key_of(rid, 0)
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
