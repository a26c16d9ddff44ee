"""The id-uniqueness index: one 8-byte key per row, not a set of id strings.

A key is an id's hash with the row in its low bits, about 8 bytes a row
where a set of the ids took about 120. The keys are sorted once, so the rows
of one id are neighbours, and only the ids of neighbours whose hashes agree
are read back to compare: the repeated ids and rare hash collisions.
prepare's consolidate reads them back by row from its records in memory,
and LineIndex, the reader behind validate, sample, read_records and score
--unordered (which looks ids up in it), from the file it holds open. No
other module reads a key. Ordered scoring does not import this module.
"""

from __future__ import annotations

import os
import stat
from array import array
from bisect import bisect_left
from itertools import compress, count, islice, repeat
from operator import lt, xor
from pathlib import Path
from typing import Callable, Iterator

from piiprep.errors import RecordError, ToolkitError
from piiprep.jsonl import iter_lines
from piiprep.workers import Spill

__all__ = ["IdKeys", "LineIndex", "key_of"]

# Every id is hashed through this one name, so a test can force hash
# collisions by replacing it. The built-in hash is salted per process, but
# a forked worker keeps its caller's salt, so keys mean the same there.
_id_hash = hash

# A key is an id hash, taken modulo 2**64, with its low 32 bits replaced by
# the row: _HIGH selects the hash bits and _ROW the row.
_ROW = (1 << 32) - 1
_HIGH = (1 << 64) - 1 - _ROW


def key_of(rid: str, row: int) -> int:
    """The key of id rid at row."""
    return _id_hash(rid) & _HIGH | row


class IdKeys:
    """The keys of the ids added so far, the nth id added being row n - 1.

    They are kept in sixteen arrays split by their top four bits, so that
    sorting them builds a list of only a sixteenth of them at a time.
    """

    def __init__(self) -> None:
        self.rows = 0
        self._parts = [array("Q") for _ in range(16)]

    def add(self, rid: str) -> None:
        key = _id_hash(rid) & _HIGH | self.rows
        self._parts[key >> 60].append(key)
        self.rows += 1

    def sorted(self) -> array:
        """Every key added, sorted, leaving the index empty."""
        if self.rows > _ROW:
            raise RecordError(f"at most {_ROW} ids can be checked for uniqueness")
        keys = array("Q")
        for i, part in enumerate(self._parts):
            keys.extend(sorted(part))
            self._parts[i] = array("Q")
        return keys

    def repeated(self, read_id: Callable[[int], str]) -> list[tuple[int, str]]:
        """Each row whose id an earlier row also has, with that id, in row order,
        leaving the index empty; read_id(row) reads a row's id back."""
        return duplicates(self.sorted(), lambda key: read_id(key & _ROW))


def duplicates(keys: array, read_id: Callable[[int], str]) -> list[tuple[int, str]]:
    """Each row whose id an earlier row also has, with that id, in row order.

    keys is sorted, so the keys whose high bits are equal, those of one id
    among them, are one run, in row order. Neighbours are compared at C
    level (their XOR is below 2**32 when their high bits are equal), and
    read_id(key) is called only for the keys of such runs.
    """
    found = []
    end = -1  # the index of the last key read back
    same_high = map(lt, map(xor, keys, islice(keys, 1, None)), repeat(1 << 32))
    for i in compress(count(), same_high):
        if i != end:  # keys[i] starts a run
            run = {read_id(keys[i])}
        key = keys[i + 1]
        rid = read_id(key)
        if rid in run:
            found.append((key & _ROW, rid))
        run.add(rid)
        end = i + 1
    found.sort()
    return found


class LineIndex:
    """One checking pass over a line file that keeps each line's offset and id key.

    Iterating is the pass: parse(line, line number, file name) returns a
    line's id and value, check(value, line number) checks it further, and
    the value is yielded. Row n - 1 is line n. Repeated ids are looked for at
    the end of the pass and before any other error is raised, so the error
    raised is the first in file order. Then keys holds the keys sorted, and
    read(key) reads a row back through a workers.Spill of the file, opened
    once the pass ends and shared with forked workers. A bitmap of rows has
    row r in bit r % 8 of byte r // 8. The file must be a regular file: a
    named pipe would hang when opened again.
    """

    def __init__(self, path: str | Path, parse: Callable, check: Callable | None, *,
                 not_regular: str, duplicate: str, changed: str) -> None:
        self.path = Path(path)
        self._name = self.path.name
        if not stat.S_ISREG(os.stat(self.path).st_mode):
            raise RecordError(f"{self._name}: {not_regular}")
        self._parse, self._check = parse, check
        self._duplicate, self._changed = duplicate, changed
        self._offsets = array("Q")  # each row's start, then the end of the last line read
        self._table = None  # take's lookup table, built on its first call

    def __iter__(self) -> Iterator:
        name, parse, check, ids = self._name, self._parse, self._check, IdKeys()
        offset, line = 0, ""
        try:
            for lineno, offset, line in iter_lines(self.path):
                self._offsets.append(offset)
                rid, value = parse(line, lineno, name)
                if check is not None:
                    check(value, lineno)
                ids.add(rid)
                yield value
        except ToolkitError:
            self._end_pass(ids, offset + len(line.encode("utf-8")))
            raise
        self._end_pass(ids, offset + len(line.encode("utf-8")))

    def _end_pass(self, ids: IdKeys, end: int) -> None:
        """Sort the keys and fail on the first repeated id; end ends the last line read."""
        self._offsets.append(end)
        self.keys = ids.sorted()
        # O_BINARY: Windows would otherwise open it in text mode, and offsets drift.
        self._file = Spill(os.open(self.path, os.O_RDONLY | getattr(os, "O_BINARY", 0)))
        found = duplicates(self.keys, lambda key: self.read(key)[0])
        if found:
            row, rid = found[0]
            raise RecordError(f"{self._name}:{row + 1}: {self._duplicate} {rid!r}")

    def read(self, key: int) -> tuple:
        """parse's (id, value) of the row in key's low bits, as the file now has it:
        a line that no longer parses to an id with this key has changed."""
        row = key & _ROW
        start = self._offsets[row]
        try:
            line = self._file.read(start, self._offsets[row + 1] - start).decode("utf-8")
            parsed = self._parse(line, row + 1, self._name)
        except (UnicodeDecodeError, RecordError):
            parsed = None
        if parsed is None or key_of(parsed[0], row) != key:
            raise RecordError(f"{self._name}:{row + 1}: {self._changed}")
        return parsed

    def bitmap(self) -> bytearray:
        """A bitmap of the rows with none flagged."""
        return bytearray((len(self.keys) + 7) // 8)

    def take(self, rid: str, used: bytearray) -> tuple:
        """(row, value) of the first row, in file order, whose id is rid and that
        used does not flag, which is then flagged; where there is none, (-1,
        whether a flagged row has rid). Only rows whose keys have rid's hash
        bits are read back, through read(key); their run of keys is found
        by bisecting among about eight.
        """
        if self._table is None:  # starts[j]: the first key whose top bits are j or more
            keys = self.keys
            top = max(len(keys).bit_length() - 3, 0)
            starts = array("I", (bisect_left(keys, j << 64 - top) for j in range((1 << top) + 1)))
            self._table = starts, 64 - top, memoryview(keys)
        starts, shift, view = self._table
        bits = _id_hash(rid) & _HIGH
        j = bits >> shift
        flagged = []
        for key in view[bisect_left(view, bits, starts[j], starts[j + 1]):]:
            if key & _HIGH != bits:
                break
            row = key & _ROW
            if used[row >> 3] >> (row & 7) & 1:
                flagged.append(key)
                continue
            pid, value = self.read(key)
            if pid == rid:
                used[row >> 3] |= 1 << (row & 7)
                return row, value
        return -1, any(self.read(key)[0] == rid for key in flagged)

    def first_unused(self, used: bytes) -> tuple | None:
        """read's (id, value) of the first row, in file order, that used does not flag, or None."""
        unused = ~int.from_bytes(used, "little") & ((1 << len(self.keys)) - 1)
        if not unused:
            return None
        row = (unused & -unused).bit_length() - 1
        return self.read(next(key for key in self.keys if key & _ROW == row))
