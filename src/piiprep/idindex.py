"""The id-uniqueness index: one 8-byte key per row, not a set of id strings.

Every reader that holds ids to be unique keeps its ids' keys here:
prepare's consolidate, the artifact reader behind validate and sample, and
the prediction index of unordered scoring. A key is the id's hash with the
row in its low bits, about 8 bytes a row where a set of the ids took about
120. The keys are sorted once, so the rows of one id are neighbours, and only
the ids of neighbours whose hashes agree are read back to compare: the
repeated ids and the rare hash collisions. Ordered scoring does not import
this module.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, islice, repeat
from operator import lt, xor
from typing import Callable

from piiprep.errors import RecordError

__all__ = ["IdKeys", "duplicates", "key_of"]

# Every id is hashed through this one name, so a test can force hash
# collisions by replacing it.
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
