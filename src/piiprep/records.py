"""Artifact records and their JSONL wire format.

A record line is a JSON object with exactly the keys id, tokens, labels and
source, written UTF-8 with one trailing newline. Key order and separators are
fixed so that equal record streams always produce byte-identical artifacts.
An EncodedRecord holds one record as those bytes, plus the few values that
planning and manifests read, so a corpus can be planned and written without
keeping a Record per line.
"""

from __future__ import annotations

import json
import sys
from array import array
from bisect import bisect_left
from collections import _count_elements
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from piiprep._purespans import _CACHE_MAX
from piiprep.biospan import count_orphan_continuations
from piiprep.errors import LabelError, RecordError, ToolkitError
from piiprep.idindex import _ROW, IdKeys, duplicates, key_of
from piiprep.jsonl import check_encodable, decode_json_line, decode_located_line, iter_lines
from piiprep.labelspace import LabelSpace, parse_bio_label

__all__ = [
    "Record",
    "EncodedRecord",
    "record_to_line",
    "parse_record_line",
    "check_utf8",
    "check_types",
    "IndexedArtifact",
    "read_records",
    "write_records",
]

# Labels Record.validate has already found well-formed (O included). A corpus
# has at most 2n+1 distinct labels, so nearly every record passes the check
# with three C-level set calls instead of a parse per token. Only labels that
# passed the per-token loop are added, and the set is emptied when it reaches
# _CACHE_MAX, so it stays bounded whatever the input. The span kernel's label
# dict is not reused: it holds only non-O labels, so testing a whole record
# against it would mean building a set per record.
_VALID_LABELS: set[str] = set()
_STR = frozenset((str,))
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
# JSONEncoder.encode builds a C encoder per call; this one is built once with
# _ENCODER's settings (None without the C module). It keeps no circular-check
# markers, which a failed call could leave behind: a record holds only
# strings and lists of strings, so it cannot contain itself.
_ENCODE = c_make_encoder and c_make_encoder(
    None, _ENCODER.default, encode_basestring, _ENCODER.indent, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)
# Label summaries already built, each mapped to itself, so that records with
# equal summaries share one tuple. Emptied when it reaches _CACHE_MAX, which
# only costs sharing: an equal summary built later is a new, equal tuple.
_SUMMARIES: dict[tuple, tuple] = {}


@dataclass
class Record:
    """One tokenised, BIO-labelled sentence or message."""

    id: str
    tokens: list[str]
    labels: list[str]
    source: str

    def validate(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise RecordError(f"record id must be a non-empty string, got {self.id!r}")
        if not self.source or not isinstance(self.source, str):
            raise RecordError(f"record {self.id}: source must be a non-empty string")
        if len(self.tokens) != len(self.labels):
            raise RecordError(
                f"record {self.id}: {len(self.tokens)} tokens vs {len(self.labels)} labels"
            )
        if not self.tokens:
            raise RecordError(f"record {self.id}: empty token sequence")
        # Fast path: every entry exactly a str (a str subclass fails the
        # per-token check below) and every label already known to be valid.
        if (
            _STR.issuperset(map(type, self.tokens))
            and _STR.issuperset(map(type, self.labels))
            and _VALID_LABELS.issuperset(self.labels)
        ):
            return
        for i, (tok, lab) in enumerate(zip(self.tokens, self.labels)):
            if type(tok) is not str:
                raise RecordError(f"record {self.id}: token {i} is not a string: {tok!r}")
            if type(lab) is not str:
                raise RecordError(f"record {self.id}: label {i} is not a string: {lab!r}")
            try:
                parse_bio_label(lab)
            except LabelError as e:
                raise RecordError(f"record {self.id}: {e}") from None
        for lab in set(self.labels).difference(_VALID_LABELS):
            if len(_VALID_LABELS) >= _CACHE_MAX:
                _VALID_LABELS.clear()
            _VALID_LABELS.add(lab)

    @property
    def stratum(self) -> str:
        """The type of the first non-O label, which is the first span's type; "-" if none."""
        for lab in self.labels:
            if lab != "O":
                return sys.intern(lab[2:])
        return "-"

    @property
    def summary(self) -> tuple[int, tuple[tuple[str, int], ...]]:
        """(orphan continuations, sorted (label, count) pairs of the non-O labels).

        Every manifest count and the rare-label filter's B- mentions follow
        from these. Equal summaries are usually one shared tuple.
        """
        counts: dict[str, int] = {}
        _count_elements(counts, self.labels)  # what Counter.update calls, minus its checks
        counts.pop("O", None)
        summary = (count_orphan_continuations(self.labels), tuple(sorted(counts.items())))
        shared = _SUMMARIES.get(summary)
        if shared is None:
            if len(_SUMMARIES) >= _CACHE_MAX:
                _SUMMARIES.clear()
            shared = _SUMMARIES[summary] = summary
        return shared


class EncodedRecord:
    """A record as its canonical line in UTF-8, with its source, stratum and summary.

    This is what prepare keeps per record between reading its sources and
    writing the splits, and what write_records and the manifest read: about
    a third of the memory of the Record it was built from.
    """

    __slots__ = ("line", "source", "stratum", "summary")

    def __init__(self, record: Record) -> None:
        self.line = record_to_line(record).encode("utf-8")
        self.source = record.source
        self.stratum = record.stratum
        self.summary = record.summary

    def record(self) -> Record:
        """The Record this was built from, decoded from the line."""
        return Record(**decode_json_line(self.line.decode("utf-8")))


def record_to_line(record: Record) -> str:
    """Serialize one record to its canonical JSONL line (newline included)."""
    obj = {
        "id": record.id,
        "tokens": record.tokens,
        "labels": record.labels,
        "source": record.source,
    }
    if _ENCODE is None:
        return _ENCODER.encode(obj) + "\n"
    return "".join(_ENCODE(obj, 0)) + "\n"


def parse_record_line(line: str, lineno: int, path: str = "<stream>") -> Record:
    """Parse one JSONL line into a Record, with a location-tagged error."""
    obj = decode_located_line(line, lineno, path)
    if not isinstance(obj, dict):
        raise RecordError(f"{path}:{lineno}: expected a JSON object")
    missing = {"id", "tokens", "labels", "source"} - set(obj)
    if missing:
        raise RecordError(f"{path}:{lineno}: missing field(s) {sorted(missing)}")
    for key in ("tokens", "labels"):
        if type(obj[key]) is not list:
            raise RecordError(f"{path}:{lineno}: {key} must be a JSON array")
    rec = Record(id=obj["id"], tokens=obj["tokens"], labels=obj["labels"], source=obj["source"])
    try:
        rec.validate()
        check_utf8(rec, line)
    except RecordError as e:
        raise RecordError(f"{path}:{lineno}: {e}") from None
    return rec


def check_utf8(rec: Record, line: str) -> None:
    """Reject a record holding a string UTF-8 cannot encode (see check_encodable).

    Only a \\u escape in the record's line can spell one, so most lines pass at once.
    """
    if "\\u" not in line:
        return
    check_encodable([
        ("record id", rec.id), (f"record {rec.id}: source", rec.source),
        *((f"record {rec.id}: token {i}", tok) for i, tok in enumerate(rec.tokens)),
        *((f"record {rec.id}: label {i}", lab) for i, lab in enumerate(rec.labels)),
    ])


def check_types(rec: Record, space: LabelSpace, name: str, lineno: int) -> Record:
    """rec, or an error located at name:lineno naming its first type outside space."""
    unknown = space.unknown_type(rec.labels)
    if unknown is not None:
        raise RecordError(f"{name}:{lineno}: record {rec.id}: "
                          f"entity type {unknown!r} not in taxonomy")
    return rec


class IndexedArtifact:
    """One checking pass over a JSONL artifact that keeps where each line is.

    Iterating yields each line's Record, after check(record, line number)
    when a check is given; a blank line or a repeated id is an error. The
    ids are not kept: only each line's byte offset and its id's key
    (piiprep.idindex), 16 bytes a line. The ids that could repeat are read
    back from the file at the end of the pass, and before any other error is
    raised, so the error raised is always the first in file order. Record
    n - 1 is line n. After the pass, records(rows) reads the given rows back.
    path must be a regular file. doing names the task in the error raised
    when a line read back no longer parses to its id ("validating").
    """

    def __init__(self, path: str | Path, doing: str, check=None) -> None:
        self.path = Path(path)
        self.doing = doing
        self.check = check
        self.offsets = array("Q")
        self.keys = array("Q")  # sorted, once the pass has ended

    def __iter__(self) -> Iterator[Record]:
        name, ids, check, add_offset = self.path.name, IdKeys(), self.check, self.offsets.append
        try:
            for lineno, offset, line in iter_lines(self.path):
                add_offset(offset)
                rec = parse_record_line(line, lineno, name)
                if check is not None:
                    check(rec, lineno)
                ids.add(rec.id)
                yield rec
        except ToolkitError:
            self._check_ids(ids)
            raise
        self._check_ids(ids)

    def _check_ids(self, ids: IdKeys) -> None:
        """Fail on the first repeated id among those added to ids."""
        self.keys = ids.sorted()
        with self.path.open("rb") as f:
            found = duplicates(self.keys, lambda key: self._reread(f, key & _ROW).id)
        if found:
            row, rid = found[0]
            raise RecordError(f"{self.path.name}:{row + 1}: duplicate record id {rid!r}")

    def _reread(self, f, row: int) -> Record:
        """Record row as the file now has it, which must still parse to the indexed id."""
        f.seek(self.offsets[row])
        try:
            rec = parse_record_line(f.readline().decode("utf-8"), row + 1, self.path.name)
            key = key_of(rec.id, row)
        except (UnicodeDecodeError, RecordError):
            key = -1
        i = bisect_left(self.keys, key)
        if i == len(self.keys) or self.keys[i] != key:
            raise RecordError(f"{self.path.name}:{row + 1}: input file changed while {self.doing}")
        return rec

    def records(self, rows: Iterable[int]) -> list[Record]:
        """The records of these rows, read back from the file."""
        with self.path.open("rb") as f:
            return [self._reread(f, row) for row in rows]


def read_records(path: str | Path) -> Iterator[Record]:
    """Stream records out of a JSONL artifact; a blank line or a repeated id is an error.

    The records are checked as IndexedArtifact checks them.
    """
    return iter(IndexedArtifact(path, "reading"))


def write_records(path: str | Path, records: Iterable[EncodedRecord], sha256) -> int:
    """Write the records' lines to path in one pass; returns the number written.

    sha256 (a hashlib object) is fed the same bytes as the file, so the
    artifact's hash needs no second read of it.
    """
    n = 0
    with Path(path).open("wb") as f:
        for rec in records:
            f.write(rec.line)
            sha256.update(rec.line)
            n += 1
    return n
