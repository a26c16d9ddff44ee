"""Artifact records and their JSONL wire format.

A record line is a JSON object with exactly the keys id, tokens, labels and
source, written UTF-8 with one trailing newline. Key order and separators are
fixed so that equal record streams always produce byte-identical artifacts.
An EncodedRecord holds one record as those bytes, plus the few values that
planning and manifests read, so a corpus can be planned and written without
keeping a Record per line. An artifact is read through index_artifact: the
line index (piiprep.idindex.LineIndex) behind validate, sample and
read_records, which unordered scoring uses for its predictions too.
"""

from __future__ import annotations

import json
import sys
from collections import _count_elements
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from piiprep._purespans import _CACHE_MAX
from piiprep.biospan import count_orphan_continuations
from piiprep.errors import LabelError, RecordError
from piiprep.idindex import LineIndex
from piiprep.jsonl import check_encodable, decode_json_line, decode_located_line
from piiprep.labelspace import LabelSpace, parse_bio_label

__all__ = [
    "Record",
    "EncodedRecord",
    "record_to_line",
    "parse_record_line",
    "check_utf8",
    "check_types",
    "index_artifact",
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
        return _shared(
            (count_orphan_continuations(self.labels), tuple(sorted(counts.items()))))


def _shared(summary: tuple) -> tuple:
    """The one tuple kept for summaries equal to summary (summary itself, if it is new)."""
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

    @classmethod
    def of(cls, line: bytes, source: str, stratum: str, summary: tuple) -> EncodedRecord:
        """An EncodedRecord of these values, which shares its stratum and summary
        with equal ones as an EncodedRecord built from its Record does."""
        enc = cls.__new__(cls)
        enc.line, enc.source = line, source
        enc.stratum, enc.summary = sys.intern(stratum), _shared(summary)
        return enc

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


def _id_and_record(line: str, lineno: int, name: str) -> tuple[str, Record]:
    rec = parse_record_line(line, lineno, name)
    return rec.id, rec


def index_artifact(path: str | Path, command: str, doing: str, check=None) -> LineIndex:
    """The LineIndex of a JSONL artifact, whose pass yields its Records; command
    ("validate") and doing ("validating") name the reader in its errors."""
    return LineIndex(path, _id_and_record, check,
                     not_regular=f"{command} reads its input twice, so it must be a regular file",
                     duplicate="duplicate record id",
                     changed=f"input file changed while {doing}")


def read_records(path: str | Path) -> Iterator[Record]:
    """Stream an artifact's records (a regular file); a blank line or repeated id is an error."""
    return iter(index_artifact(path, "read_records", "reading"))


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
