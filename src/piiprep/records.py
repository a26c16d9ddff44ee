"""Artifact records and their JSONL wire format.

A record line is a JSON object with exactly the keys id, tokens, labels and
source, written UTF-8 with one trailing newline. Key order and separators are
fixed so that equal record streams always produce byte-identical artifacts.
An EncodedRecord holds the few values of one record that planning and
manifests read, and where its line lies in a piiprep.workers.Spill, an
unlinked temporary file. A corpus is planned and written without keeping a
Record or a line in memory per record; each line is read back by its offset
when it is written, and prepare reads a repeated id back through record().
An artifact is read through index_artifact: the line index
(piiprep.idindex.LineIndex) behind validate, sample and read_records.
"""

from __future__ import annotations

import json
import sys
from collections import _count_elements
from dataclasses import dataclass
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from piiprep._purespans import _CACHE_MAX
from piiprep.biospan import check_labels, count_orphan_continuations
from piiprep.errors import LabelError, RecordError
from piiprep.idindex import LineIndex
from piiprep.jsonl import check_encodable, decode_json_line, decode_located_line
from piiprep.labelspace import LabelSpace
from piiprep.workers import Spill

__all__ = [
    "Record",
    "EncodedRecord",
    "encode_record",
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
# passed the slow path's checks are added, and the set is emptied when it
# reaches _CACHE_MAX, so it stays bounded whatever the input. The span
# kernel's label dict is not reused: it holds only non-O labels, so testing a
# whole record against it would mean building a set per record.
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
_WRITE_BLOCK = 256  # the most lines write_records joins into one write


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
        # type check below) and every label already known to be valid.
        if (
            _STR.issuperset(map(type, self.tokens))
            and _STR.issuperset(map(type, self.labels))
            and _VALID_LABELS.issuperset(self.labels)
        ):
            return
        # The first entry that is not exactly a str, then the labels before it
        # through check_labels (which takes anything equal to "O" for O), so
        # the earliest bad position fails.
        i = next((i for i, (tok, lab) in enumerate(zip(self.tokens, self.labels))
                  if type(tok) is not str or type(lab) is not str), len(self.tokens))
        try:
            check_labels(self.labels[:i])
        except LabelError as e:
            raise RecordError(f"record {self.id}: {e}") from None
        if i < len(self.tokens):
            tok, lab = self.tokens[i], self.labels[i]
            what, value = ("token", tok) if type(tok) is not str else ("label", lab)
            raise RecordError(f"record {self.id}: {what} {i} is not a string: {value!r}")
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
    """A record as its source, stratum and summary, and where its canonical
    line (UTF-8) lies in a spill.

    This is what prepare keeps per record between reading its sources and
    writing the splits, and what write_records and the manifest read: about
    a tenth of the memory of the Record it was built from. The line is read
    back from the spill each time line or record() is asked for. Built from
    a Record, it appends the line to spill.
    """

    __slots__ = ("spill", "ref", "source", "stratum", "summary")

    def __init__(self, record: Record, spill: Spill) -> None:
        line, stratum, summary = encode_record(record)
        self.spill, self.ref = spill, spill.append(line) << 32 | len(line)
        self.source, self.stratum, self.summary = record.source, stratum, summary

    @classmethod
    def of(cls, spill: Spill, offset: int, length: int, source: str, stratum: str,
           summary: tuple) -> EncodedRecord:
        """An EncodedRecord of the line of length bytes (under 4 GiB) at offset in
        spill and these values. It shares its stratum and summary with equal
        ones as an EncodedRecord built from its Record does."""
        enc = cls.__new__(cls)
        enc.spill, enc.ref, enc.source = spill, offset << 32 | length, source
        enc.stratum, enc.summary = sys.intern(stratum), _shared(summary)
        return enc

    @property
    def line(self) -> bytes:
        """The canonical line, read back from the spill."""
        ref = self.ref
        return self.spill.read(ref >> 32, ref & 0xFFFFFFFF)

    def record(self) -> Record:
        """The Record this was built from, decoded from the line."""
        return Record(**decode_json_line(self.line.decode("utf-8")))


def encode_record(record: Record) -> tuple[bytes, str, tuple]:
    """(canonical line in UTF-8, stratum, summary) of a record: what an EncodedRecord keeps."""
    return record_to_line(record).encode("utf-8"), record.stratum, record.summary


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
    artifact's hash needs no second read of it. Lines are joined into blocks
    of up to _WRITE_BLOCK, one write and one hash update each.
    """
    n = 0
    records = iter(records)
    with Path(path).open("wb") as f:
        while lines := [rec.line for rec in islice(records, _WRITE_BLOCK)]:
            block = b"".join(lines)
            f.write(block)
            sha256.update(block)
            n += len(lines)
    return n
