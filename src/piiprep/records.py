"""Artifact records and their JSONL wire format.

A record line is a JSON object with exactly the keys id, tokens, labels and
source, written UTF-8 with one trailing newline. Key order and separators are
fixed so that equal record streams always produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from piiprep._purespans import _CACHE_MAX
from piiprep.errors import LabelError, RecordError
from piiprep.jsonl import check_encodable, decode_located_line, iter_lines
from piiprep.labelspace import parse_bio_label

__all__ = [
    "Record",
    "record_to_line",
    "parse_record_line",
    "check_utf8",
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


def record_to_line(record: Record) -> str:
    """Serialize one record to its canonical JSONL line (newline included)."""
    obj = {
        "id": record.id,
        "tokens": record.tokens,
        "labels": record.labels,
        "source": record.source,
    }
    return _ENCODER.encode(obj) + "\n"


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
        # Only a \u escape can decode to a lone UTF-16 surrogate.
        if "\\u" in line:
            check_utf8(rec)
    except RecordError as e:
        raise RecordError(f"{path}:{lineno}: {e}") from None
    return rec


def check_utf8(rec: Record) -> None:
    """Reject a record holding a string that UTF-8 cannot encode (see check_encodable)."""
    check_encodable([
        ("record id", rec.id), (f"record {rec.id}: source", rec.source),
        *((f"record {rec.id}: token {i}", tok) for i, tok in enumerate(rec.tokens)),
        *((f"record {rec.id}: label {i}", lab) for i, lab in enumerate(rec.labels)),
    ])


def read_records(path: str | Path) -> Iterator[Record]:
    """Stream records out of a JSONL artifact; a blank line or a repeated id is an error."""
    name = Path(path).name
    seen_ids: set[str] = set()
    for lineno, _, line in iter_lines(path):
        rec = parse_record_line(line, lineno, name)
        if rec.id in seen_ids:
            raise RecordError(f"{name}:{lineno}: duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        yield rec


def write_records(path: str | Path, records: Iterable[Record]) -> int:
    """Write records as canonical JSONL; returns the number written."""
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(record_to_line(rec))
            n += 1
    return n
