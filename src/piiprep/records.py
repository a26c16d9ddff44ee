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

from piiprep.errors import LabelError, RecordError
from piiprep.labelspace import parse_bio_label

__all__ = [
    "Record",
    "record_to_line",
    "parse_record_line",
    "read_records",
    "write_records",
]


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
        for i, (tok, lab) in enumerate(zip(self.tokens, self.labels)):
            if type(tok) is not str:
                raise RecordError(f"record {self.id}: token {i} is not a string: {tok!r}")
            if type(lab) is not str:
                raise RecordError(f"record {self.id}: label {i} is not a string: {lab!r}")
            try:
                parse_bio_label(lab)
            except LabelError as e:
                raise RecordError(f"record {self.id}: {e}") from None


def record_to_line(record: Record) -> str:
    """Serialize one record to its canonical JSONL line (newline included)."""
    obj = {
        "id": record.id,
        "tokens": record.tokens,
        "labels": record.labels,
        "source": record.source,
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def parse_record_line(line: str, lineno: int, path: str = "<stream>") -> Record:
    """Parse one JSONL line into a Record, with a location-tagged error."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise RecordError(f"{path}:{lineno}: malformed JSON: {e.msg}") from None
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
    except RecordError as e:
        raise RecordError(f"{path}:{lineno}: {e}") from None
    return rec


def read_records(path: str | Path) -> Iterator[Record]:
    """Stream records out of a JSONL artifact."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                raise RecordError(f"{path.name}:{lineno}: blank line in artifact")
            yield parse_record_line(line, lineno, path.name)


def write_records(path: str | Path, records: Iterable[Record]) -> int:
    """Write records as canonical JSONL; returns the number written."""
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(record_to_line(rec))
            n += 1
    return n
