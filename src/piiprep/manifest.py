"""Reproducibility manifests for written artifacts.

A manifest records everything needed to check an artifact byte-for-byte and
content-wise: SHA-256 over the exact bytes on disk, record/span/type/source
counts and the orphan-continuation count of the records written, the seed and
config digest that produced it, and the RNG scheme. Manifests deliberately
contain no timestamps or absolute paths, so re-running a pipeline yields
byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from piiprep.records import EncodedRecord, Record
# None is called here; perfbench/spans.py's tracer wraps each by this name.
from piiprep.biospan import count_orphan_continuations, extract_span_tuples  # noqa: F401
from piiprep.records import read_records  # noqa: F401

__all__ = ["GENERATOR_NAME", "Manifest", "sha256_file", "tally", "build_manifest", "write_manifest"]

GENERATOR_NAME = "mt19937/sha256-subseed"


def sha256_file(path: str | Path) -> str:
    """Lowercase hex SHA-256 over the exact bytes of a file."""
    h = hashlib.sha256()
    with Path(path).open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Manifest:
    artifact: str
    sha256: str
    records: int
    gold_spans: int
    entity_types: int
    sources: int
    per_source_records: dict[str, int]
    per_type_b_mentions: dict[str, int]
    orphan_continuations: int
    seed: int | None = None
    config_digest: str | None = None
    generator: str = GENERATOR_NAME

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def build_manifest(
    artifact_path: str | Path,
    records: Iterable[EncodedRecord],
    *,
    sha256: str,
    seed: int | None = None,
    config_digest: str | None = None,
) -> Manifest:
    """Manifest of an artifact that write_artifact has just written from records.

    sha256 is the hash write_records took of the bytes as it wrote them, and
    the counts come from the records' summaries, so the artifact is never
    read back.
    """
    return Manifest(artifact=Path(artifact_path).name, sha256=sha256, **tally(records),
                    seed=seed, config_digest=config_digest)


def tally(records: Iterable[Record | EncodedRecord]) -> dict:
    """The count fields of a Manifest, in one pass over the records' summaries.

    Spans are not extracted: every span opens at a B- label or at an orphan
    I- label, so gold_spans is the B- mentions plus the orphans; every non-O
    token lies in a span of its own type, so entity_types is the number of
    distinct types among non-O labels. Only a count per source and per label
    is held, so a streamed input is never kept.
    """
    per_source: defaultdict[str, int] = defaultdict(int)
    label_counts: defaultdict[str, int] = defaultdict(int)
    n_orphans = 0
    for rec in records:
        per_source[rec.source] += 1
        orphans, counts = rec.summary
        n_orphans += orphans
        for label, count in counts:
            label_counts[label] += count
    per_type_b = {lab[2:]: n for lab, n in label_counts.items() if lab.startswith("B-")}
    span_types = {lab[2:] for lab in label_counts}
    return {
        "records": sum(per_source.values()),
        "gold_spans": sum(per_type_b.values()) + n_orphans,
        "entity_types": len(span_types),
        "sources": len(per_source),
        "per_source_records": dict(sorted(per_source.items())),
        "per_type_b_mentions": dict(sorted(per_type_b.items())),
        "orphan_continuations": n_orphans,
    }


def write_manifest(
    artifact_path: str | Path,
    records: Iterable[EncodedRecord],
    *,
    sha256: str,
    seed: int | None = None,
    config_digest: str | None = None,
) -> Manifest:
    """Build the manifest (see build_manifest) and write it as <artifact>.manifest.json."""
    path = Path(artifact_path)
    manifest = build_manifest(path, records, sha256=sha256, seed=seed, config_digest=config_digest)
    out = path.with_name(path.name + ".manifest.json")
    out.write_text(manifest.to_json(), encoding="utf-8")
    return manifest
