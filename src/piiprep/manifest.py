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
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from piiprep.biospan import count_orphan_continuations
from piiprep.records import Record
# Neither is called here; perfbench/spans.py's tracer wraps both by these names.
from piiprep.biospan import extract_span_tuples  # noqa: F401
from piiprep.records import read_records  # noqa: F401

__all__ = ["GENERATOR_NAME", "Manifest", "sha256_file", "build_manifest", "write_manifest"]

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

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        return cls(**json.loads(text))


def build_manifest(
    artifact_path: str | Path,
    records: Iterable[Record],
    *,
    seed: int | None = None,
    config_digest: str | None = None,
) -> Manifest:
    """Manifest of an artifact just written from records.

    The counts come from the records as they were written, the hash from the
    bytes on disk, so the artifact is never read back and parsed again. Spans
    are not extracted: every span opens at a B- label or at an orphan I-
    label, so gold_spans is the B- mentions plus the orphans; every non-O
    token lies in a span of its own type, so entity_types is the number of
    distinct types among non-O labels.
    """
    path = Path(artifact_path)
    per_source: Counter[str] = Counter()
    label_counts: Counter[str] = Counter()
    n_orphans = 0
    for rec in records:
        labels = rec.labels
        per_source[rec.source] += 1
        label_counts.update(labels)
        n_orphans += count_orphan_continuations(labels)
    per_type_b = {lab[2:]: n for lab, n in label_counts.items() if lab.startswith("B-")}
    span_types = {lab[2:] for lab in label_counts if lab != "O"}
    return Manifest(
        artifact=path.name,
        sha256=sha256_file(path),
        records=sum(per_source.values()),
        gold_spans=sum(per_type_b.values()) + n_orphans,
        entity_types=len(span_types),
        sources=len(per_source),
        per_source_records=dict(sorted(per_source.items())),
        per_type_b_mentions=dict(sorted(per_type_b.items())),
        orphan_continuations=n_orphans,
        seed=seed,
        config_digest=config_digest,
    )


def write_manifest(
    artifact_path: str | Path,
    records: Iterable[Record],
    *,
    seed: int | None = None,
    config_digest: str | None = None,
) -> Manifest:
    """Compute and write <artifact>.manifest.json next to the artifact."""
    path = Path(artifact_path)
    manifest = build_manifest(path, records, seed=seed, config_digest=config_digest)
    out = path.with_name(path.name + ".manifest.json")
    out.write_text(manifest.to_json(), encoding="utf-8")
    return manifest
