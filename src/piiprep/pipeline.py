"""Corpus consolidation, rebalancing and splitting.

The pipeline takes per-source raw files (tagged text or ready-made BIO
JSONL), consolidates them into one stream with a source stamp per record,
then applies the declared transformations in a fixed order:

    consolidate -> rebalance one source -> cap sources -> drop rare labels
    -> stratified split

Every random choice derives from the single config seed through a
per-(operation, source) sub-seed, so results do not depend on source
ordering and re-runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import yaml

from piiprep.allocation import allocate_fractions, largest_remainder_allocate
from piiprep.biospan import extract_span_tuples
from piiprep.errors import ConfigError, RecordError
from piiprep.ingest import ingest_record
from piiprep.labelspace import LabelSpace, load_taxonomy
from piiprep.manifest import Manifest, write_manifest
from piiprep.records import Record, parse_record_line, write_records

logger = logging.getLogger(__name__)

__all__ = [
    "SourceSpec",
    "PipelineConfig",
    "PrepareResult",
    "sub_rng",
    "consolidate",
    "rebalance_source",
    "cap_source",
    "filter_rare_labels",
    "stratified_split",
    "sample_subset",
    "prepend_source_token",
    "run_prepare",
]

_FORMATS = ("jsonl", "xml", "xml-jsonl")
_POLICIES = ("fail", "skip", "log")


@dataclass
class SourceSpec:
    name: str
    path: Path
    format: str = "jsonl"


@dataclass
class PipelineConfig:
    sources: list[SourceSpec]
    seed: int = 0
    output_dir: Path = Path("out")
    split_fractions: dict[str, float] = field(
        default_factory=lambda: {"train": 0.8, "val": 0.1, "test": 0.1}
    )
    rebalance_source: str | None = None
    rebalance_fraction: float | None = None
    caps: dict[str, int] = field(default_factory=dict)
    rare_label_threshold: int = 100
    on_error: str = "fail"
    unknown_types: str = "error"
    prepend_source_token: bool = False
    taxonomy: Path | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            data = yaml.safe_load(path.read_text(encoding="utf-8"))
        except yaml.YAMLError as e:
            raise ConfigError(f"{path.name}: not valid YAML: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path.name}: config root must be a mapping")
        known = {
            "sources", "seed", "output_dir", "split_fractions", "rebalance",
            "caps", "rare_label_threshold", "on_error", "unknown_types",
            "prepend_source_token", "taxonomy",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{path.name}: unknown config key(s): {sorted(unknown)}")
        raw_sources = data.get("sources")
        if not raw_sources or not isinstance(raw_sources, list):
            raise ConfigError(f"{path.name}: 'sources' must be a non-empty list")
        sources = []
        for i, s in enumerate(raw_sources):
            if not isinstance(s, dict) or "name" not in s or "path" not in s:
                raise ConfigError(f"{path.name}: sources[{i}] needs 'name' and 'path'")
            fmt = s.get("format", "jsonl")
            if fmt not in _FORMATS:
                raise ConfigError(
                    f"{path.name}: sources[{i}].format must be one of {_FORMATS}, got {fmt!r}"
                )
            # Relative source paths resolve against the config file location.
            p = Path(s["path"])
            if not p.is_absolute():
                p = path.parent / p
            sources.append(SourceSpec(name=str(s["name"]), path=p, format=fmt))
        names = [s.name for s in sources]
        if len(set(names)) != len(names):
            raise ConfigError(f"{path.name}: duplicate source names")
        reb = data.get("rebalance") or {}
        if reb and (set(reb) != {"source", "target_fraction"}):
            raise ConfigError(f"{path.name}: rebalance needs 'source' and 'target_fraction'")
        cfg = cls(
            sources=sources,
            seed=int(data.get("seed", 0)),
            output_dir=Path(data.get("output_dir", "out")),
            split_fractions=dict(data.get("split_fractions", {"train": 0.8, "val": 0.1, "test": 0.1})),
            rebalance_source=reb.get("source"),
            rebalance_fraction=float(reb["target_fraction"]) if reb else None,
            caps={str(k): int(v) for k, v in (data.get("caps") or {}).items()},
            rare_label_threshold=int(data.get("rare_label_threshold", 100)),
            on_error=str(data.get("on_error", "fail")),
            unknown_types=str(data.get("unknown_types", "error")),
            prepend_source_token=bool(data.get("prepend_source_token", False)),
            taxonomy=Path(data["taxonomy"]) if data.get("taxonomy") else None,
        )
        if not cfg.output_dir.is_absolute():
            cfg.output_dir = path.parent / cfg.output_dir
        if cfg.taxonomy is not None and not cfg.taxonomy.is_absolute():
            cfg.taxonomy = path.parent / cfg.taxonomy
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.on_error not in _POLICIES:
            raise ConfigError(f"on_error must be one of {_POLICIES}, got {self.on_error!r}")
        if self.unknown_types not in ("error", "drop"):
            raise ConfigError(f"unknown_types must be 'error' or 'drop', got {self.unknown_types!r}")
        if self.rare_label_threshold < 0:
            raise ConfigError("rare_label_threshold must be >= 0")
        if (self.rebalance_source is None) != (self.rebalance_fraction is None):
            raise ConfigError("rebalance needs both a source and a target fraction")
        if self.rebalance_fraction is not None and not 0 <= self.rebalance_fraction < 1:
            raise ConfigError("rebalance target_fraction must lie in [0, 1)")
        for name, cap in self.caps.items():
            if cap < 0:
                raise ConfigError(f"cap for {name!r} must be >= 0")
        if not self.split_fractions:
            raise ConfigError("split_fractions must not be empty")
        got = sum(Fraction(str(f)) for f in self.split_fractions.values())
        if got != 1:
            raise ConfigError(f"split fractions must sum to 1, got {float(got)}")
        known = {s.name for s in self.sources}
        if self.rebalance_source is not None and self.rebalance_source not in known:
            raise ConfigError(f"rebalance source {self.rebalance_source!r} not declared")
        for name in self.caps:
            if name not in known:
                raise ConfigError(f"cap names undeclared source {name!r}")

    def load_space(self) -> LabelSpace:
        if self.taxonomy is not None:
            return load_taxonomy(self.taxonomy)
        from piiprep.fixtures import canonical_space

        return canonical_space()

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form of this config."""
        obj = {
            "sources": [[s.name, s.path.name, s.format] for s in self.sources],
            "seed": self.seed,
            "split_fractions": {k: str(v) for k, v in self.split_fractions.items()},
            "rebalance": [self.rebalance_source, str(self.rebalance_fraction)],
            "caps": dict(sorted(self.caps.items())),
            "rare_label_threshold": self.rare_label_threshold,
            "on_error": self.on_error,
            "unknown_types": self.unknown_types,
            "prepend_source_token": self.prepend_source_token,
            "taxonomy": self.taxonomy.name if self.taxonomy else None,
        }
        blob = json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def sub_rng(seed: int, operation: str, name: str) -> random.Random:
    """Deterministic per-(operation, source) generator derived from one seed."""
    digest = hashlib.sha256(f"{seed}|{operation}|{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _iter_source_lines(spec: SourceSpec) -> Iterable[tuple[int, str]]:
    with spec.path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if line.strip():
                yield lineno, line


def consolidate(
    config: PipelineConfig,
    space: LabelSpace,
) -> tuple[list[Record], dict[str, dict[str, int]]]:
    """Read all sources in declaration order into one stamped record stream.

    Returns the records plus per-source counters: kept, dropped (span-free
    lines) and errors (only counted above zero under on_error=skip/log). A
    record whose id an earlier record, of any source, already took is an
    error like a malformed line.
    """
    out: list[Record] = []
    report: dict[str, dict[str, int]] = {}
    seen_ids: set[str] = set()
    for spec in config.sources:
        kept = dropped = errors = 0
        for lineno, line in _iter_source_lines(spec):
            rec_id = f"{spec.name}-{lineno:06d}"
            try:
                if spec.format == "jsonl":
                    rec = parse_record_line(line, lineno, spec.path.name)
                    rec.source = spec.name  # stamp, whatever the file said
                else:
                    if spec.format == "xml-jsonl":
                        try:
                            obj = json.loads(line)
                        except json.JSONDecodeError as e:
                            raise RecordError(
                                f"{spec.path.name}:{lineno}: malformed JSON: {e.msg}"
                            ) from None
                        if not isinstance(obj, dict) or "text" not in obj:
                            raise RecordError(
                                f"{spec.path.name}:{lineno}: expected an object with a 'text' field"
                            )
                        text = obj["text"]
                    else:
                        text = line
                    rec = ingest_record(
                        text, spec.name, space, rec_id, unknown_types=config.unknown_types
                    )
                if rec is not None and rec.id in seen_ids:
                    raise RecordError(
                        f"{spec.path.name}:{lineno}: duplicate record id {rec.id!r}"
                    )
            except Exception as e:
                if config.on_error == "fail":
                    raise
                errors += 1
                if config.on_error == "log":
                    logger.warning("skipping %s:%d: %s", spec.path.name, lineno, e)
                continue
            if rec is None:
                dropped += 1
            else:
                out.append(rec)
                seen_ids.add(rec.id)
                kept += 1
        report[spec.name] = {"kept": kept, "dropped": dropped, "errors": errors}
    return out, report


def _stratum_key(rec: Record) -> str:
    """Stratification key for rebalancing: type of the first gold span."""
    spans = extract_span_tuples(rec.labels)
    return spans[0][2] if spans else "-"


def rebalance_source(
    records: Sequence[Record],
    source: str,
    target_fraction: float,
    seed: int,
) -> list[Record]:
    """Down-sample one source until its share of the stream hits the target.

    The retained count k solves k / (others + k) = target_fraction. Sampling
    is uniform without replacement, stratified by entity type so the source's
    internal type mix survives. Infeasible targets (the source is already at
    or below its target share) leave the stream unchanged with a warning.
    """
    f = Fraction(str(target_fraction))
    if not 0 <= f < 1:
        raise ConfigError(f"target_fraction must lie in [0, 1), got {target_fraction}")
    target_idx = [i for i, r in enumerate(records) if r.source == source]
    if not target_idx:
        logger.warning("rebalance: source %r absent from stream", source)
        return list(records)
    others = len(records) - len(target_idx)
    k = round(f * others / (1 - f))
    if k >= len(target_idx):
        if k > len(target_idx):
            logger.warning(
                "rebalance: %r has %d records but target share needs %d; keeping all",
                source, len(target_idx), k,
            )
        return list(records)
    strata: dict[str, list[int]] = {}
    for i in target_idx:
        strata.setdefault(_stratum_key(records[i]), []).append(i)
    alloc = largest_remainder_allocate({s: len(ix) for s, ix in strata.items()}, k)
    rng = sub_rng(seed, "rebalance", source)
    keep: set[int] = set()
    for stratum in sorted(strata):
        keep.update(rng.sample(strata[stratum], alloc[stratum]))
    return [r for i, r in enumerate(records) if r.source != source or i in keep]


def cap_source(records: Sequence[Record], source: str, cap: int, seed: int) -> list[Record]:
    """Keep at most cap records of one source, sampled uniformly, order kept."""
    if cap < 0:
        raise ConfigError(f"cap must be >= 0, got {cap}")
    idx = [i for i, r in enumerate(records) if r.source == source]
    if len(idx) <= cap:
        return list(records)
    rng = sub_rng(seed, "cap", source)
    keep = set(rng.sample(idx, cap))
    return [r for i, r in enumerate(records) if r.source != source or i in keep]


def filter_rare_labels(
    records: Sequence[Record],
    threshold: int,
) -> tuple[list[Record], list[str]]:
    """Rewrite labels of types with fewer than threshold B- mentions to O.

    Two passes: count corpus-wide B- mentions per type, then rewrite. Records
    are never dropped, so token and record counts are unchanged. A record
    without a rare label is passed through as the same object; only records
    with one are rebuilt. Returns the records and the sorted list of removed
    types.
    """
    label_counts: Counter[str] = Counter()
    for rec in records:
        label_counts.update(rec.labels)
    rare = {lab[2:] for lab, c in label_counts.items() if lab.startswith("B-") and c < threshold}
    if not rare:
        return list(records), []
    rare_labels = {f"{prefix}-{t}" for t in rare for prefix in "BI"}
    out = []
    for rec in records:
        if rare_labels.isdisjoint(rec.labels):
            out.append(rec)
            continue
        labels = ["O" if lab in rare_labels else lab for lab in rec.labels]
        out.append(Record(id=rec.id, tokens=rec.tokens, labels=labels, source=rec.source))
    return out, sorted(rare)


def _group_by_source(records: Sequence[Record]) -> dict[str, list[Record]]:
    groups: dict[str, list[Record]] = {}
    for rec in records:
        groups.setdefault(rec.source, []).append(rec)
    return groups


def stratified_split(
    records: Sequence[Record],
    fractions: dict[str, float],
    seed: int,
) -> dict[str, list[Record]]:
    """Partition the stream into named splits, stratified by source.

    Each source is shuffled with its own sub-seeded generator and then cut
    into consecutive blocks sized by largest-remainder allocation of the
    fractions, so every split carries its proportional share of each source.
    """
    groups = _group_by_source(records)
    splits: dict[str, list[Record]] = {name: [] for name in fractions}
    for source, recs in groups.items():
        rng = sub_rng(seed, "split", source)
        shuffled = list(recs)
        rng.shuffle(shuffled)
        alloc = allocate_fractions(len(shuffled), fractions)
        pos = 0
        for name in fractions:
            take = alloc[name]
            splits[name].extend(shuffled[pos : pos + take])
            pos += take
    return splits


def sample_subset(records: Sequence[Record], n: int, seed: int) -> list[Record]:
    """Draw a source-proportional subset of n records.

    Per-source counts come from largest-remainder allocation; records within
    a source are drawn uniformly without replacement. Output keeps sources in
    first-seen order and records in their original stream order.
    """
    groups = _group_by_source(records)
    counts = {s: len(rs) for s, rs in groups.items()}
    alloc = largest_remainder_allocate(counts, n)
    out: list[Record] = []
    for source, recs in groups.items():
        rng = sub_rng(seed, "sample", source)
        picked = sorted(rng.sample(range(len(recs)), alloc[source]))
        out.extend(recs[i] for i in picked)
    return out


@dataclass
class PrepareResult:
    """Everything the prepare command reports: artifacts plus step tallies."""

    split_paths: dict[str, Path]
    manifests: dict[str, Manifest]
    consolidation: dict[str, dict[str, int]]
    removed_types: list[str]
    steps: list[tuple[str, dict[str, int]]]  # (step name, records per source)


def _per_source_counts(records: Sequence[Record]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.source] = counts.get(rec.source, 0) + 1
    return counts


def run_prepare(config: PipelineConfig) -> PrepareResult:
    """Run the full preparation pipeline and write split artifacts.

    Steps run in declaration order: consolidate, rebalance (if configured),
    caps, rare-label filtering, optional source-token prefixing, stratified
    split. Each split lands in output_dir as <name>.jsonl with a manifest.
    """
    space = config.load_space()
    records, consolidation = consolidate(config, space)
    steps = [("consolidate", _per_source_counts(records))]
    if config.rebalance_source is not None:
        records = rebalance_source(
            records, config.rebalance_source, config.rebalance_fraction, config.seed
        )
        steps.append(("rebalance", _per_source_counts(records)))
    for source, cap in config.caps.items():
        records = cap_source(records, source, cap, config.seed)
    if config.caps:
        steps.append(("cap", _per_source_counts(records)))
    records, removed = filter_rare_labels(records, config.rare_label_threshold)
    if config.prepend_source_token:
        records = prepend_source_token(records, [s.name for s in config.sources])
    splits = stratified_split(records, config.split_fractions, config.seed)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    digest = config.digest()
    paths: dict[str, Path] = {}
    manifests: dict[str, Manifest] = {}
    for name, recs in splits.items():
        path = config.output_dir / f"{name}.jsonl"
        write_records(path, recs)
        manifests[name] = write_manifest(path, recs, seed=config.seed, config_digest=digest)
        paths[name] = path
    steps.append(("split", {name: len(recs) for name, recs in splits.items()}))
    return PrepareResult(
        split_paths=paths,
        manifests=manifests,
        consolidation=consolidation,
        removed_types=removed,
        steps=steps,
    )


def prepend_source_token(
    records: Sequence[Record],
    known_sources: Iterable[str],
) -> list[Record]:
    """Prefix every record with a [SRC=...] token labelled O.

    Records from sources outside known_sources get the [SRC=general] token,
    mirroring how unseen provenance is handled at inference time.
    """
    known = set(known_sources)
    out = []
    for rec in records:
        tag = rec.source if rec.source in known else "general"
        out.append(
            Record(
                id=rec.id,
                tokens=[f"[SRC={tag}]", *rec.tokens],
                labels=["O", *rec.labels],
                source=rec.source,
            )
        )
    return out
