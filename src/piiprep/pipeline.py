"""Corpus consolidation, rebalancing and splitting.

The pipeline takes per-source raw files (tagged text or ready-made BIO
JSONL), consolidates them into one stream with a source stamp per record,
then applies the declared transformations in a fixed order:

    consolidate -> rebalance one source -> cap sources -> drop rare labels
    -> stratified split

Every random choice derives from the single config seed through a
per-(operation, source) sub-seed, so results do not depend on source
ordering and re-runs are byte-identical.

consolidate encodes each record it keeps once, into an EncodedRecord: its
artifact line plus its source, stratum and label summary. The later steps
choose among these, only records that lose a rare label are decoded and
encoded again, and each split is written from the encoded lines, hashed as
it is written.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TypeVar

import yaml

from piiprep.allocation import allocate_fractions, largest_remainder_allocate
from piiprep.errors import ConfigError, RecordError, ToolkitError
from piiprep.idindex import _ROW, IdKeys, duplicates
from piiprep.ingest import ingest_record
from piiprep.jsonl import check_encodable, decode_json_line, decode_located_line, iter_lines
from piiprep.jsonl import read_text
from piiprep.labelspace import LabelSpace, load_taxonomy
from piiprep.manifest import Manifest, tally, write_manifest
from piiprep.records import EncodedRecord, Record, check_types, check_utf8
from piiprep.records import parse_record_line, write_records
# Not called here; perfbench/spans.py's tracer wraps it by this name.
from piiprep.biospan import extract_span_tuples  # noqa: F401

logger = logging.getLogger(__name__)

# Rebalance, cap, split and sample choose among records by their source (and
# rebalance by their stratum), so they take and return either kind.
Planned = TypeVar("Planned", EncodedRecord, Record)
T = TypeVar("T")

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
    "sample_groups",
    "prepend_source_token",
    "run_prepare",
    "write_artifact",
]

_FORMATS = ("jsonl", "xml", "xml-jsonl")
_POLICIES = ("fail", "skip", "log")


@dataclass
class SourceSpec:
    name: str
    path: Path
    format: str = "jsonl"


# What each config value must be, for _typed. A bool is not an integer or a
# number here, though Python treats it as one. A value is compared as given:
# nothing is coerced first.
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a finite number": lambda v: type(v) in (int, float) and math.isfinite(v),
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: isinstance(v, str),
    "a mapping": lambda v: isinstance(v, dict),
    f"one of {_FORMATS}": lambda v: v in _FORMATS,
    f"one of {_POLICIES}": lambda v: v in _POLICIES,
    "'error' or 'drop'": lambda v: v in ("error", "drop"),
}

# The config keys that set one field each, with the kind their value must be.
_FIELD_KINDS = {
    "seed": "an integer",
    "output_dir": "a string",
    "rare_label_threshold": "an integer",
    "on_error": f"one of {_POLICIES}",
    "unknown_types": "'error' or 'drop'",
    "prepend_source_token": "true or false",
    "taxonomy": "a string",
}


def _typed(key: str, value, kind: str):
    """value, or a ConfigError naming the key when value is not of the _KINDS kind."""
    if not _KINDS[kind](value):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value


def _nonempty(key: str, value) -> str:
    """value as a string that names a path or a source; an empty path would name
    the config's own directory, and an empty source no record could carry."""
    if not _typed(key, value, "a string"):
        raise ConfigError(f"{key} must not be empty")
    return value


def _check_strings(node, where: str = "") -> None:
    """Reject a string of the config, key or value, that no path or artifact line could hold.

    where names node by its key path ("sources[0].path"), or a key by its
    mapping ("a key in caps").
    """
    if isinstance(node, str):
        if "\0" in node:
            raise ConfigError(f"{where} holds a NUL byte: {node!r}")
        try:
            check_encodable([(where, node)])
        except RecordError as e:
            raise ConfigError(str(e)) from None
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _check_strings(item, f"{where}[{i}]")
    elif isinstance(node, dict):
        for key, value in node.items():  # the key first, so no name holds a bad one
            _check_strings(key, f"a key in {where}" if where else "a config key")
            _check_strings(value, f"{where}.{key}" if where else str(key))


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
        """Read a config file and check all of it, before any source is read.

        Only the keys the file sets are passed on, so the field defaults above
        fill in the rest; an absent key and a null value both mean "not set".
        Relative paths resolve against the file's directory. Every error is a
        ConfigError that starts with the file's name.
        """
        path = Path(path)
        try:
            try:
                data = yaml.safe_load(read_text(path))
            except ValueError as e:  # a scalar Python cannot build: 2020-13-01, a 5,000-digit int
                raise ConfigError(f"not valid YAML: {e}") from None
            if not isinstance(data, dict):
                raise ConfigError("config root must be a mapping")
            _check_strings(data)
            unknown = set(data) - {"sources", "rebalance", "caps", "split_fractions", *_FIELD_KINDS}
            if unknown:
                raise ConfigError(f"unknown config key(s): {sorted(unknown, key=str)}")
            given = {k: v for k, v in data.items() if v is not None}
            if not isinstance(given.get("sources"), list) or not given["sources"]:
                raise ConfigError("'sources' must be a non-empty list")
            sources = []
            for i, s in enumerate(given["sources"]):
                if not isinstance(s, dict) or "name" not in s or "path" not in s:
                    raise ConfigError(f"sources[{i}] needs 'name' and 'path'")
                unknown = set(s) - {"name", "path", "format"}
                if unknown:
                    raise ConfigError(f"unknown key(s) in sources[{i}]: {sorted(unknown, key=str)}")
                spec_path = path.parent / _nonempty(f"sources[{i}].path", s["path"])
                spec = SourceSpec(_nonempty(f"sources[{i}].name", s["name"]), spec_path)
                if s.get("format") is not None:
                    spec.format = _typed(f"sources[{i}].format", s["format"], f"one of {_FORMATS}")
                sources.append(spec)
            names = [s.name for s in sources]
            if len(set(names)) != len(names):
                raise ConfigError("duplicate source names")
            kwargs = {
                k: _typed(k, v, _FIELD_KINDS[k]) for k, v in given.items() if k in _FIELD_KINDS
            }
            if "taxonomy" in kwargs:
                _nonempty("taxonomy", kwargs["taxonomy"])
            if "rebalance" in given:
                reb = _typed("rebalance", given["rebalance"], "a mapping")
                if set(reb) != {"source", "target_fraction"}:
                    raise ConfigError("rebalance needs 'source' and 'target_fraction'")
                source, fraction = reb["source"], reb["target_fraction"]
                if source is None:
                    raise ConfigError("rebalance needs both a source and a target fraction")
                if not 0 <= _typed("rebalance.target_fraction", fraction, "a finite number") < 1:
                    raise ConfigError("rebalance target_fraction must lie in [0, 1)")
                if source not in names:
                    raise ConfigError(f"rebalance source {source!r} not declared")
                kwargs.update(rebalance_source=source, rebalance_fraction=float(fraction))
            if "caps" in given:
                raw = _typed("caps", given["caps"], "a mapping")
                kwargs["caps"] = {
                    _typed("cap name", k, "a string"): _typed(f"caps.{k}", v, "an integer")
                    for k, v in raw.items()
                }
                for name, cap in kwargs["caps"].items():
                    if cap < 0:
                        raise ConfigError(f"cap for {name!r} must be >= 0")
                    if name not in names:
                        raise ConfigError(f"cap names undeclared source {name!r}")
            if "split_fractions" in given:
                raw = _typed("split_fractions", given["split_fractions"], "a mapping")
                kwargs["split_fractions"] = fractions = {
                    _typed("split name", k, "a string"):
                    _typed(f"split_fractions.{k}", v, "a finite number")
                    for k, v in raw.items()
                }
                if not fractions:
                    raise ConfigError("split_fractions must not be empty")
                for name, v in fractions.items():
                    if not name or "/" in name:  # it names the file <name>.jsonl in output_dir
                        raise ConfigError(
                            f"split name must be non-empty and hold no '/', got {name!r}")
                    size = len(f"{name}.jsonl.manifest.json".encode("utf-8"))
                    if size > 255:  # NAME_MAX of common file systems
                        raise ConfigError(f"split name is too long: <name>.jsonl.manifest.json "
                                          f"must fit in 255 UTF-8 bytes, got {size} for {name!r}")
                    if v < 0:
                        raise ConfigError(f"split_fractions.{name} must not be negative, got {v}")
                got = sum(Fraction(str(v)) for v in fractions.values())
                if got != 1:
                    raise ConfigError(f"split fractions must sum to 1, got {float(got)}")
            config = cls(sources=sources, **kwargs)
            if config.rare_label_threshold < 0:
                raise ConfigError("rare_label_threshold must be >= 0")
            config.output_dir = path.parent / config.output_dir
            if config.taxonomy is not None:
                config.taxonomy = path.parent / config.taxonomy
            config.check_outputs()
        except yaml.YAMLError as e:
            raise ConfigError(f"{path.name}: not valid YAML: {e}") from None
        except ConfigError as e:
            raise ConfigError(f"{path.name}: {e}") from None
        return config

    def check_outputs(self) -> None:
        """Reject a split whose file or manifest in output_dir is a source's file.

        prepare would write over that source, so a second run could not
        reproduce the first.
        """
        sources = {os.path.realpath(s.path): s.name for s in self.sources}
        for name in self.split_fractions:
            for file in (f"{name}.jsonl", f"{name}.jsonl.manifest.json"):
                source = sources.get(os.path.realpath(self.output_dir / file))
                if source is not None:
                    raise ConfigError(
                        f"split {name!r} would overwrite the file of source {source!r}: {file}")

    def load_space(self) -> LabelSpace:
        return load_taxonomy(self.taxonomy)

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
    for lineno, _, line in iter_lines(spec.path):
        line = line.rstrip("\r\n")
        if line.strip():
            yield lineno, line


def consolidate(
    config: PipelineConfig,
    space: LabelSpace,
) -> tuple[list[EncodedRecord], dict[str, dict[str, int]]]:
    """Read all sources in declaration order into one stamped, encoded record stream.

    Returns the records, each encoded once and with the source token
    prefixed under prepend_source_token, plus per-source counters: kept,
    dropped (span-free lines) and errors (only counted above zero under
    on_error=skip/log). A record whose id an earlier record, of any source,
    already took is an error like a malformed line, and so is a type outside
    the taxonomy under unknown_types=error; under drop a tag of it keeps its
    text but no span, and a JSONL label of it becomes O. Every error names
    its file and line.

    Ids are kept as keys (piiprep.idindex), and repeated ones are looked for
    once every source is read, or before any other error is raised under
    fail, so the error raised is the first in stream order. Under skip/log
    each repeat is then dropped and counted in its own source; under log its
    warning comes after the warnings of the pass.
    """
    out: list[EncodedRecord] = []
    report: dict[str, dict[str, int]] = {}
    ids, linenos = IdKeys(), array("I")  # the id key and the line of each record in out
    files = {spec.name: spec.path.name for spec in config.sources}

    def repeated() -> list[tuple[int, RecordError]]:
        """Each record of out whose id an earlier one has, with its located error."""
        found = duplicates(ids.sorted(), lambda key: decode_json_line(
            out[key & _ROW].line.decode("utf-8"))["id"])
        return [(row, RecordError(f"{files[out[row].source]}:{linenos[row]}: "
                                  f"duplicate record id {rid!r}")) for row, rid in found]

    try:
        for spec in config.sources:
            name = spec.path.name
            kept = dropped = errors = 0
            for lineno, line in _iter_source_lines(spec):
                try:
                    rec = _source_record(spec, name, line, lineno, config, space)
                except ToolkitError as e:
                    if config.on_error == "fail":
                        raise
                    errors += 1
                    if config.on_error == "log":
                        logger.warning("skipping %s", e)
                    continue
                if rec is None:
                    dropped += 1
                else:
                    ids.add(rec.id)
                    linenos.append(lineno)
                    if config.prepend_source_token:
                        rec = prepend_source_token(rec)
                    out.append(EncodedRecord(rec))
                    kept += 1
            report[spec.name] = {"kept": kept, "dropped": dropped, "errors": errors}
    except (ToolkitError, OSError):
        # A repeated id on an earlier line is the first error.
        found = repeated() if config.on_error == "fail" else []
        if found:
            raise found[0][1] from None
        raise
    found = repeated()
    if found and config.on_error == "fail":
        raise found[0][1]
    for row, e in found:
        counts = report[out[row].source]
        counts["kept"] -= 1
        counts["errors"] += 1
        if config.on_error == "log":
            logger.warning("skipping %s", e)
    if found:
        rows = {row for row, _ in found}
        out = [rec for row, rec in enumerate(out) if row not in rows]
    return out, report


def _source_record(spec: SourceSpec, name: str, line: str, lineno: int,
                   config: PipelineConfig, space: LabelSpace) -> Record | None:
    """The stamped Record of one line of spec's file, name; None for a span-free one.

    A line that is not a record fails with a located error.
    """
    if spec.format == "jsonl":
        rec = parse_record_line(line, lineno, name)
        rec.source = spec.name  # stamp, whatever the file said
        if config.unknown_types == "error":
            check_types(rec, space, name, lineno)
        elif space.unknown_type(rec.labels) is not None:  # drop: its labels become O
            rec.labels = [x if x in space.fine_label_set else "O" for x in rec.labels]
        return rec
    text = line
    if spec.format == "xml-jsonl":
        obj = decode_located_line(line, lineno, name)
        if not isinstance(obj, dict) or "text" not in obj:
            raise RecordError(f"{name}:{lineno}: expected an object with a 'text' field")
        text = obj["text"]
        if not isinstance(text, str):
            raise RecordError(f"{name}:{lineno}: text must be a string, got {text!r}")
    try:
        rec = ingest_record(
            text, spec.name, space, f"{spec.name}-{lineno:06d}",
            unknown_types=config.unknown_types,
        )
        if rec is not None:
            check_utf8(rec, line)
    except ToolkitError as e:
        raise type(e)(f"{name}:{lineno}: {e}") from None
    return rec


def rebalance_source(
    records: Sequence[Planned],
    source: str,
    target_fraction: float,
    seed: int,
) -> list[Planned]:
    """Down-sample one source until its share of the stream hits the target.

    The retained count k solves k / (others + k) = target_fraction. Sampling
    is uniform without replacement, stratified by entity type so the source's
    internal type mix survives; a record's stratum is the type of its first
    span. Infeasible targets (the source is already at or below its target
    share) leave the stream unchanged with a warning.
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
        strata.setdefault(records[i].stratum, []).append(i)
    alloc = largest_remainder_allocate({s: len(ix) for s, ix in strata.items()}, k)
    rng = sub_rng(seed, "rebalance", source)
    keep: set[int] = set()
    for stratum in sorted(strata):
        keep.update(rng.sample(strata[stratum], alloc[stratum]))
    return [r for i, r in enumerate(records) if r.source != source or i in keep]


def cap_source(records: Sequence[Planned], source: str, cap: int, seed: int) -> list[Planned]:
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
    records: Sequence[EncodedRecord],
    threshold: int,
) -> tuple[list[EncodedRecord], list[str]]:
    """Rewrite labels of types with fewer than threshold B- mentions to O.

    The B- mentions are the manifest tally's, counted from the records'
    summaries. Records are never dropped, so token and record counts are
    unchanged. A record without a rare label is passed through as the same
    object; only records with one are decoded, relabelled and encoded again.
    Returns the records and the sorted list of removed types.
    """
    mentions = tally(records)["per_type_b_mentions"]
    rare = {typ for typ, n in mentions.items() if n < threshold}
    if not rare:
        return list(records), []
    rare_labels = {f"{prefix}-{t}" for t in rare for prefix in "BI"}
    summaries = {rec.summary for rec in records}
    hit = {s for s in summaries if any(label in rare_labels for label, _ in s[1])}
    out = []
    for enc in records:
        if enc.summary not in hit:
            out.append(enc)
            continue
        rec = enc.record()
        rec.labels = ["O" if lab in rare_labels else lab for lab in rec.labels]
        out.append(EncodedRecord(rec))
    return out, sorted(rare)


def _group_by_source(records: Sequence[Planned]) -> dict[str, list[Planned]]:
    groups: dict[str, list[Planned]] = {}
    for rec in records:
        groups.setdefault(rec.source, []).append(rec)
    return groups


def stratified_split(
    records: Sequence[Planned],
    fractions: dict[str, float],
    seed: int,
) -> dict[str, list[Planned]]:
    """Partition the stream into named splits, stratified by source.

    Each source is shuffled with its own sub-seeded generator and then cut
    into consecutive blocks sized by largest-remainder allocation of the
    fractions, so every split carries its proportional share of each source.
    """
    groups = _group_by_source(records)
    splits: dict[str, list[Planned]] = {name: [] for name in fractions}
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


def sample_subset(records: Sequence[Planned], n: int, seed: int) -> list[Planned]:
    """Draw a source-proportional subset of n records (see sample_groups).

    Sources keep their first-seen order, and records their stream order.
    """
    return sample_groups(_group_by_source(records), n, seed)


def sample_groups(groups: Mapping[str, Sequence[T]], n: int, seed: int) -> list[T]:
    """Draw a source-proportional subset of n items from items grouped by source.

    Per-source counts come from largest-remainder allocation; items within
    a source are drawn uniformly without replacement, so the draw depends
    only on each source's count. Output keeps sources in the groups' order
    and items in their order within a source.
    """
    alloc = largest_remainder_allocate({s: len(items) for s, items in groups.items()}, n)
    out: list[T] = []
    for source, items in groups.items():
        rng = sub_rng(seed, "sample", source)
        picked = sorted(rng.sample(range(len(items)), alloc[source]))
        out.extend(items[i] for i in picked)
    return out


@dataclass
class PrepareResult:
    """Everything the prepare command reports: artifacts plus step tallies."""

    split_paths: dict[str, Path]
    manifests: dict[str, Manifest]
    consolidation: dict[str, dict[str, int]]
    removed_types: list[str]
    steps: list[tuple[str, dict[str, int]]]  # (step name, records per source)


def _per_source_counts(records: Sequence[EncodedRecord]) -> dict[str, int]:
    return dict(Counter(rec.source for rec in records))


def run_prepare(config: PipelineConfig) -> PrepareResult:
    """Run the full preparation pipeline and write split artifacts.

    Steps run in declaration order: consolidate (which prefixes the source
    token when configured), rebalance (if configured), caps, rare-label
    filtering, stratified split. Each split lands in output_dir as
    <name>.jsonl, written and hashed in one pass, with a manifest.
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
    splits = stratified_split(records, config.split_fractions, config.seed)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    digest = config.digest()
    paths = {name: config.output_dir / f"{name}.jsonl" for name in splits}
    manifests = {name: write_artifact(paths[name], recs, seed=config.seed, config_digest=digest)
                 for name, recs in splits.items()}
    steps.append(("split", {name: len(recs) for name, recs in splits.items()}))
    return PrepareResult(split_paths=paths, manifests=manifests, consolidation=consolidation,
                         removed_types=removed, steps=steps)


def write_artifact(path: str | Path, records: Sequence[EncodedRecord], *,
                   seed: int | None, config_digest: str | None = None) -> Manifest:
    """Write records to path, hashing them as they go, and their manifest beside it."""
    sha256 = hashlib.sha256()
    write_records(path, records, sha256)
    return write_manifest(path, records, sha256=sha256.hexdigest(),
                          seed=seed, config_digest=config_digest)


def prepend_source_token(record: Record) -> Record:
    """A copy of record prefixed with a [SRC=<its source>] token labelled O.

    The prefix is labelled O, so it changes no span, stratum or count.
    """
    return Record(
        id=record.id,
        tokens=[f"[SRC={record.source}]", *record.tokens],
        labels=["O", *record.labels],
        source=record.source,
    )
