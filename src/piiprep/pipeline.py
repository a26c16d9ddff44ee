"""Corpus consolidation, rebalancing and splitting.

The pipeline takes per-source raw files (tagged text or ready-made BIO
JSONL), consolidates them into one stream with a source stamp per record,
then applies the declared transformations in a fixed order:

    consolidate -> rebalance one source -> cap sources -> drop rare labels
    -> stratified split

Every random choice derives from the single config seed through a
per-(operation, source) sub-seed, so results do not depend on source
ordering and re-runs are byte-identical.

consolidate reads the sources, one after another, in line ranges, one per
usable CPU (piiprep.workers): it reads the first range itself, and a forked
worker reads each other range. Each range encodes every record it keeps once
and writes the artifact lines, 256 records at a time, to its own spill file
(workers.Spill), which the calling process makes before it forks. It gives
its records as (line length, stratum, summary), with where their chunk of
lines landed, their ids, line numbers and counts, and its skipped errors as
their messages. The calling process builds the kept records, keeps the ids,
applies on_error and logs the skipped lines in stream order, so every count,
message and output byte is that of one pass.

A kept record is an EncodedRecord: its source, stratum and label summary,
and its line's spill file, offset and length; no line is held in memory.
The later steps choose among these, only records that lose a rare label are
decoded and encoded again (into the same spill), and each split is written
from the lines read back by offset, hashed as it is written. The spill files
need about the artifacts' encoded size in tempfile's directory, and are
closed, and their space freed, once no record refers to them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import reprlib
import sys
from array import array
from collections import Counter
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TypeVar

import yaml

from piiprep import workers
from piiprep.allocation import allocate_fractions, largest_remainder_allocate
from piiprep.errors import ConfigError, RecordError, ToolkitError, UnwrittenError
from piiprep.idindex import IdKeys
from piiprep.ingest import ingest_record
from piiprep.jsonl import check_encodable, decode_located_line, iter_lines
from piiprep.jsonl import read_text
from piiprep.labelspace import LabelSpace, load_taxonomy
from piiprep.manifest import Manifest, tally, write_manifest
from piiprep.records import EncodedRecord, Record, check_types, check_utf8
from piiprep.records import encode_record, parse_record_line, write_records
# Not called here; perfbench/spans.py's tracer wraps it by this name.
from piiprep.biospan import extract_span_tuples  # noqa: F401

logger = logging.getLogger(__name__)

# Rebalance, cap and split choose among records by their source (and
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
    "sample_groups",
    "prepend_source_token",
    "run_prepare",
    "write_artifact",
]

_FORMATS = ("jsonl", "xml", "xml-jsonl")
_POLICIES = ("fail", "skip", "log")

# What a config value of each kind must be. A bool is not an integer or a
# number here, though Python treats it as one. Nothing is coerced first, so
# an integer too large for a float is not a finite number (nor is nan).
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a finite number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "a mapping": lambda v: isinstance(v, dict),
    f"one of {_FORMATS}": lambda v: v in _FORMATS,
    f"one of {_POLICIES}": lambda v: v in _POLICIES,
    "'error' or 'drop'": lambda v: v in ("error", "drop"),
}


# A repr three levels deep, four items a level, with every string and number whole.
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel, _BRIEF.maxlist, _BRIEF.maxtuple, _BRIEF.maxdict = 3, 4, 4, 4
_BRIEF.maxstring = _BRIEF.maxlong = _BRIEF.maxother = sys.maxsize


def _size(value, memo: dict) -> int:
    """How many values repr(value) prints; memo holds each node's count, by id."""
    if type(value) not in (list, tuple, dict):
        return 1
    if id(value) not in memo:
        memo[id(value)] = 1  # inside itself, where repr prints "[...]"
        items = value.values() if type(value) is dict else value
        memo[id(value)] = 1 + sum(_size(item, memo) for item in items)
    return memo[id(value)]


def _shown(value) -> str:
    """repr(value), or _BRIEF's past a million values (a few lines of YAML
    aliases can hold billions)."""
    return repr(value) if _size(value, {}) <= 1_000_000 else _BRIEF.repr(value)


def _typed(where: str, value, kind: str, fault: str | None = None):
    """value, unless it is not of the _KINDS kind (fault, or a message naming where)
    or is a string that no path or artifact line could hold."""
    if not _KINDS[kind](value):
        raise ConfigError(fault or f"{where} must be {kind}, got {_shown(value)}")
    if isinstance(value, str) and "\0" in value:
        raise ConfigError(f"{where} holds a NUL byte: {value!r}")
    check_encodable([(where, value)])
    return value


def _key(kind: str, default=MISSING, *, key: str | None = None, empty: bool = True,
         path: bool = False, items: tuple[str, str] | None = None, entries: type | None = None,
         fault: str | None = None, rule=None, digest=None):
    """A dataclass field that is a config key; its metadata is the key's row.

    A key that is absent or null takes the default; one without one must be
    set. key: its name, if not the field's. empty: whether it may be empty.
    path: it names a file, resolved against the config's directory. items: what
    a mapping's keys (strings) are called, and its values' kind. entries: the
    class whose rows read each entry of a list. fault: the one message for a
    value missing, of the wrong kind or empty. rule: the range and cross-key
    rules, given the value and the fields read so far, which it may add to.
    digest: the key's form in digest(), from the config.
    """
    row = {"key": key, "kind": kind, "empty": empty, "path": path, "items": items,
           "entries": entries, "fault": fault, "rule": rule, "digest": digest}
    if isinstance(default, dict):  # each config gets its own
        return field(default_factory=lambda: dict(default), metadata=row)
    return field(default=default, metadata=row)


def _read(cls, data, where: str, base: Path) -> dict:
    """The fields of cls read from data, the mapping at where ("sources[0]", or ""
    for the root), checked row by row; paths resolve against base."""
    rows = [(f, f.metadata["key"] or f.name, f.metadata) for f in fields(cls) if f.metadata]
    needed = [key for f, key, _ in rows if f.default is MISSING and f.default_factory is MISSING]
    if where and (not isinstance(data, dict) or not set(needed) <= set(data)):
        raise ConfigError(f"{where} needs {' and '.join(map(repr, needed))}")
    unknown = sorted(set(data) - {key for _, key, _ in rows}, key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {unknown}" if where
                          else f"unknown config key(s): {unknown}")
    read: dict = {}
    for f, key, row in rows:
        at = f"{where}.{key}" if where else key
        value = data.get(key)
        given = value is not None or key in needed
        if given:
            _typed(at, value, row["kind"], row["fault"])
            if not value and not row["empty"]:
                raise ConfigError(row["fault"] or f"{at} must not be empty")
            if row["items"]:
                label, kind = row["items"]
                for name, item in value.items():
                    _typed(f"a key in {at}", name, "a string",
                           f"{label} must be a string, got {name!r}")
                    _typed(f"{at}.{name}", item, kind)
            if row["entries"]:
                value = [row["entries"](**_read(row["entries"], entry, f"{at}[{i}]", base))
                         for i, entry in enumerate(value)]
        else:
            value = f.default if f.default_factory is MISSING else f.default_factory()
        read[f.name] = base / value if row["path"] and value is not None else value
        if given and row["rule"]:
            row["rule"](value, read)
    return read


def _distinct_names(sources: list, read: dict) -> None:
    first: dict[str, int] = {}  # each name's first entry
    for i, s in enumerate(sources):
        if (j := first.setdefault(s.name, i)) != i:
            raise ConfigError(f"duplicate source name {s.name!r} (sources[{j}] and sources[{i}])")


def _split_rules(fractions: dict, read: dict) -> None:
    for name, v in fractions.items():
        if not name or "/" in name:  # it names the file <name>.jsonl in output_dir
            raise ConfigError(f"split name must be non-empty and hold no '/', got {name!r}")
        size = len(f"{name}.jsonl.manifest.json".encode("utf-8"))
        if size > 255:  # NAME_MAX of common file systems
            raise ConfigError(f"split name is too long: <name>.jsonl.manifest.json "
                              f"must fit in 255 UTF-8 bytes, got {size} for {name!r}")
        if v < 0:
            raise ConfigError(f"split_fractions.{name} must not be negative, got {v}")
    got = sum(Fraction(str(v)) for v in fractions.values())
    if got != 1:
        # Fractions each below the largest float can sum past it.
        shown = float(got) if got <= sys.float_info.max else math.inf
        raise ConfigError(f"split fractions must sum to 1, got {shown}")


def _rebalance_rules(rebalance: dict, read: dict) -> None:
    """Check rebalance, and read it into rebalance_source and rebalance_fraction."""
    if set(rebalance) != {"source", "target_fraction"}:
        raise ConfigError("rebalance needs 'source' and 'target_fraction'")
    source, fraction = rebalance["source"], rebalance["target_fraction"]
    if source is None:
        raise ConfigError("rebalance needs both a source and a target fraction")
    if not 0 <= _typed("rebalance.target_fraction", fraction, "a finite number") < 1:
        raise ConfigError("rebalance target_fraction must lie in [0, 1)")
    if source not in [spec.name for spec in read["sources"]]:
        raise ConfigError(f"rebalance source {_shown(source)} not declared")
    read.update(rebalance_source=source, rebalance_fraction=float(fraction))


def _cap_rules(caps: dict, read: dict) -> None:
    for name, cap in caps.items():
        if cap < 0:
            raise ConfigError(f"cap for {name!r} must be >= 0")
        if name not in [spec.name for spec in read["sources"]]:
            raise ConfigError(f"cap names undeclared source {name!r}")


def _threshold_rule(threshold: int, read: dict) -> None:
    if threshold < 0:
        raise ConfigError("rare_label_threshold must be >= 0")


@dataclass
class SourceSpec:
    name: str = _key("a string", empty=False)  # every record of the source carries it
    path: Path = _key("a string", empty=False, path=True)  # "" names the config's directory
    format: str = _key(f"one of {_FORMATS}", "jsonl")


@dataclass
class PipelineConfig:
    """A prepare config. The fields made with _key are the config table."""

    sources: list[SourceSpec] = _key(
        "a list", empty=False, entries=SourceSpec, fault="'sources' must be a non-empty list",
        rule=_distinct_names, digest=lambda c: [[s.name, s.path.name, s.format] for s in c.sources])
    seed: int = _key("an integer", 0, digest=lambda c: c.seed)
    output_dir: Path = _key("a string", Path("out"), path=True)  # where to write: no digest
    split_fractions: dict[str, float] = _key(
        "a mapping", {"train": 0.8, "val": 0.1, "test": 0.1}, empty=False,
        items=("split name", "a finite number"), rule=_split_rules,
        digest=lambda c: {k: str(v) for k, v in c.split_fractions.items()})
    rebalance_source: str | None = _key(
        "a mapping", None, key="rebalance", rule=_rebalance_rules,
        digest=lambda c: [c.rebalance_source, str(c.rebalance_fraction)])
    rebalance_fraction: float | None = None
    caps: dict[str, int] = _key("a mapping", {}, items=("cap name", "an integer"), rule=_cap_rules,
                                digest=lambda c: dict(sorted(c.caps.items())))
    rare_label_threshold: int = _key("an integer", 100, rule=_threshold_rule,
                                     digest=lambda c: c.rare_label_threshold)
    on_error: str = _key(f"one of {_POLICIES}", "fail", digest=lambda c: c.on_error)
    unknown_types: str = _key("'error' or 'drop'", "error", digest=lambda c: c.unknown_types)
    prepend_source_token: bool = _key("true or false", False,
                                      digest=lambda c: c.prepend_source_token)
    taxonomy: Path | None = _key("a string", None, empty=False, path=True,
                                 digest=lambda c: c.taxonomy.name if c.taxonomy else None)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Read a config file and check all of it, before any source is read.

        Relative paths resolve against the file's directory. Every error is a
        ConfigError that starts with the file's name.
        """
        path = Path(path)
        text = read_text(path)
        try:
            try:
                data = yaml.safe_load(text)
            except (yaml.YAMLError, ValueError) as e:  # ValueError: 2020-13-01, a 5,000-digit int
                raise ConfigError(f"not valid YAML: {e}") from None
            if not isinstance(data, dict):
                raise ConfigError("config root must be a mapping")
            config = cls(**_read(cls, data, "", path.parent))
            config.check_outputs()
        except RecursionError:  # nested past what the YAML reader or a message's repr can walk
            raise ConfigError(f"{path.name}: not valid YAML: nested too deeply") from None
        except (ConfigError, RecordError) as e:  # RecordError: a string UTF-8 cannot encode
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
        """SHA-256 over the canonical JSON form of this config: each key's digest form."""
        obj = {f.metadata["key"] or f.name: f.metadata["digest"](self)
               for f in fields(self) if f.metadata.get("digest")}
        blob = json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def sub_rng(seed: int, operation: str, name: str) -> random.Random:
    """Deterministic per-(operation, source) generator derived from one seed."""
    digest = hashlib.sha256(f"{seed}|{operation}|{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


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
    warning comes after the warnings of the pass. The sources are read in
    line ranges, each but the first by a forked worker (workers.in_ranges),
    and every id, count and warning is taken here in stream order, so the
    result is that of one pass.
    """
    out: list[EncodedRecord] = []
    counts = [{"kept": 0, "dropped": 0, "errors": 0} for _ in config.sources]
    ids, linenos = IdKeys(), array("I")  # the id key and the line of each record in out
    files = {spec.name: spec.path.name for spec in config.sources}

    def repeated() -> list[tuple[int, RecordError]]:
        """Each record of out whose id an earlier one has, with its located error."""
        found = ids.repeated(lambda row: out[row].record().id)
        return [(row, RecordError(f"{files[out[row].source]}:{linenos[row]}: "
                                  f"duplicate record id {rid!r}")) for row, rid in found]

    def what(r: tuple[int, list[_Part]]) -> str:
        k, _, first_line, _ = r[1][0]
        return f"{config.sources[k].path.name}: prepare worker for lines from {first_line}"

    ranges = workers.line_ranges([spec.path for spec in config.sources])
    spills = [workers.Spill.temporary() for _ in ranges]  # before the fork: one per range
    try:
        with closing(workers.in_ranges(list(enumerate(ranges)),
                                       partial(_consolidated, config, space, spills),
                                       what)) as chunks:
            for k, s, pos, recs, rids, lines, dropped, errors in chunks:
                source, spill = config.sources[k].name, spills[s]
                for rid in rids:
                    ids.add(rid)
                linenos.extend(lines)
                offsets = accumulate((length for length, _, _ in recs), initial=pos)
                out += [EncodedRecord.of(spill, offset, length, source, stratum, summary)
                        for offset, (length, stratum, summary) in zip(offsets, recs)]
                c = counts[k]
                c["kept"] += len(recs)
                c["dropped"] += dropped
                c["errors"] += len(errors)
                if config.on_error == "log":
                    for e in errors:
                        logger.warning("skipping %s", e)
    except (ToolkitError, OSError):
        # A repeated id on an earlier line is the first error.
        found = repeated() if config.on_error == "fail" else []
        if found:
            raise found[0][1] from None
        raise
    report = {spec.name: c for spec, c in zip(config.sources, counts)}
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


# A range of the stream of all sources is a list of parts, each the (source
# index, byte offset, first line, stop offset or None for the end) of the
# lines it reads from one source (piiprep.workers.line_ranges).
_Part = tuple[int, int, int, "int | None"]
_CHUNK = 256  # the most records and errors in one chunk of a range


def _consolidated(config: PipelineConfig, space: LabelSpace, spills: list[workers.Spill],
                  r: tuple[int, list[_Part]]) -> Iterator[tuple]:
    """The records of range r, (s, parts), of the stream, in chunks, each of
    (source index, s, the offset in spills[s] of the chunk's artifact lines,
    records as (line length, stratum, summary), their ids, their line numbers,
    span-free lines, the messages of skipped errors).

    Each chunk's lines are written to spills[s] in one append, at its end, so
    a range run again after a worker that failed to write leaves that
    worker's bytes unread. The range ends, after a chunk of what came before
    it, with the error of a line that is not a record under on_error=fail,
    and with an OSError or a line that is not UTF-8 under any policy; it
    ends at once with an UnwrittenError when the spill cannot be written.
    Nothing is logged.
    """
    s, parts = r
    spill = spills[s]
    fail = config.on_error == "fail"
    for k, start, first_line, stop in parts:
        spec = config.sources[k]
        name = spec.path.name
        lines, rows, rids, linenos, dropped, errors = [], [], [], [], 0, []
        try:
            for lineno, _, line in iter_lines(spec.path, start, first_line, stop):
                line = line.rstrip("\r\n")
                if not line.strip():
                    continue
                try:
                    rec = _source_record(spec, name, line, lineno, config, space)
                except ToolkitError as e:
                    if fail:
                        raise
                    errors.append(str(e))
                    continue
                if rec is None:
                    dropped += 1
                    continue
                rids.append(rec.id)
                linenos.append(lineno)
                if config.prepend_source_token:
                    rec = prepend_source_token(rec)
                encoded, stratum, summary = encode_record(rec)
                lines.append(encoded)
                rows.append((len(encoded), stratum, summary))
                if len(rows) + len(errors) >= _CHUNK:
                    yield k, s, spill.append(b"".join(lines)), rows, rids, linenos, dropped, errors
                    lines, rows, rids, linenos, dropped, errors = [], [], [], [], 0, []
        except UnwrittenError:
            raise
        except (ToolkitError, OSError):
            yield k, s, spill.append(b"".join(lines)), rows, rids, linenos, dropped, errors
            raise
        yield k, s, spill.append(b"".join(lines)), rows, rids, linenos, dropped, errors


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
        out.append(EncodedRecord(rec, enc.spill))
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
