"""Streaming span-level exact-match scoring.

A predicted span counts as a true positive only when its token start, token
end and entity type all match a gold span. Counters accumulate per type and
merge associatively, so a corpus can be scored in chunks of any size with
bit-identical results; memory stays bounded by the label space plus one
chunk, independent of corpus length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from piiprep.biospan import check_labels, extract_span_tuples
from piiprep.errors import AlignmentError, LabelError, RecordError
from piiprep.labelspace import LabelSpace

__all__ = [
    "TypeCounters",
    "TypeMetrics",
    "MetricsReport",
    "StreamResult",
    "score_pair",
    "stream_score",
    "finalize",
    "merge",
]


class TypeCounters:
    """Per-entity-type tallies of true positives, predictions and gold spans."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = {}  # type -> [tp, pred, gold]

    def add_pair(self, gold_labels: Sequence[str], pred_labels: Sequence[str]) -> None:
        """Score one aligned sequence pair into these counters."""
        if len(gold_labels) != len(pred_labels):
            raise AlignmentError(
                f"sequence length mismatch: {len(gold_labels)} gold vs "
                f"{len(pred_labels)} predicted labels"
            )
        # The compiled kernel takes lists only; decoded JSON already is one.
        if type(gold_labels) is not list:
            gold_labels = list(gold_labels)
        if type(pred_labels) is not list:
            pred_labels = list(pred_labels)
        gold = extract_span_tuples(gold_labels)
        pred = extract_span_tuples(pred_labels)
        counts = self.counts
        get = counts.get
        for _, _, typ in gold:
            b = get(typ)
            if b is None:
                b = counts[typ] = [0, 0, 0]
            b[2] += 1
        gold_set = set(gold)
        for span in pred:
            typ = span[2]
            b = get(typ)
            if b is None:
                b = counts[typ] = [0, 0, 0]
            b[1] += 1
            if span in gold_set:
                b[0] += 1

    def merge_in(self, other: "TypeCounters") -> None:
        for typ, (tp, pred, gold) in other.counts.items():
            b = self.counts.setdefault(typ, [0, 0, 0])
            b[0] += tp
            b[1] += pred
            b[2] += gold

    def total(self) -> tuple[int, int, int]:
        tp = sum(b[0] for b in self.counts.values())
        pred = sum(b[1] for b in self.counts.values())
        gold = sum(b[2] for b in self.counts.values())
        return tp, pred, gold

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeCounters):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"TypeCounters({self.counts!r})"


def score_pair(gold_labels: Sequence[str], pred_labels: Sequence[str]) -> TypeCounters:
    """Counters for a single aligned gold/prediction pair."""
    c = TypeCounters()
    c.add_pair(gold_labels, pred_labels)
    return c


def merge(a: TypeCounters, b: TypeCounters) -> TypeCounters:
    """Commutative, associative counter merge; inputs are left untouched."""
    out = TypeCounters()
    out.merge_in(a)
    out.merge_in(b)
    return out


def _prf(tp: int, pred: int, gold: int) -> tuple[float, float, float]:
    p = tp / pred if pred else 0.0
    r = tp / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass
class TypeMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int
    tp: int


@dataclass
class MetricsReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    per_type: dict[str, TypeMetrics]
    records: int = 0
    chunks: int = 0
    system: str | None = None
    category: str | None = None

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "category": self.category,
            "micro": {
                "precision": self.micro_precision,
                "recall": self.micro_recall,
                "f1": self.micro_f1,
            },
            "per_type": {
                t: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                    "predicted": m.predicted,
                    "tp": m.tp,
                }
                for t, m in sorted(self.per_type.items())
            },
            "records": self.records,
            "chunks": self.chunks,
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "MetricsReport":
        per_type = {
            t: TypeMetrics(
                precision=v["precision"],
                recall=v["recall"],
                f1=v["f1"],
                support=v["support"],
                predicted=v["predicted"],
                tp=v["tp"],
            )
            for t, v in obj.get("per_type", {}).items()
        }
        return cls(
            micro_precision=obj["micro"]["precision"],
            micro_recall=obj["micro"]["recall"],
            micro_f1=obj["micro"]["f1"],
            per_type=per_type,
            records=obj.get("records", 0),
            chunks=obj.get("chunks", 0),
            system=obj.get("system"),
            category=obj.get("category"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    def to_csv(self, space: LabelSpace | None = None) -> str:
        """Per-type table; group column filled from a label space when given."""
        lines = ["type,group,support,precision,recall,f1"]
        for t, m in sorted(self.per_type.items()):
            group = space.coarse_map.get(t, "") if space is not None else ""
            lines.append(
                f"{t},{group},{m.support},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f}"
            )
        return "\n".join(lines) + "\n"


def finalize(
    counters: TypeCounters,
    *,
    records: int = 0,
    chunks: int = 0,
    system: str | None = None,
    category: str | None = None,
) -> MetricsReport:
    """Turn counters into micro and per-type precision/recall/F1.

    All zero-division conventions collapse to 0: no predictions means
    precision 0, no gold means recall 0, and F1 is 0 whenever P + R is.
    """
    per_type = {}
    for typ, (tp, pred, gold) in counters.counts.items():
        p, r, f = _prf(tp, pred, gold)
        per_type[typ] = TypeMetrics(
            precision=p, recall=r, f1=f, support=gold, predicted=pred, tp=tp
        )
    tp, pred, gold = counters.total()
    p, r, f = _prf(tp, pred, gold)
    return MetricsReport(
        micro_precision=p,
        micro_recall=r,
        micro_f1=f,
        per_type=per_type,
        records=records,
        chunks=chunks,
        system=system,
        category=category,
    )


@dataclass
class StreamResult:
    counters: TypeCounters
    records: int
    chunks: int


def _parse_scored_line(line: str, lineno: int, path: str) -> tuple[str, list[str]]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        if not line.strip():
            raise RecordError(f"{path}:{lineno}: blank line") from None
        raise RecordError(f"{path}:{lineno}: malformed JSON: {e.msg}") from None
    if not isinstance(obj, dict) or "id" not in obj or "labels" not in obj:
        raise RecordError(f"{path}:{lineno}: expected an object with 'id' and 'labels'")
    rid = obj["id"]
    if type(rid) is not str or not rid:
        raise RecordError(f"{path}:{lineno}: record id must be a non-empty string, got {rid!r}")
    labels = obj["labels"]
    if type(labels) is not list:
        raise RecordError(f"{path}:{lineno}: labels must be a JSON array")
    return rid, labels


def _raise_label_error(path: str, lineno: int, rid: str, labels: list) -> None:
    """Raise a located RecordError if labels hold a non-string or malformed label.

    Called only after add_pair has raised, so well-formed input pays nothing
    for it, and the message does not depend on which kernel raised.
    """
    try:
        check_labels(labels)
    except LabelError as e:
        raise RecordError(f"{path}:{lineno}: record {rid}: {e}") from None


def _line_of(path: Path, rid: str) -> int:
    """Line number of the record with this id in a file already read in full."""
    with path.open("r", encoding="utf-8") as f:
        return next(n for n, line in enumerate(f, 1) if json.loads(line)["id"] == rid)


def _chunked_lines(f: IO[str], size: int) -> Iterable[list[str]]:
    while True:
        block = list(islice(f, size))
        if not block:
            return
        yield block


def stream_score(
    gold_path: str | Path,
    pred_path: str | Path,
    *,
    chunk_size: int = 5000,
    unordered: bool = False,
) -> StreamResult:
    """Score a prediction file against a gold artifact, chunk by chunk.

    By default the two files must list the same record ids in the same
    order; any divergence raises an alignment error naming the id. With
    unordered=True the prediction file is indexed by id first (trading the
    memory bound for alignment freedom). In both modes a blank line in
    either file is an error, as in read_records.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    gold_path = Path(gold_path)
    pred_path = Path(pred_path)
    counters = TypeCounters()
    records = 0
    chunks = 0

    if unordered:
        index: dict[str, list[str]] = {}
        with pred_path.open("r", encoding="utf-8") as pf:
            for lineno, line in enumerate(pf, 1):
                rid, labels = _parse_scored_line(line, lineno, pred_path.name)
                if rid in index:
                    raise RecordError(f"{pred_path.name}:{lineno}: duplicate prediction id {rid!r}")
                index[rid] = labels
        with gold_path.open("r", encoding="utf-8") as gf:
            for block in _chunked_lines(gf, chunk_size):
                for line in block:
                    lineno = records + 1
                    rid, gold_labels = _parse_scored_line(line, lineno, gold_path.name)
                    if rid not in index:
                        raise AlignmentError(f"no prediction for gold record {rid!r}")
                    pred_labels = index.pop(rid)
                    try:
                        counters.add_pair(gold_labels, pred_labels)
                    except AlignmentError as e:
                        raise AlignmentError(f"record {rid!r}: {e}") from None
                    except (LabelError, TypeError):
                        _raise_label_error(gold_path.name, lineno, rid, gold_labels)
                        _raise_label_error(
                            pred_path.name, _line_of(pred_path, rid), rid, pred_labels
                        )
                        raise
                    records += 1
                chunks += 1
        if index:
            leftover = next(iter(index))
            raise AlignmentError(f"prediction id {leftover!r} has no gold record")
        return StreamResult(counters, records, chunks)

    with gold_path.open("r", encoding="utf-8") as gf, pred_path.open(
        "r", encoding="utf-8"
    ) as pf:
        gold_blocks = _chunked_lines(gf, chunk_size)
        pred_blocks = _chunked_lines(pf, chunk_size)
        while True:
            gblock = next(gold_blocks, [])
            pblock = next(pred_blocks, [])
            if not gblock and not pblock:
                break
            before = records
            for gline, pline in zip(gblock, pblock):
                lineno = records + 1
                gid, gold_labels = _parse_scored_line(gline, lineno, gold_path.name)
                pid, pred_labels = _parse_scored_line(pline, lineno, pred_path.name)
                if gid != pid:
                    raise AlignmentError(
                        f"record order mismatch at line {lineno}: gold id {gid!r} "
                        f"vs prediction id {pid!r}"
                    )
                try:
                    counters.add_pair(gold_labels, pred_labels)
                except AlignmentError as e:
                    raise AlignmentError(f"record {gid!r}: {e}") from None
                except (LabelError, TypeError):
                    _raise_label_error(gold_path.name, lineno, gid, gold_labels)
                    _raise_label_error(pred_path.name, lineno, gid, pred_labels)
                    raise
                records += 1
            if len(gblock) != len(pblock):
                # The longer file's extra lines: a blank one is reported as
                # such (a trailing empty line, say), not as a count mismatch.
                name, extra = (
                    (gold_path.name, gblock) if len(gblock) > len(pblock)
                    else (pred_path.name, pblock)
                )
                for lineno, line in enumerate(extra[records - before:], records + 1):
                    if not line.strip():
                        raise RecordError(f"{name}:{lineno}: blank line")
                raise AlignmentError(
                    f"record count mismatch: {gold_path.name} has at least "
                    f"{before + len(gblock)} records, {pred_path.name} has at least "
                    f"{before + len(pblock)}"
                )
            chunks += 1
    return StreamResult(counters, records, chunks)
