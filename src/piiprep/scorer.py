"""Span-level exact-match counting and its report.

A predicted span counts as a true positive only when its token start, token
end and entity type all match a gold span. TypeCounters holds integer sums
per type, so memory stays bounded by the label space, independent of corpus
length, and finalize turns them into the MetricsReport that `piiprep score`
writes. stream_score scores a gold and a prediction file: splitscore reads
them into pairs, one at a time, and TypeCounters counts them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from piiprep.biospan import extract_span_tuples
from piiprep.errors import AlignmentError

__all__ = [
    "TypeCounters",
    "TypeMetrics",
    "MetricsReport",
    "StreamResult",
    "stream_score",
    "finalize",
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


def _prf(tp: int, pred: int, gold: int) -> tuple[float, float, float]:
    p = tp / pred if pred else 0.0
    r = tp / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class _Fields:
    """Equality and repr by attribute values, in the order __init__ sets them."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class TypeMetrics(_Fields):
    """Precision, recall and F1 of one type, with its gold spans, predictions and hits."""

    def __init__(self, precision: float, recall: float, f1: float, support: int,
                 predicted: int, tp: int) -> None:
        self.precision, self.recall, self.f1 = precision, recall, f1
        self.support, self.predicted, self.tp = support, predicted, tp


class MetricsReport(_Fields):
    """Micro and per-type scores, as `piiprep score` writes them."""

    def __init__(self, micro_precision: float, micro_recall: float, micro_f1: float,
                 per_type: dict[str, TypeMetrics], records: int = 0, chunks: int = 0,
                 system: str | None = None, category: str | None = None) -> None:
        self.micro_precision, self.micro_recall, self.micro_f1 = (
            micro_precision, micro_recall, micro_f1)
        self.per_type, self.records, self.chunks = per_type, records, chunks
        self.system, self.category = system, category

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "category": self.category,
            "micro": {
                "precision": self.micro_precision,
                "recall": self.micro_recall,
                "f1": self.micro_f1,
            },
            "per_type": {t: vars(m) for t, m in sorted(self.per_type.items())},
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


class StreamResult(_Fields):
    """What stream_score returns: the counters, the record count and the chunk count."""

    def __init__(self, counters: TypeCounters, records: int, chunks: int) -> None:
        self.counters, self.records, self.chunks = counters, records, chunks


def stream_score(
    gold_path: str | Path,
    pred_path: str | Path,
    *,
    chunk_size: int = 5000,
    unordered: bool = False,
) -> StreamResult:
    """Score a prediction file against a gold artifact, one pair at a time.

    By default the two files must list the same record ids in the same
    order; any divergence raises an alignment error naming the id. With
    unordered=True predictions are matched to gold records by id through an
    index of the prediction file. In either mode a large regular gold file
    is scored in line ranges, one per usable CPU (splitscore); the counters,
    the record count and the first error are the serial run's, and no worker
    outlives the call. A worker that dies without a result raises
    ChildProcessError naming its exit status.
    chunk_size only sets the reported chunk count, ceil(records / chunk_size).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    gold_path = Path(gold_path)
    pred_path = Path(pred_path)
    # Imported here, so that importing this module does not load splitscore.
    from piiprep.splitscore import score_ordered, score_unordered

    counters, records = (score_unordered if unordered else score_ordered)(gold_path, pred_path)
    return StreamResult(counters, records, (records + chunk_size - 1) // chunk_size)
