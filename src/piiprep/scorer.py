"""Streaming span-level exact-match scoring.

A predicted span counts as a true positive only when its token start, token
end and entity type all match a gold span. Counters are integer sums per
type, and both files are read one line at a time, so memory stays bounded
by the label space plus one record pair, independent of corpus length.
Unordered scoring adds an index of prediction byte offsets and id hashes,
about 17.5 bytes per record.

On a host with more than one usable CPU, splitscore cuts a large regular gold
file into line ranges, one per CPU, and scores every range but the first in
a worker process while the calling process scores the first. Ordered, each
process holds the same bounded state as one serial run. Unordered, the
calling process builds the prediction index before it forks the workers, so
they share its pages, and each adds a bit a prediction for the rows it used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice, zip_longest
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from piiprep.biospan import check_labels, extract_span_tuples
from piiprep.errors import AlignmentError, LabelError, RecordError
from piiprep.jsonl import check_encodable, decode_located_line, iter_lines

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


@dataclass
class StreamResult:
    counters: TypeCounters
    records: int
    chunks: int


def _parse_scored_line(line: str, lineno: int, path: str) -> tuple[str, list[str]]:
    obj = decode_located_line(line, lineno, path)
    if not isinstance(obj, dict) or "id" not in obj or "labels" not in obj:
        raise RecordError(f"{path}:{lineno}: expected an object with 'id' and 'labels'")
    rid = obj["id"]
    if type(rid) is not str or not rid:
        raise RecordError(f"{path}:{lineno}: record id must be a non-empty string, got {rid!r}")
    labels = obj["labels"]
    if type(labels) is not list:
        raise RecordError(f"{path}:{lineno}: labels must be a JSON array")
    if "\\u" in line:  # a label the report could not be written with
        check_encodable((f"{path}:{lineno}: record {rid}: label {i}", lab)
                        for i, lab in enumerate(labels))
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


# A pair source (_ordered_pairs or predindex.gold_pairs) yields (gold line,
# id, gold labels, prediction labels, prediction line) one at a time.
_Pairs = Iterator[tuple[int, str, list, list, int]]


def _ordered_pairs(
    gold_path: Path,
    pred_path: Path,
    gold_start: int = 0,
    pred_start: int = 0,
    first_line: int = 1,
    pairs: int | None = None,
) -> _Pairs:
    """Pairs of two files that list the same ids in the same order.

    Reading starts at byte offsets gold_start and pred_start, both at line
    first_line, and stops after pairs pairs (None: at the end of both files).
    Only a range that reaches the end can find the files' counts differ.
    """
    gname, pname = gold_path.name, pred_path.name
    lines = zip_longest(iter_lines(gold_path, gold_start, first_line),
                        iter_lines(pred_path, pred_start, first_line))
    for g, p in lines if pairs is None else islice(lines, pairs):
        if g is None or p is None:
            # The longer file's next line: a blank one is reported as such
            # (a trailing empty line, say), not as a count mismatch.
            name, (lineno, _, line) = (gname, g) if p is None else (pname, p)
            if not line.strip():
                raise RecordError(f"{name}:{lineno}: blank line")
            raise AlignmentError(
                f"record count mismatch: {gname} has at least "
                f"{lineno if g else lineno - 1} records, {pname} has at least "
                f"{lineno if p else lineno - 1}"
            )
        lineno = g[0]
        gid, gold_labels = _parse_scored_line(g[2], lineno, gname)
        pid, pred_labels = _parse_scored_line(p[2], lineno, pname)
        if gid != pid:
            raise AlignmentError(
                f"record order mismatch at line {lineno}: gold id {gid!r} "
                f"vs prediction id {pid!r}"
            )
        yield lineno, gid, gold_labels, pred_labels, lineno


def _score_pairs(pairs: _Pairs, gname: str, pname: str) -> tuple[TypeCounters, int]:
    """Counters and record count of a pair source, or its first error, located."""
    counters = TypeCounters()
    records = 0
    for lineno, rid, gold_labels, pred_labels, pred_lineno in pairs:
        try:
            counters.add_pair(gold_labels, pred_labels)
        except AlignmentError as e:
            raise AlignmentError(f"record {rid!r}: {e}") from None
        except (LabelError, TypeError):
            _raise_label_error(gname, lineno, rid, gold_labels)
            _raise_label_error(pname, pred_lineno, rid, pred_labels)
            raise
        records += 1
    return counters, records


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
    unordered=True predictions are indexed by id and read back as their gold
    records arrive (predindex): memory grows by about 17.5 bytes per
    prediction, 20 at the peak. In either mode a large regular gold file is
    scored in line ranges, one per usable CPU, each range but the first in a
    forked worker, which holds the same state as one serial run (unordered,
    a bit a prediction too, beside the index it shares with the calling
    process); the counters, the record count and the first error are the
    serial run's, and no worker outlives the call. A worker that dies
    without a result raises ChildProcessError naming its exit status. In
    both modes a blank line in either file is an error, as in read_records.
    chunk_size only sets the reported chunk count, ceil(records / chunk_size).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    gold_path = Path(gold_path)
    pred_path = Path(pred_path)
    # Imported here, so that importing this module does not load splitscore,
    # and ordered scoring does not load the prediction index either.
    from piiprep.splitscore import score_ordered, score_unordered

    counters, records = (score_unordered if unordered else score_ordered)(gold_path, pred_path)
    return StreamResult(counters, records, (records + chunk_size - 1) // chunk_size)
