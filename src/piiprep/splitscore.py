"""Reading a gold and a prediction file into scored pairs, on every usable CPU.

A pair is (gold line, id, gold labels, prediction labels, prediction line).
Every line of either file is a JSON object with a non-empty string "id" and
a "labels" array (_parse_scored_line); a blank line is an error, as in
read_records. _score_pairs counts a pair source into scorer.TypeCounters,
and names the file and line of a malformed label when the kernel raises.

Ordered scoring (score_ordered) reads the two files side by side
(_ordered_pairs): they list the same ids in the same order, and no state is
kept across pairs. Unordered scoring (score_unordered) first makes the
checking pass over the predictions (prediction_index, an idindex.LineIndex
of each line's byte offset and id hash, about 17.5 bytes a prediction, 20
at the peak), so its errors come first. Then gold_pairs looks each gold id
up in it (LineIndex.take), which reads the prediction back from the file
and flags its row in a bitmap of the rows used, a bit a prediction. Ordered
scoring does not import idindex.

The gold file is cut at the line boundary after each even byte cut, one
range per CPU the process may run on, and the ranges are run by
workers.in_ranges: the calling process scores the first range, and a forked
worker each other one. Every range reads its gold lines through the serial
loop from a start offset and line number to a stop offset, and gives its
counters and record count, or its first error, so messages and line numbers
are the serial run's, and the counters, added in range order, are too.
Ordered, each range finds where its first line starts in the prediction file
itself (workers.line_start), so the calling process reads no prediction
before it forks; a range ends with its gold lines, and only the last one, the
one that reaches the end of both files, can find their record counts differ.
A range that runs out of predictions fails as one pass fails there, so a
later range that starts past the end of a short prediction file is never
read. Unordered, the workers are forked once the index is built, and share
its pages by copy-on-write; each range gives the rows it used with its
result, and before its error if it fails. A row that two ranges used is a
repeated gold id: the calling process runs the later range's gold loop
again with the earlier ranges' rows flagged, which fails at its first line
that repeats an earlier id, as one pass fails. The first row no range used
(LineIndex.first_unused) is a prediction with no gold record, reported last.

Pipes, gold files under workers.SPLIT_MIN_BYTES, one-CPU hosts and platforms
without os.fork leave the run in one range. scorer.stream_score imports this
module.
"""

from __future__ import annotations

import os
import stat
from contextlib import closing
from functools import partial
from itertools import chain, repeat, zip_longest
from pathlib import Path
from typing import Iterator

from piiprep import workers
from piiprep.biospan import check_labels
from piiprep.errors import AlignmentError, LabelError, RecordError
from piiprep.jsonl import check_encodable, decode_located_line, iter_lines
from piiprep.scorer import TypeCounters

__all__ = ["gold_pairs", "prediction_index", "score_ordered", "score_unordered"]


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


# A pair source (_ordered_pairs or gold_pairs) yields pairs one at a time.
_Pairs = Iterator[tuple[int, str, list, list, int]]


def _ordered_pairs(gold_path: Path, pred_path: Path, start: int,
                   first_line: int, stop: int | None) -> _Pairs:
    """Pairs of two files that list the same ids in the same order.

    Gold lines are read from byte offset start, line first_line, up to byte
    offset stop (None: the end), and prediction lines from where line
    first_line starts in the prediction file. A range that stops before the
    end ends with its gold lines; only the last one can find that the files'
    record counts differ.
    """
    gname, pname = gold_path.name, pred_path.name
    gold = iter_lines(gold_path, start, first_line, stop)
    pred = iter_lines(pred_path, workers.line_start(pred_path, first_line), first_line)
    # zip asks gold first, so a range that stops reads no prediction past it.
    for g, p in zip_longest(gold, pred) if stop is None else zip(gold, chain(pred, repeat(None))):
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


def prediction_index(pred_path: Path):
    """The idindex.LineIndex of a prediction file, before its pass (or its load)."""
    from piiprep.idindex import LineIndex

    return LineIndex(pred_path, _parse_scored_line, None,
                     not_regular="unordered scoring reads predictions twice, "
                                 "so they must be in a regular file",
                     duplicate="duplicate prediction id",
                     changed="prediction file changed while scoring")


def gold_pairs(index, f, gold_path: Path, used: bytearray, start: int,
               first_line: int, stop: int | None) -> _Pairs:
    """The pairs of gold lines from byte offset start, line first_line, up to
    byte offset stop (None: the end), each matched to a prediction by id.

    index is a prediction_index after its pass, f the prediction file as
    index.open() opens it, and used the bitmap of the rows already scored,
    which LineIndex.take flags the row of each pair in.
    """
    gname = gold_path.name
    for lineno, _, line in iter_lines(gold_path, start, first_line, stop):
        rid, gold_labels = _parse_scored_line(line, lineno, gname)
        row, pred_labels = index.take(f, rid, used)
        if row < 0:
            if pred_labels:  # a used row has rid: an earlier gold record took it
                raise RecordError(f"{gname}:{lineno}: duplicate gold id {rid!r}")
            raise AlignmentError(f"no prediction for gold record {rid!r}")
        yield lineno, rid, gold_labels, pred_labels, row + 1


def _ranges(gold_path: Path, pred_path: Path) -> list[tuple[int, int, int | None]]:
    """(start offset, first line, stop offset or None for the end) of each
    range of the gold file to score: its workers.line_ranges.

    One range, the whole file, where the prediction file is not a regular
    file: a pipe can be read only once.
    """
    ranges = [parts[0][1:] for parts in workers.line_ranges([gold_path])]
    try:
        if len(ranges) == 1 or stat.S_ISREG(os.stat(pred_path).st_mode):
            return ranges
    except OSError:
        pass  # the serial reader reports it
    return [(0, 1, None)]


def _what(gname: str, r: tuple) -> str:
    """The worker of range r, as a ChildProcessError names it."""
    return f"{gname}: scoring worker for lines from {r[1]}"


def _add(counters: TypeCounters, counts: dict) -> None:
    """Add a range's counts to counters.

    Counts are added in range order, so types keep the serial run's
    first-seen order.
    """
    into = counters.counts
    for typ, part in counts.items():
        into[typ] = [a + b for a, b in zip(into.get(typ, (0, 0, 0)), part)]


def _ordered_range(gold_path: Path, pred_path: Path, r: tuple) -> Iterator[tuple]:
    """The (counts, records) of an ordered range, or its first error."""
    counters, records = _score_pairs(_ordered_pairs(gold_path, pred_path, *r),
                                     gold_path.name, pred_path.name)
    yield counters.counts, records


def _unordered_range(index, gold_path: Path, pred_path: Path, r: tuple) -> Iterator[tuple]:
    """The (counts, records, bitmap of the rows used) of an unordered range matched
    against the finished index; on an error, ({}, 0, the rows used before it), then it."""
    used = index.bitmap()
    with index.open() as f:  # its own: another process's shares the offset it seeks
        try:
            counters, records = _score_pairs(
                gold_pairs(index, f, gold_path, used, *r),
                gold_path.name, pred_path.name)
        except Exception:
            yield {}, 0, bytes(used)
            raise
    yield counters.counts, records, bytes(used)


def score_ordered(gold_path: Path, pred_path: Path) -> tuple[TypeCounters, int]:
    """Counters and record count of two files in the same id order, or the first error.

    The result, and the error raised, are those of one pass over the files.
    No worker outlives the call; one that dies without a result raises
    ChildProcessError naming its exit status.
    """
    counters, records = TypeCounters(), 0
    with closing(workers.in_ranges(_ranges(gold_path, pred_path),
                                   partial(_ordered_range, gold_path, pred_path),
                                   partial(_what, gold_path.name))) as results:
        for counts, n in results:
            _add(counters, counts)
            records += n
    return counters, records


def score_unordered(gold_path: Path, pred_path: Path) -> tuple[TypeCounters, int]:
    """Counters and record count of predictions matched to gold records by id.

    The predictions must be in a regular file, which is read twice. The
    result, and the error raised, are those of one pass over the gold file.
    No worker outlives the call; one that dies without a result raises
    ChildProcessError naming its exit status.
    """
    ranges = _ranges(gold_path, pred_path)
    index = prediction_index(pred_path)
    for _ in index:
        pass
    counters, records, used = TypeCounters(), 0, 0  # used: the ranges' bitmaps as one int
    with index.open() as f, closing(workers.in_ranges(
            ranges, partial(_unordered_range, index, gold_path, pred_path),
            partial(_what, gold_path.name))) as results:
        # results before ranges: zip asks results for the error that follows
        # a failed range's rows only if it asks results first.
        for (counts, n, bits), r in zip(results, ranges):
            rows = int.from_bytes(bits, "little")
            if rows & used:
                # The range used a row that an earlier one used, at or before
                # its own error, so the repeated gold id comes first: the gold
                # loop, run again with the earlier rows flagged, fails at the
                # range's first line that repeats one.
                earlier = bytearray(used.to_bytes(len(bits), "little"))
                for _ in gold_pairs(index, f, gold_path, earlier, *r):
                    pass
            _add(counters, counts)
            records += n
            used |= rows
        unused = index.first_unused(f, used.to_bytes(len(bits), "little"))
        if unused is not None:
            raise AlignmentError(f"prediction id {unused[0]!r} has no gold record")
    return counters, records
