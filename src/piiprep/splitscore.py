"""Scoring on every usable CPU: the gold file cut into line ranges.

The gold file is cut at the line boundary after each even byte cut, one
range per CPU the process may run on (piiprep.workers). The calling process
scores the first range; each other range is scored by a forked worker, which
sends back its counters and record count, or its first error. Every range
reads its gold lines through the serial loop from a start offset and line
number, so messages and line numbers are the serial run's, and the counters,
added in range order, are too.

Ordered scoring (score_ordered) keeps no state across pairs. It finds the
line each range starts at in the prediction file by counting newline bytes,
and only the last range, the one that reaches the end of both files, can
find their record counts differ.

Unordered scoring (score_unordered) first makes the checking pass over the
predictions (predindex's idindex.LineIndex), so its errors come first as in
one process, and then forks the workers, which inherit the finished index by
copy-on-write. Each process matches its gold lines against the whole index
(predindex.gold_pairs), and a worker sends the rows it used with its result,
a bit each. A row that two ranges used is a repeated gold id: the calling
process runs the later range's gold loop again with the earlier ranges' rows
flagged, which fails at its first line that repeats an earlier id, as one
pass fails. Rows no range used are predictions with no gold record, reported
last. The calling process holds the index, about 17.5 bytes a prediction,
whose pages the workers share with it; each worker adds a bit a prediction
and the state of one pair.

Pipes, gold files under workers.SPLIT_MIN_BYTES, one-CPU hosts, platforms
without os.fork, an ordered prediction file too short to hold a cut and a
worker that cannot be forked all leave the run in one process. stream_score
imports this module.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import BinaryIO, Callable

from piiprep import workers
from piiprep.scorer import TypeCounters, _ordered_pairs, _Pairs, _score_pairs

__all__ = ["score_ordered", "score_unordered"]

def _line_ends(f, counts: list[int]) -> list[int]:
    """For each of the ascending counts k, the offset just past the k-th newline.

    Stops at the first k the file has fewer newlines than.
    """
    f.seek(0)
    ends: list[int] = []
    block, base, pos, seen = b"", 0, 0, 0  # seen: newlines before pos
    for k in counts:
        while seen + (m := block.count(b"\n", pos - base)) < k:
            seen += m
            base += len(block)
            pos = base
            if not (block := f.read(workers._BLOCK)):
                return ends
        i = pos - base - 1
        for _ in range(k - seen):
            i = block.find(b"\n", i + 1)
        pos, seen = base + i + 1, k
        ends.append(pos)
    return ends


def _ranges(gold_path: Path, pred_path: Path, cut_pred: bool = True) -> list[tuple[int, int, int]]:
    """(gold offset, prediction offset, first line) of each range to score.

    The gold file's workers.line_ranges. One range, the whole files, where
    the prediction file is not a regular file (a pipe can be read only once)
    and for an ordered prediction file too short to hold a cut. Without
    cut_pred (unordered scoring) every prediction offset is 0.
    """
    starts = [parts[0][1:3] for parts in workers.line_ranges([gold_path])][1:]
    if not starts:
        return [(0, 0, 1)]
    try:
        if not stat.S_ISREG(os.stat(pred_path).st_mode):
            return [(0, 0, 1)]
    except OSError:
        return [(0, 0, 1)]  # the serial reader reports it
    if cut_pred:
        with pred_path.open("rb") as p:
            pred_cuts = _line_ends(p, [line - 1 for _, line in starts])
    else:
        pred_cuts = [0] * len(starts)
    return [(0, 0, 1)] + [(gc, pc, line) for (gc, line), pc in zip(starts, pred_cuts)]


def _line_counts(ranges: list) -> list[int | None]:
    """The number of gold lines in each range, None for the last (to the end)."""
    return [b[2] - a[2] for a, b in zip(ranges, ranges[1:])] + [None]


def _send_scored(out: BinaryIO, pairs: _Pairs, gname: str, pname: str, used=b"") -> None:
    """In a worker: score pairs and send (counts, records, None, used), or
    (None, None, the error packed, used).

    used is the bitmap of the prediction rows the range used (ordered: empty).
    """
    try:
        counters, records = _score_pairs(pairs, gname, pname)
        workers.send(out, (counters.counts, records, None, used))
    except Exception as e:  # raised again by the calling process
        workers.send(out, (None, None, workers.packed(e), used))


def _ordered_task(gold_path: Path, pred_path: Path, start: tuple, lines: int | None
                  ) -> Callable[[BinaryIO], None]:
    """What the worker of an ordered range runs: lines gold lines (None: to the end) from start."""
    gold_start, pred_start, first = start
    return lambda out: _send_scored(
        out, _ordered_pairs(gold_path, pred_path, gold_start, pred_start, first, lines),
        gold_path.name, pred_path.name)


def _unordered_task(index, gold_path: Path, pred_path: Path, start: tuple, lines: int | None
                    ) -> Callable[[BinaryIO], None]:
    """What the worker of an unordered range runs, matching against the finished index."""
    from piiprep.predindex import gold_pairs, no_rows_used

    def run(out: BinaryIO) -> None:
        used = no_rows_used(index)
        with index.open() as f:  # its own: the calling process's shares the offset it seeks
            _send_scored(out, gold_pairs(index, f, gold_path, used, start[0], start[2], lines),
                         gold_path.name, pred_path.name, used)
    return run


def _result(worker: workers.Worker, first_line: int, gname: str) -> tuple:
    """A finished worker's (counts, records, error, used); ChildProcessError if it has none."""
    (result,) = worker.received(f"{gname}: scoring worker for lines from {first_line}")
    return result


def _add(counters: TypeCounters, result: tuple) -> int:
    """Add a worker's counts to counters and return its records, or raise its error.

    The error is the one the serial run raises. Counts are added in range
    order, so types keep the serial run's first-seen order.
    """
    parts, records, error, _ = result
    if error is not None:
        raise workers.unpacked(error)
    counts = counters.counts
    for typ, part in parts.items():
        b = counts.get(typ)
        if b is None:
            counts[typ] = part
        else:
            b[0] += part[0]
            b[1] += part[1]
            b[2] += part[2]
    return records


def score_ordered(gold_path: Path, pred_path: Path) -> tuple[TypeCounters, int]:
    """Counters and record count of two files in the same id order, or the first error.

    The result, and the error raised, are those of one pass over the files.
    No worker outlives the call; one that dies without a result raises
    ChildProcessError naming its exit status.
    """
    gname, pname = gold_path.name, pred_path.name
    ranges = _ranges(gold_path, pred_path)
    lines = _line_counts(ranges)
    tasks = [_ordered_task(gold_path, pred_path, start, count)
             for start, count in zip(ranges[1:], lines[1:])]
    with workers.forked(tasks) as started:
        if not started:
            ranges, lines = ranges[:1], [None]
        counters, records = _score_pairs(
            _ordered_pairs(gold_path, pred_path, pairs=lines[0]), gname, pname)
        for worker, start in zip(started, ranges[1:]):
            records += _add(counters, _result(worker, start[2], gname))
    return counters, records


def score_unordered(gold_path: Path, pred_path: Path) -> tuple[TypeCounters, int]:
    """Counters and record count of predictions matched to gold records by id.

    The predictions must be in a regular file, which is read twice. The
    result, and the error raised, are those of one pass over the gold file.
    No worker outlives the call; one that dies without a result raises
    ChildProcessError naming its exit status.
    """
    from piiprep.predindex import check_all_used, gold_pairs, no_rows_used, prediction_index

    gname, pname = gold_path.name, pred_path.name
    ranges = _ranges(gold_path, pred_path, cut_pred=False)
    index = prediction_index(pred_path)
    for _ in index:
        pass
    lines = _line_counts(ranges)
    tasks = [_unordered_task(index, gold_path, pred_path, start, count)
             for start, count in zip(ranges[1:], lines[1:])]
    with workers.forked(tasks) as started:
        if not started:
            ranges, lines = ranges[:1], [None]
        used = no_rows_used(index)
        size = len(used)
        with index.open() as f:
            counters, records = _score_pairs(
                gold_pairs(index, f, gold_path, used, lines=lines[0]), gname, pname)
            used = int.from_bytes(used, "little")
            for worker, start, count in zip(started, ranges[1:], lines[1:]):
                result = _result(worker, start[2], gname)
                rows = int.from_bytes(result[3], "little")
                if rows & used:
                    # The range used a row that an earlier one used, at or
                    # before its own error, so the repeated gold id comes
                    # first: the gold loop, run again with the earlier rows
                    # flagged, fails at the range's first line that repeats one.
                    earlier = bytearray(used.to_bytes(size, "little"))
                    for _ in gold_pairs(index, f, gold_path, earlier, start[0], start[2], count):
                        pass
                records += _add(counters, result)
                used |= rows
            check_all_used(index, f, used)
    return counters, records
