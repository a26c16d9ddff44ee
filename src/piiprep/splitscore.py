"""Scoring on every usable CPU: the gold file cut into line ranges.

The gold file is cut at the line boundary after each even byte cut, one
range per CPU the process may run on, and the ranges are run by
workers.in_ranges: the calling process scores the first range, and a forked
worker each other one. Every range reads its gold lines through the serial
loop from a start offset and line number, and gives its counters and record
count, or its first error, so messages and line numbers are the serial
run's, and the counters, added in range order, are too.

Ordered scoring (score_ordered) keeps no state across pairs. It finds the
line each range starts at in the prediction file by counting newline bytes,
and only the last range, the one that reaches the end of both files, can
find their record counts differ.

Unordered scoring (score_unordered) first makes the checking pass over the
predictions (predindex's idindex.LineIndex), so its errors come first as in
one process, and then forks the workers, which inherit the finished index by
copy-on-write. Each range matches its gold lines against the whole index
(predindex.gold_pairs) and gives the rows it used with its result, a bit
each, and before its error if it fails. A row that two ranges used is a
repeated gold id: the calling process runs the later range's gold loop
again with the earlier ranges' rows flagged, which fails at its first line
that repeats an earlier id, as one pass fails. Rows no range used are
predictions with no gold record, reported last. The calling process holds
the index, about 17.5 bytes a prediction, whose pages the workers share with
it; each worker adds a bit a prediction and the state of one pair.

Pipes, gold files under workers.SPLIT_MIN_BYTES, one-CPU hosts, platforms
without os.fork and an ordered prediction file too short to hold a cut
leave the run in one range; if a worker cannot be forked, the calling
process scores every range itself. stream_score imports this module.
"""

from __future__ import annotations

import os
import stat
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import Iterator

from piiprep import workers
from piiprep.scorer import TypeCounters, _ordered_pairs, _score_pairs

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


def _ranges(gold_path: Path, pred_path: Path, cut_pred: bool = True
            ) -> list[tuple[int, int, int, int | None]]:
    """(gold offset, prediction offset, first line, line count or None for the
    rest) of each range to score.

    The gold file's workers.line_ranges. One range, the whole files, where
    the prediction file is not a regular file (a pipe can be read only once)
    and for an ordered prediction file too short to hold a cut. Without
    cut_pred (unordered scoring) every prediction offset is 0.
    """
    starts = [parts[0][1:3] for parts in workers.line_ranges([gold_path])][1:]
    whole = [(0, 0, 1, None)]
    if not starts:
        return whole
    try:
        if not stat.S_ISREG(os.stat(pred_path).st_mode):
            return whole
    except OSError:
        return whole  # the serial reader reports it
    if cut_pred:
        with pred_path.open("rb") as p:
            pred_cuts = _line_ends(p, [line - 1 for _, line in starts])
    else:
        pred_cuts = [0] * len(starts)
    starts = [(0, 0, 1)] + [(gc, pc, line) for (gc, line), pc in zip(starts, pred_cuts)]
    ends = [line for _, _, line in starts[1:]] + [None]
    return [(gc, pc, line, end and end - line) for (gc, pc, line), end in zip(starts, ends)]


def _what(gname: str, r: tuple) -> str:
    """The worker of range r, as a ChildProcessError names it."""
    return f"{gname}: scoring worker for lines from {r[2]}"


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
    gold_start, pred_start, first, lines = r
    counters, records = _score_pairs(
        _ordered_pairs(gold_path, pred_path, gold_start, pred_start, first, lines),
        gold_path.name, pred_path.name)
    yield counters.counts, records


def _unordered_range(index, gold_path: Path, pred_path: Path, r: tuple) -> Iterator[tuple]:
    """The (counts, records, rows used) of an unordered range matched against
    the finished index; on an error, ({}, 0, the rows used before it), then the error.

    The rows used are a bitmap, as predindex.no_rows_used makes it.
    """
    from piiprep.predindex import gold_pairs, no_rows_used

    gold_start, _, first, lines = r
    used = no_rows_used(index)
    with index.open() as f:  # its own: another process's shares the offset it seeks
        try:
            counters, records = _score_pairs(
                gold_pairs(index, f, gold_path, used, gold_start, first, lines),
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
    from piiprep.predindex import check_all_used, gold_pairs, prediction_index

    ranges = _ranges(gold_path, pred_path, cut_pred=False)
    index = prediction_index(pred_path)
    for _ in index:
        pass
    counters, records, used = TypeCounters(), 0, 0
    with index.open() as f, closing(workers.in_ranges(
            ranges, partial(_unordered_range, index, gold_path, pred_path),
            partial(_what, gold_path.name))) as results:
        # results before ranges: zip asks results for the error that follows
        # a failed range's rows only if it asks results first.
        for (counts, n, bits), (start, _, first, lines) in zip(results, ranges):
            rows = int.from_bytes(bits, "little")
            if rows & used:
                # The range used a row that an earlier one used, at or before
                # its own error, so the repeated gold id comes first: the gold
                # loop, run again with the earlier rows flagged, fails at the
                # range's first line that repeats one.
                earlier = bytearray(used.to_bytes(len(bits), "little"))
                for _ in gold_pairs(index, f, gold_path, earlier, start, first, lines):
                    pass
            _add(counters, counts)
            records += n
            used |= rows
        check_all_used(index, f, used)
    return counters, records
