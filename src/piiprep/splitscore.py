"""Scoring on every usable CPU: the gold file cut into line ranges.

The gold file is cut at the line boundary after each even byte cut, one
range per CPU the process may run on. The calling process scores the first
range; each other range is scored by a worker process running this module
(python -S -m piiprep.splitscore), which prints its counters and record
count, or its first error, as JSON. Every range reads its gold lines through
the serial loop from a start offset and line number, so messages and line
numbers are the serial run's, and the counters, added in range order, are
too.

Ordered scoring (score_ordered) keeps no state across pairs. It finds the
line each range starts at in the prediction file by counting newline bytes,
and only the last range, the one that reaches the end of both files, can
find their record counts differ.

Unordered scoring (score_unordered) starts its workers, then makes the
checking pass over the predictions (predindex's idindex.LineIndex), so its
errors come first as in one process. It writes the index's keys and
offsets, 16 bytes a prediction, to an unlinked temporary file whose
descriptor each worker inherited, then sends each worker the index's length
on its stdin; the workers map the file read-only, so they share one copy of
its pages. Each process matches its gold lines against the whole index
(predindex.gold_pairs), and a worker prints the rows it used after its
JSON, a bit each. A row that two ranges used is a repeated gold id: the
calling process runs the later range's gold loop again with the earlier
ranges' rows flagged, which fails at its first line that repeats an earlier
id, as one pass fails. Rows no range used are predictions with no gold
record, reported last. The calling process holds the index, about 17.5
bytes a prediction; each worker holds a bit a prediction and the state of
one pair; the mapped file, 16 bytes a prediction, is held once for all.

Pipes, gold files under SPLIT_MIN_BYTES, one-CPU hosts, an ordered
prediction file too short to hold a cut, unordered scoring where no file
descriptor can be passed to a worker (not POSIX) and a worker that cannot
be started all leave the run in one process. stream_score imports this
module.
"""

from __future__ import annotations

import builtins
import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

from piiprep import errors
from piiprep.scorer import TypeCounters, _ordered_pairs, _score_pairs

__all__ = ["score_ordered", "score_unordered"]

# Gold files smaller than this are scored in one process. On a 2-vCPU host a
# worker took about 0.1 s to start; on perfbench's score records (about 550
# gold bytes a pair, medians of 7 fresh-process pairs) two ranges were
# slower than one at 2.2 MB of gold (0.143 s against 0.121 s) and faster at
# 4.4 MB (0.206 s against 0.232 s).
SPLIT_MIN_BYTES = 4 << 20
_BLOCK = 1 << 16  # read size when looking for cuts; small, so traced memory stays flat


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _gold_cuts(f, size: int, n: int) -> list[int]:
    """Distinct line boundaries inside the file, one after each of n - 1 even byte cuts."""
    cuts: list[int] = []
    for j in range(1, n):
        pos = size * j // n
        f.seek(pos)
        while block := f.read(_BLOCK):
            i = block.find(b"\n")
            if i >= 0:
                pos += i + 1
                break
            pos += len(block)
        if pos < size and (not cuts or pos > cuts[-1]):
            cuts.append(pos)
    return cuts


def _newlines_before(f, ends: list[int]) -> list[int]:
    """The number of newline bytes before each of the ascending offsets ends."""
    f.seek(0)
    counts, seen, pos = [], 0, 0
    for end in ends:
        while pos < end and (block := f.read(min(_BLOCK, end - pos))):
            seen += block.count(b"\n")
            pos += len(block)
        counts.append(seen)
    return counts


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
            if not (block := f.read(_BLOCK)):
                return ends
        i = pos - base - 1
        for _ in range(k - seen):
            i = block.find(b"\n", i + 1)
        pos, seen = base + i + 1, k
        ends.append(pos)
    return ends


def _ranges(gold_path: Path, pred_path: Path, cut_pred: bool = True) -> list[tuple[int, int, int]]:
    """(gold offset, prediction offset, first line) of each range to score.

    One range, the whole files, on one CPU, for a gold file under
    SPLIT_MIN_BYTES, for an input that is not a regular file (a pipe can be
    read only once) and for a prediction file too short to hold a cut.
    Without cut_pred (unordered scoring) every prediction offset is 0, and
    off POSIX, where a worker cannot inherit the index file, there is one range.
    """
    ranges = [(0, 0, 1)]
    n = _cpus()
    if n < 2 or not cut_pred and os.name != "posix":
        return ranges
    try:
        gstat, pstat = os.stat(gold_path), os.stat(pred_path)
    except OSError:
        return ranges  # the serial reader reports it
    if not (stat.S_ISREG(gstat.st_mode) and stat.S_ISREG(pstat.st_mode)) \
            or gstat.st_size < SPLIT_MIN_BYTES:
        return ranges
    with gold_path.open("rb") as g:
        cuts = _gold_cuts(g, gstat.st_size, n)
        counts = _newlines_before(g, cuts)
    if cut_pred:
        with pred_path.open("rb") as p:
            pred_cuts = _line_ends(p, counts)
    else:
        pred_cuts = [0] * len(cuts)
    return ranges + [(gc, pc, k + 1) for gc, pc, k in zip(cuts, pred_cuts, counts)]


def _line_counts(ranges: list) -> list[int | None]:
    """The number of gold lines in each range, None for the last (to the end)."""
    return [b[2] - a[2] for a, b in zip(ranges, ranges[1:])] + [None]


def _worker_args(gold_path: Path, pred_path: Path, start: tuple, lines: int | None,
                 index_fd: int | None = None) -> list[str]:
    """The command line of a worker that scores lines gold lines from start (None: to
    the end), unordered if it is given the descriptor of the index file."""
    return ["-" if index_fd is None else str(index_fd), os.fspath(gold_path),
            os.fspath(pred_path), *map(str, start), "-" if lines is None else str(lines)]


def _worker(argv: list[str], stdin=None) -> dict:
    """Score one range for a parent process: its counts and records, or its first error.

    Unordered, the worker reads the index's length from stdin once the
    index file is written, maps the file, and "used" is the bitmap of the
    rows the range used.
    """
    index_fd, gold, pred, gold_start, pred_start, first_line, lines = argv
    gold_path, pred_path = Path(gold), Path(pred)
    start, first, count = int(gold_start), int(first_line), None if lines == "-" else int(lines)
    used = bytearray()
    try:
        if index_fd == "-":
            pairs = _ordered_pairs(gold_path, pred_path, start, int(pred_start), first, count)
            counters, records = _score_pairs(pairs, gold_path.name, pred_path.name)
        else:
            from piiprep.predindex import gold_pairs, no_rows_used, prediction_index

            index = prediction_index(pred_path)
            index.map(int(index_fd), int.from_bytes(stdin.read(8), "little"))
            used = no_rows_used(index)
            with index.open() as f:
                counters, records = _score_pairs(
                    gold_pairs(index, f, gold_path, used, start, first, count),
                    gold_path.name, pred_path.name)
    except Exception as e:  # reported to the parent, which raises it
        return {"error": [type(e).__name__, str(e)], "used": used}
    return {"counts": counters.counts, "records": records, "used": used}


def _worker_result(proc, first_line: int, gname: str) -> dict:
    """A finished worker's result; ChildProcessError if it has none.

    "used" is the bitmap of the rows it used as one int, row r bit r (ordered: 0).
    """
    out, err = proc.communicate()
    end = out.find(b"\n")
    try:
        result = json.loads(out[:end]) if proc.returncode == 0 and end >= 0 else None
    except ValueError:
        result = None
    if result is None:
        how = f"exited with status {proc.returncode}"
        if proc.returncode < 0:
            how += f" (killed by signal {-proc.returncode})"
        detail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
        raise ChildProcessError(f"{gname}: scoring worker for lines from {first_line} {how}"
                                + "".join(f": {d}" for d in detail))
    result["used"] = int.from_bytes(memoryview(out)[end + 1:], "little")
    return result


def _add(counters: TypeCounters, result: dict) -> int:
    """Add a worker's counts to counters and return its records, or raise its error.

    The error is raised as the serial run raises it. Counts are added in
    range order, so types keep the serial run's first-seen order.
    """
    if "error" in result:
        name, message = result["error"]
        cls = getattr(errors, name, None) or getattr(builtins, name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls, message = ChildProcessError, f"{name}: {message}"
        raise cls(message)
    counts = counters.counts
    for typ, part in result["counts"].items():
        b = counts.get(typ)
        if b is None:
            counts[typ] = part
        else:
            b[0] += part[0]
            b[1] += part[1]
            b[2] += part[2]
    return result["records"]


@contextmanager
def _started(gold_path: Path, pred_path: Path, ranges: list,
             unordered: bool) -> Iterator[tuple[list, list, BinaryIO | None]]:
    """(ranges, workers, index file): a worker for each range but the first.

    If one cannot be started, the run stays in one process: ranges is cut
    to the first and workers is empty. An unordered worker inherits the
    index file, an unlinked temporary file (None when there is no worker),
    and waits on its stdin for the length of the index written there. No
    worker outlives the block: each still running is killed, and every one
    is waited for.
    """
    if len(ranges) == 1:
        yield ranges, [], None
        return
    # Imported here: it costs start-up time that a serial run need not pay.
    import subprocess

    # A worker needs only the standard library and this piiprep. It starts
    # without site (-S), with the directory that holds this package as its
    # only PYTHONPATH entry and as its working directory (python -m puts that
    # first on its path), so it is given absolute file paths.
    root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=root)
    cwd = Path.cwd()
    workers: list = []
    index_file = None
    try:
        try:
            fds = ()
            if unordered:
                import tempfile

                index_file = tempfile.TemporaryFile()
                fds = (index_file.fileno(),)
            for start, lines in zip(ranges[1:], _line_counts(ranges)[1:]):
                workers.append(subprocess.Popen(
                    [sys.executable, "-S", "-m", "piiprep.splitscore",
                     *_worker_args(cwd / gold_path, cwd / pred_path, start, lines, *fds)],
                    cwd=root, env=env, pass_fds=fds,
                    stdin=subprocess.PIPE if unordered else subprocess.DEVNULL,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        except OSError:
            yield ranges[:1], [], None
        else:
            yield ranges, workers, index_file
    finally:
        for proc in workers:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
        if index_file is not None:
            index_file.close()


def score_ordered(gold_path: Path, pred_path: Path) -> tuple[TypeCounters, int]:
    """Counters and record count of two files in the same id order, or the first error.

    The result, and the error raised, are those of one pass over the files.
    No worker outlives the call; one that dies without a result raises
    ChildProcessError naming its exit status.
    """
    gname, pname = gold_path.name, pred_path.name
    ranges = _ranges(gold_path, pred_path)
    with _started(gold_path, pred_path, ranges, unordered=False) as (ranges, workers, _):
        counters, records = _score_pairs(
            _ordered_pairs(gold_path, pred_path, pairs=_line_counts(ranges)[0]), gname, pname)
        for proc, start in zip(workers, ranges[1:]):
            records += _add(counters, _worker_result(proc, start[2], gname))
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
    with _started(gold_path, pred_path, ranges, unordered=True) as (ranges, workers, index_file):
        # The workers start up while the predictions are indexed.
        index = prediction_index(pred_path)
        for _ in index:
            pass
        if workers:
            index.write_to(index_file)
            for proc in workers:
                try:
                    proc.stdin.write(len(index.keys).to_bytes(8, "little"))
                    proc.stdin.flush()
                except BrokenPipeError:
                    pass  # the worker has exited: _worker_result says how
        lines = _line_counts(ranges)
        used = no_rows_used(index)
        size = len(used)
        with index.open() as f:
            counters, records = _score_pairs(
                gold_pairs(index, f, gold_path, used, lines=lines[0]), gname, pname)
            used = int.from_bytes(used, "little")  # as each worker's "used"
            for proc, start, count in zip(workers, ranges[1:], lines[1:]):
                result = _worker_result(proc, start[2], gname)
                if result["used"] & used:
                    # The range used a row that an earlier one used, at or
                    # before its own error, so the repeated gold id comes
                    # first: the gold loop, run again with the earlier rows
                    # flagged, fails at the range's first line that repeats one.
                    earlier = bytearray(used.to_bytes(size, "little"))
                    for _ in gold_pairs(index, f, gold_path, earlier, start[0], start[2], count):
                        pass
                records += _add(counters, result)
                used |= result["used"]
            check_all_used(index, f, used)
    return counters, records


if __name__ == "__main__":
    result = _worker(sys.argv[1:], sys.stdin.buffer)
    used = result.pop("used")
    sys.stdout.buffer.write(json.dumps(result).encode("ascii") + b"\n")
    sys.stdout.buffer.write(used)
