"""Ordered scoring on every usable CPU: the files cut into line ranges.

Ordered scoring keeps no state across pairs, so the counters of consecutive
line ranges add up to those of the whole files. score_ordered cuts the gold
file at the line boundary after each even byte cut, one range per CPU the
process may run on, and finds the same line in the prediction file by
counting newline bytes. The calling process scores the first range; each
other range is scored by a worker process running this module
(python -S -m piiprep.splitscore), which prints its counters and record
count, or its first error, as JSON. Every range reads its lines through the
serial pair loop from a start offset and line number, so messages and line
numbers are the serial run's, and only the last range, the one that reaches
the end of both files, can find their record counts differ.

Pipes, gold files under SPLIT_MIN_BYTES, one-CPU hosts, a prediction file
too short to hold a cut and a worker that cannot be started all leave the
run in one process. stream_score imports this module for ordered scoring.
"""

from __future__ import annotations

import builtins
import json
import os
import stat
import sys
from pathlib import Path

from piiprep import errors
from piiprep.scorer import TypeCounters, _ordered_pairs, _score_pairs

__all__ = ["score_ordered"]

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


def _ranges(gold_path: Path, pred_path: Path) -> list[tuple[int, int, int]]:
    """(gold offset, prediction offset, first line) of each range to score.

    One range, the whole files, on one CPU, for a gold file under
    SPLIT_MIN_BYTES, for an input that is not a regular file (a pipe can be
    read only once) and for a prediction file too short to hold a cut.
    """
    ranges = [(0, 0, 1)]
    n = _cpus()
    if n < 2:
        return ranges
    try:
        gstat, pstat = os.stat(gold_path), os.stat(pred_path)
    except OSError:
        return ranges  # the serial reader reports it
    if not (stat.S_ISREG(gstat.st_mode) and stat.S_ISREG(pstat.st_mode)) \
            or gstat.st_size < SPLIT_MIN_BYTES:
        return ranges
    with gold_path.open("rb") as g, pred_path.open("rb") as p:
        cuts = _gold_cuts(g, gstat.st_size, n)
        counts = _newlines_before(g, cuts)
        pred_cuts = _line_ends(p, counts)
    return ranges + [(gc, pc, k + 1) for gc, pc, k in zip(cuts, pred_cuts, counts)]


def _worker_args(gold_path: Path, pred_path: Path, start: tuple, end: tuple | None) -> list[str]:
    pairs = "-" if end is None else str(end[2] - start[2])
    return [os.fspath(gold_path), os.fspath(pred_path), *map(str, start), pairs]


def _worker(argv: list[str]) -> dict:
    """Score one range for a parent process: its counts and records, or its first error."""
    gold, pred, gold_start, pred_start, first_line, pairs = argv
    gold_path, pred_path = Path(gold), Path(pred)
    try:
        counters, records = _score_pairs(
            _ordered_pairs(gold_path, pred_path, int(gold_start), int(pred_start),
                           int(first_line), None if pairs == "-" else int(pairs)),
            gold_path.name, pred_path.name)
    except Exception as e:  # reported to the parent, which raises it
        return {"error": [type(e).__name__, str(e)]}
    return {"counts": counters.counts, "records": records}


def _worker_result(proc, first_line: int, gname: str) -> dict:
    """A finished worker's result, or its error raised as the serial run raises it."""
    out, err = proc.communicate()
    try:
        result = json.loads(out) if proc.returncode == 0 else None
    except ValueError:
        result = None
    if result is None:
        how = f"exited with status {proc.returncode}"
        if proc.returncode < 0:
            how += f" (killed by signal {-proc.returncode})"
        detail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
        raise ChildProcessError(f"{gname}: scoring worker for lines from {first_line} {how}"
                                + "".join(f": {d}" for d in detail))
    if "error" in result:
        name, message = result["error"]
        cls = getattr(errors, name, None) or getattr(builtins, name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls, message = ChildProcessError, f"{name}: {message}"
        raise cls(message)
    return result


def score_ordered(gold_path: Path, pred_path: Path) -> tuple[TypeCounters, int]:
    """Counters and record count of two files in the same id order, or the first error.

    The result, and the error raised, are those of one pass over the files.
    No worker outlives the call; one that dies without a result raises
    ChildProcessError naming its exit status.
    """
    gname, pname = gold_path.name, pred_path.name
    ranges = _ranges(gold_path, pred_path)
    if len(ranges) == 1:
        return _score_pairs(_ordered_pairs(gold_path, pred_path), gname, pname)
    # Imported here: it costs start-up time that a serial run need not pay.
    import subprocess

    # A worker needs only the standard library and this piiprep. It starts
    # without site (-S), with the directory that holds this package as its
    # only PYTHONPATH entry and as its working directory (python -m puts that
    # first on its path), so it is given absolute file paths.
    root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=root)
    cwd = Path.cwd()
    workers = []
    try:
        try:
            for start, end in zip(ranges[1:], ranges[2:] + [None]):
                workers.append(subprocess.Popen(
                    [sys.executable, "-S", "-m", "piiprep.splitscore",
                     *_worker_args(cwd / gold_path, cwd / pred_path, start, end)],
                    cwd=root, env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        except OSError:
            return _score_pairs(_ordered_pairs(gold_path, pred_path), gname, pname)
        counters, records = _score_pairs(
            _ordered_pairs(gold_path, pred_path, pairs=ranges[1][2] - 1), gname, pname)
        # Added in range order, so types keep the serial run's first-seen order.
        counts = counters.counts
        for proc, start in zip(workers, ranges[1:]):
            result = _worker_result(proc, start[2], gname)
            for typ, part in result["counts"].items():
                b = counts.get(typ)
                if b is None:
                    counts[typ] = part
                else:
                    b[0] += part[0]
                    b[1] += part[1]
                    b[2] += part[2]
            records += result["records"]
        return counters, records
    finally:
        for proc in workers:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()


if __name__ == "__main__":
    sys.stdout.write(json.dumps(_worker(sys.argv[1:])))
