"""Work in line ranges on every usable CPU, each range but the first in a forked worker.

prepare's consolidate and score (splitscore) cut their input at line
boundaries into one range per usable CPU (line_ranges), run the first range
in the calling process and give each other range to forked(), which forks a
worker for it. A worker inherits the calling process's memory by
copy-on-write: the config and taxonomy, or unordered scoring's finished
prediction index. It opens every file it reads itself, since an inherited
descriptor shares its offset with the caller. It writes its result with
send() to an unlinked temporary file and leaves through os._exit, so it
never runs the caller's exit handlers or flushes a buffer it inherited; it
never logs. The caller reaps the workers in range order and reads each
result back with Worker.received.

Inputs under SPLIT_MIN_BYTES, a host with one usable CPU, a platform
without os.fork, and a fork or temporary file that fails all leave the run
in one process.
"""

from __future__ import annotations

import gc
import marshal
import os
import signal
import stat
import sys
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

__all__ = ["SPLIT_MIN_BYTES", "Worker", "cpus", "forked", "line_ranges", "packed", "send",
           "sent", "unpacked"]

# Inputs smaller than this run in one process. On a 2-vCPU host, where a fork
# and reap took about 3 ms, two ranges against one on perfbench's inputs
# (medians of 9 alternating fresh-process pairs) were slower at 0.25 MB
# (score 25.7 ms against 24.4, prepare 54.2 against 48.6) and at 0.49 MB of
# prepare sources (91.1 against 87.2), and faster from about 1 MB (score
# 57.5 against 76.0 ms, prepare 143.0 against 164.3).
SPLIT_MIN_BYTES = 1 << 20
_BLOCK = 1 << 16  # read size when looking for cuts; small, so traced memory stays flat


def cpus() -> int:
    """The ranges to cut work into: the CPUs this process may run on, 1 without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_end(f, pos: int) -> int:
    """The offset just past the first newline at or after pos in binary file f, or its end."""
    f.seek(pos)
    while block := f.read(_BLOCK):
        i = block.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(block)
    return pos


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


def _cuts(paths: Sequence[Path], sizes: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Distinct (file, offset) line starts, one after each of n - 1 even cuts of the files
    read one after another: just past a newline, or at the start of the next file."""
    ends = list(accumulate(sizes))
    cuts: list[tuple[int, int]] = []
    for j in range(1, n if ends and ends[-1] else 1):
        pos = ends[-1] * j // n
        i = bisect_right(ends, pos)  # the file that holds byte pos
        with open(paths[i], "rb") as f:
            offset = _line_end(f, pos - (ends[i] - sizes[i]))
        cut = (i, offset) if offset < sizes[i] else (i + 1, 0)
        if cut[0] < len(sizes) and (not cuts or cut > cuts[-1]):
            cuts.append(cut)
    return cuts


def line_ranges(paths: Sequence[Path]) -> list[list[tuple[int, int, int, int | None]]]:
    """The files, read one after another, cut at line boundaries into one range
    per usable CPU: each range a list of parts, the (file index, start offset,
    first line, stop offset or None for the file's end) of the lines it reads
    from one file.

    One range, each file whole, where cpus() is 1, when the files hold fewer
    than SPLIT_MIN_BYTES, or when one is not a regular file: a pipe can be
    read only once. A file that cannot be found counts as empty here; the
    range it falls in reports it.
    """
    whole = [[(i, 0, 1, None) for i in range(len(paths))]]
    n = cpus()
    if n < 2:
        return whole
    sizes = []
    for path in paths:
        try:
            st = os.stat(path)
        except OSError:
            sizes.append(0)
            continue
        if not stat.S_ISREG(st.st_mode):
            return whole
        sizes.append(st.st_size)
    if sum(sizes) < SPLIT_MIN_BYTES:
        return whole
    starts = [(0, 0, 1)]
    try:
        for i, cuts in groupby(_cuts(paths, sizes, n), itemgetter(0)):
            offsets = [offset for _, offset in cuts]
            counts = [0] * len(offsets)
            if offsets[-1]:
                with open(paths[i], "rb") as f:
                    counts = _newlines_before(f, offsets)
            starts += [(i, offset, k + 1) for offset, k in zip(offsets, counts)]
    except OSError:
        return whole  # the serial run reports it in order
    ranges = []
    for (i, offset, line), (end, end_offset, _) in zip(starts, starts[1:] + [(len(paths), 0, 1)]):
        parts = []
        while (i, offset) < (end, end_offset):
            parts.append((i, offset, line, end_offset if i == end else None))
            i, offset, line = i + 1, 0, 1
        ranges.append(parts)
    return ranges


def send(f: BinaryIO, obj) -> None:
    """Write obj, of values marshal can write (an exception as packed() packs
    it), to a worker's result file f, to be read back by sent()."""
    data = marshal.dumps(obj)
    f.write(len(data).to_bytes(8, "little"))
    f.write(data)


def sent(f: BinaryIO) -> Iterator:
    """Each object that send() wrote to binary file f, from its start."""
    f.seek(0)
    while size := f.read(8):
        yield marshal.loads(f.read(int.from_bytes(size, "little")))


def packed(e: BaseException) -> tuple:
    """Exception e as values send() can write; unpacked() makes it again."""
    cls, args = e.__reduce__()[:2]
    try:
        marshal.dumps(args)
    except ValueError:
        args = None
    return cls.__module__, cls.__qualname__, args, str(e)


def unpacked(state: tuple) -> BaseException:
    """The exception that packed() packed, or a ChildProcessError naming it
    where its class or arguments cannot be had here."""
    module, name, args, text = state
    try:
        return getattr(sys.modules[module], name)(*args)
    except Exception:
        return ChildProcessError(f"{name}: {text}")


class Worker:
    """A forked worker: its process id, its result file, and its exit status
    once it is reaped (None before): negative, the signal that killed it."""

    def __init__(self, pid: int, file: BinaryIO) -> None:
        self.pid = pid
        self.file = file
        self.status: int | None = None

    def reap(self) -> int:
        """Wait for the worker to exit, and return its exit status."""
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status

    def received(self, what: str) -> Iterator:
        """Each object the worker sent, in order, once it has exited.

        A worker that did not exit 0 raises ChildProcessError naming what
        ("g.jsonl: scoring worker for lines from 41") and its exit status.
        """
        code = self.reap()
        if code:
            how = f"exited with status {code}"
            if code < 0:
                how += f" (killed by signal {-code})"
            raise ChildProcessError(f"{what} {how}")
        yield from sent(self.file)


def _fork(task: Callable[[BinaryIO], None], file: BinaryIO) -> Worker:
    """Start a worker that runs task on its own file object for file, then exits."""
    try:
        pid = os.fork()
    except OSError:
        file.close()
        raise
    if pid == 0:
        code = 1
        try:
            # Objects inherited from the caller are never collected here, so
            # no finalizer of theirs (a file's flush) runs in the worker.
            gc.freeze()
            with open(file.fileno(), "wb", closefd=False) as out:
                task(out)
            code = 0
        finally:
            os._exit(code)
    return Worker(pid, file)


def _stop(workers: list[Worker]) -> None:
    """Kill each worker not yet reaped, reap it, and close every result file."""
    for worker in workers:
        if worker.status is None:
            os.kill(worker.pid, signal.SIGKILL)  # one that has exited waits, a zombie, until reaped
    for worker in workers:
        worker.reap()
        worker.file.close()


@contextmanager
def forked(tasks: Sequence[Callable[[BinaryIO], None]]) -> Iterator[list[Worker]]:
    """A worker for each task, in order; each runs task(result file) and exits 0.

    If a temporary file cannot be made or a fork fails, the workers already
    started are stopped and the list is empty, so the caller runs in one
    process. No worker outlives the block: each not yet reaped is killed,
    then reaped, on an error and on KeyboardInterrupt too.
    """
    if not tasks:
        yield []
        return
    import tempfile  # here: a serial run need not import it

    workers: list[Worker] = []
    try:
        try:
            for task in tasks:
                workers.append(_fork(task, tempfile.TemporaryFile()))
        except OSError:
            _stop(workers)
            workers = []
        yield workers
    finally:
        _stop(workers)
