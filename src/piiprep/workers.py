"""Work in line ranges on every usable CPU, each range but the first in a forked worker.

prepare's consolidate and score (splitscore) cut their input at line
boundaries into one range per usable CPU (line_ranges) and hand the ranges,
with a generator function that runs one, to in_ranges; an ordered score
range finds where its first line starts in the prediction file with
line_start. The calling process runs the first range; a forked worker runs
each other one. A worker inherits the calling process's memory by
copy-on-write: the config and taxonomy, or unordered scoring's finished
prediction index, whose file it reads by pread through the caller's
descriptor; a file it reads in order it opens itself, since an inherited
descriptor shares its offset with the caller. It appends each value its
range yields, and then the exception that ended the range if one did, to a
Spill, and leaves through os._exit, so it never runs the caller's exit
handlers or flushes a buffer it inherited; it never logs. The caller reaps
the workers in range order and gives each one's values after the values
before them, then its exception.

A Spill is the one file the package reads back by offset; a temporary one
is unlinked and appended to with unbuffered writes. A worker's results go
to one, prepare keeps its encoded lines in one per range, sample its
subset's lines, and an idindex.LineIndex its file. A temporary one that
cannot be made or written raises UnwrittenError. In a worker that error,
from its result spill or from a spill its range writes, ends the worker
with status 74, and the calling process runs the range itself.

Inputs under SPLIT_MIN_BYTES, a host with one usable CPU and a platform
without os.fork leave the run in one range. A fork or result spill that
fails leaves every range to the calling process, run one after another.
"""

from __future__ import annotations

import gc
import marshal
import math
import os
import signal
import stat
import sys
from bisect import bisect_right
from functools import partial
from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from piiprep.errors import UnwrittenError

__all__ = ["SPLIT_MIN_BYTES", "Spill", "Worker", "cpus", "in_ranges", "line_ranges", "line_start"]

R = TypeVar("R")

# Inputs smaller than this run in one process. On a 2-vCPU host, where a fork
# and reap took about 3 ms, two ranges against one on perfbench's inputs
# (medians of 9 alternating fresh-process pairs) were slower at 0.25 MB
# (score 25.7 ms against 24.4, prepare 54.2 against 48.6) and at 0.49 MB of
# prepare sources (91.1 against 87.2), and faster from about 1 MB (score
# 57.5 against 76.0 ms, prepare 143.0 against 164.3).
SPLIT_MIN_BYTES = 1 << 20
_BLOCK = 1 << 16  # _scan's read size; small: flat traced memory
_UNWRITTEN = 74  # the exit status of a worker whose results could not be written (EX_IOERR)


def cpus() -> int:
    """The ranges to cut work into: the CPUs this process may run on, 1 without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(f, pos: int, count: float, stop: float) -> tuple[int, int]:
    """Read binary file f forward from byte pos in _BLOCK reads until it has
    passed count newlines or reached byte stop, or to its end; either limit
    may be math.inf. Returns the offset where it stopped (just past the
    count-th newline, if it got that far) and the newlines it passed."""
    f.seek(pos)
    passed = 0
    while pos < stop and (block := f.read(min(_BLOCK, stop - pos))):
        if (m := block.count(b"\n")) >= count - passed:
            i = -1
            for _ in range(count - passed):
                i = block.find(b"\n", i + 1)
            return pos + i + 1, count
        passed += m
        pos += len(block)
    return pos, passed


def line_start(path: str | Path, line: int) -> int:
    """The byte offset at which line number line of a file starts: just past
    its (line - 1)th newline, or the file's end if it has fewer. Line 1 starts
    at 0, and the file is not opened for it."""
    if line == 1:
        return 0
    with open(path, "rb") as f:
        return _scan(f, 0, line - 1, math.inf)[0]


def _cuts(paths: Sequence[Path], sizes: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Distinct (file, offset) line starts, one after each of n - 1 even cuts of the files
    read one after another: just past a newline, or at the start of the next file."""
    ends = list(accumulate(sizes))
    cuts: list[tuple[int, int]] = []
    for j in range(1, n if ends and ends[-1] else 1):
        pos = ends[-1] * j // n
        i = bisect_right(ends, pos)  # the file that holds byte pos
        with open(paths[i], "rb") as f:
            offset = _scan(f, pos - (ends[i] - sizes[i]), 1, math.inf)[0]
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
            passed = [0]  # a lone cut at the file's start: line 1 of a file that may be missing
            if offsets[-1]:
                with open(paths[i], "rb") as f:  # one forward read, from each cut to the next
                    passed = [_scan(f, pos, math.inf, end)[1]
                              for pos, end in zip([0, *offsets], offsets)]
            starts += [(i, offset, k + 1) for offset, k in zip(offsets, accumulate(passed))]
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


class Spill:
    """An open file, fd, read back by offset: the package's one such reader.

    Spill.temporary() is an unlinked temporary file. It is written with
    unbuffered os.write calls, so a forked worker that leaves through
    os._exit loses nothing, and read with os.pread, which moves no offset.
    Each append lands at the file's current end, wherever a process that
    shares the file left it. The file is closed by close(), or once nothing
    refers to the spill, and its space is freed when no process holds it.
    """

    __slots__ = ("fd",)

    def __init__(self, fd: int) -> None:
        self.fd = fd

    @classmethod
    def temporary(cls) -> Spill:
        """A spill in an unlinked file in tempfile's directory (UnwrittenError if none can be)."""
        import tempfile  # here: a command that never spills need not import it

        try:
            # A descriptor of its own: a file object freed in a reference cycle
            # could be finalized before the spill, and warn that it was left open.
            with tempfile.TemporaryFile() as f:
                return cls(os.dup(f.fileno()))
        except OSError as e:
            raise _unwritten(e) from None

    def append(self, data: bytes) -> int:
        """Write data at the end (UnwrittenError if it cannot be); returns its offset."""
        try:
            pos = os.lseek(self.fd, 0, os.SEEK_END)
            view = memoryview(data)
            while view:
                view = view[os.write(self.fd, view):]
        except OSError as e:
            raise _unwritten(e) from None
        return pos

    def read(self, offset: int, length: int) -> bytes:
        """The length bytes at offset (fewer past the end)."""
        if hasattr(os, "pread"):
            return os.pread(self.fd, length, offset)
        os.lseek(self.fd, offset, os.SEEK_SET)  # Windows: no fork to share the offset with
        return os.read(self.fd, length)

    def close(self) -> None:
        """Close the file, once: by a second os.close its number may name another file."""
        if self.fd >= 0:
            fd, self.fd = self.fd, -1
            os.close(fd)

    def __del__(self) -> None:
        self.close()


def _unwritten(e: OSError) -> UnwrittenError:
    """e as an UnwrittenError that names the temporary directory."""
    import tempfile

    return UnwrittenError(e.errno, f"{e.strerror}: cannot write encoded records to "
                                   f"a temporary file in {tempfile.gettempdir()}")


class Worker:
    """A forked worker: its process id, the spill it sends its results in,
    and its exit status once it is reaped (None before): negative, the
    signal that killed it."""

    def __init__(self, pid: int, file: Spill) -> None:
        self.pid = pid
        self.file = file
        self.status: int | None = None

    def reap(self) -> int:
        """Wait for the worker to exit, and return its exit status."""
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status

    def received(self, what: str) -> Iterator:
        """Each value the worker sent, in order, once it has exited, then the
        exception its range raised, if it raised one (_values).

        A worker that did not exit 0 raises ChildProcessError naming what
        ("g.jsonl: scoring worker for lines from 41") and its exit status.
        """
        code = self.reap()
        if code:
            how = f"exited with status {code}"
            if code < 0:
                how += f" (killed by signal {-code})"
            raise ChildProcessError(f"{what} {how}")
        yield from _values(self.file)


def _values(spill: Spill) -> Iterator:
    """Each value _send appended to spill, from its start, then the exception
    it appended, raised: as a ChildProcessError naming it where its class or
    arguments cannot be had here."""
    pos = 0
    while size := spill.read(pos, 8):
        size = int.from_bytes(size, "little")
        ok, value = marshal.loads(spill.read(pos + 8, size))
        pos += 8 + size
        if ok:
            yield value
            continue
        module, name, args, text = value
        try:
            error = getattr(sys.modules[module], name)(*args)
        except Exception:
            error = ChildProcessError(f"{name}: {text}")
        raise error


def _send(run: Callable[[R], Iterable], r: R, out: Spill) -> None:
    """In a worker: append each value run(r) yields to its result spill out
    as (True, value), then, if run raised, (False, the exception's module,
    class name, arguments and message), for _values to read back; one
    length-prefixed marshal frame each. An UnwrittenError is raised here
    instead, as a failed append to out is."""
    def send(message: tuple) -> None:
        data = marshal.dumps(message)
        out.append(len(data).to_bytes(8, "little") + data)

    try:
        for value in run(r):
            send((True, value))
    except UnwrittenError:
        raise
    except Exception as e:  # raised again by the calling process, after the values before it
        cls, args = e.__reduce__()[:2]
        try:
            marshal.dumps(args)
        except ValueError:
            args = None
        send((False, (cls.__module__, cls.__qualname__, args, str(e))))


def _fork(task: Callable[[Spill], None], file: Spill) -> Worker:
    """Start a worker that runs task on the result spill file, then exits:
    with status 74 if a spill could not be written (UnwrittenError)."""
    try:
        pid = os.fork()
    except OSError:
        file.close()
        raise
    if pid == 0:
        code = 1
        try:
            # Objects inherited from the caller are never collected here, so
            # no finalizer of theirs (a spill's close) runs in the worker.
            gc.freeze()
            task(file)
            code = 0
        except UnwrittenError:  # _send sends the range's other errors
            code = _UNWRITTEN
        finally:
            os._exit(code)
    return Worker(pid, file)


def _stop(workers: list[Worker]) -> None:
    """Kill each worker not yet reaped, reap it, and close every result spill."""
    for worker in workers:
        if worker.status is None:
            os.kill(worker.pid, signal.SIGKILL)  # one that has exited waits, a zombie, until reaped
    for worker in workers:
        worker.reap()
        worker.file.close()


def in_ranges(ranges: Sequence[R], run: Callable[[R], Iterable],
              what: Callable[[R], str]) -> Iterator:
    """The values run(r) yields for each range r of ranges, in range order.

    The calling process runs the first range, and a forked worker each other
    one; their values follow the first range's. Each value must be one that
    marshal writes and reads back unchanged. A range whose run raises gives
    its values first, then its exception, and no range after it is read. A
    worker that dies raises ChildProcessError naming what(r) and its exit
    status. If a result spill cannot be made or a fork fails, the workers
    already started are stopped and the calling process runs every range
    itself, in order; it runs the range of a worker that could not write a
    spill itself too, in its place.

    No worker outlives the iterator: each not yet reaped is killed, then
    reaped, when it is exhausted, raises or is closed. A caller that may stop
    before the end closes it (contextlib.closing), on KeyboardInterrupt too.
    """
    started: list[Worker] = []
    try:
        try:
            for r in ranges[1:]:
                started.append(_fork(partial(_send, run, r), Spill.temporary()))
        except OSError:
            _stop(started)
            started = []
        yield from run(ranges[0])
        for worker, r in zip(started, ranges[1:]):
            if worker.reap() == _UNWRITTEN:
                yield from run(r)
            else:
                yield from worker.received(what(r))
        for r in ranges[1 + len(started):]:
            yield from run(r)
    finally:
        _stop(started)
