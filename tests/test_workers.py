"""workers.in_ranges on its own: toy ranges, no piiprep pipeline.

A range here is an int; its run yields (range, value index, process id)
tuples, so each test sees which process ran which range, and in what order
the values arrived. Every worker forked is recorded (conftest.Workers) and
must be reaped when the iterator is done.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from contextlib import closing

import pytest

from conftest import Workers, bounded
from piiprep import workers
from piiprep.errors import RecordError


def values(r: int, n: int = 3):
    """What the toy run of range r yields: n values, each naming its process."""
    for i in range(n):
        yield r, i, os.getpid()


def what(r: int) -> str:
    return f"toy worker for range {r}"


def collect(ranges, run) -> tuple[list, BaseException | None]:
    """Every value in_ranges gives, in order, and the exception that ended it, if one did."""
    got: list = []

    def drain():
        try:
            for value in workers.in_ranges(ranges, run, what):
                got.append(value)
        except Exception as e:
            return e
        return None

    return got, bounded(drain)


@pytest.fixture
def started(monkeypatch) -> Workers:
    recorded = Workers()
    monkeypatch.setattr(workers, "_fork", recorded.fork)
    return recorded


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_values_arrive_in_range_order(started, n):
    got, error = collect(list(range(n)), values)
    assert error is None
    assert [(r, i) for r, i, _ in got] == [(r, i) for r in range(n) for i in range(3)]
    here = os.getpid()
    assert {pid for r, _, pid in got if r == 0} == {here}
    assert here not in {pid for r, _, pid in got if r > 0}
    assert len(started.started) == n - 1
    started.assert_reaped()


def fails_at(bad: int, after: int, error: Exception):
    """A run whose range bad raises error after its first after values."""
    def run(r: int):
        yield from values(r, after if r == bad else 3)
        if r == bad:
            raise error
    return run


@pytest.mark.parametrize("bad", [0, 1, 3])
@pytest.mark.parametrize("after", [2, 0], ids=["after-values", "before-any-value"])
def test_an_error_arrives_after_the_values_before_it(started, bad, after):
    got, error = collect(list(range(4)), fails_at(bad, after, RecordError("g.jsonl:7: bad")))
    assert [(r, i) for r, i, _ in got] == (
        [(r, i) for r in range(bad) for i in range(3)] + [(bad, i) for i in range(after)])
    assert type(error) is RecordError and str(error) == "g.jsonl:7: bad"
    assert len(started.started) == 3
    started.assert_reaped()


def test_an_error_that_cannot_be_made_again_names_its_class(started):
    got, error = collect([0, 1], fails_at(1, 1, KeyError(object())))
    assert [(r, i) for r, i, _ in got] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert type(error) is ChildProcessError and str(error).startswith("KeyError: <object")
    started.assert_reaped()


def test_a_refused_fork_runs_the_remaining_ranges_here(started, monkeypatch):
    real_fork = os.fork
    forks = []

    def second_refused():
        if forks:
            raise OSError("cannot start")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", second_refused)
    got, error = collect(list(range(4)), values)
    assert error is None
    assert [(r, i) for r, i, _ in got] == [(r, i) for r in range(4) for i in range(3)]
    assert {pid for _, _, pid in got} == {os.getpid()}
    assert len(started.started) == 1
    started.assert_reaped()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("size", [1, 1 << 16], ids=["fails-at-close", "fails-at-a-value"])
def test_a_worker_that_cannot_write_leaves_its_range_here(started, monkeypatch, size):
    # Every write to /dev/full fails with ENOSPC; only the workers write.
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: open("/dev/full", "r+b"))

    def run(r: int):
        for r, i, pid in values(r):
            yield r, i, pid, "x" * size

    got, error = collect(list(range(4)), run)
    assert error is None
    assert [(r, i) for r, i, _, _ in got] == [(r, i) for r in range(4) for i in range(3)]
    assert {pid for _, _, pid, _ in got} == {os.getpid()}
    assert len(started.started) == 3
    assert [w.status for w in started.started] == [workers._UNWRITTEN] * 3
    started.assert_reaped()


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="needs /proc/self/fd and /dev/full")
@pytest.mark.parametrize("path", ["plain", "refused-fork", "unwritten", "killed"])
def test_no_descriptor_outlives_in_ranges(monkeypatch, path):
    # Counted while the recorder still holds every Worker and its result
    # spill, so a spill that in_ranges left open would still be open here.
    recorded = Workers(kill=path == "killed")
    monkeypatch.setattr(workers, "_fork", recorded.fork)
    if path == "refused-fork":
        real_fork = os.fork

        def second_refused():
            if recorded.started:
                raise OSError("cannot start")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_refused)
    if path == "unwritten":
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda: open("/dev/full", "r+b"))
    before = len(os.listdir("/proc/self/fd"))
    got, error = collect(list(range(4)), values)
    assert len(os.listdir("/proc/self/fd")) == before
    assert type(error) is (ChildProcessError if path == "killed" else type(None))
    assert len(recorded.started) == (1 if path == "refused-fork" else 3)
    recorded.assert_reaped()


def test_a_killed_worker_is_named(monkeypatch):
    killed = Workers(kill=True)
    monkeypatch.setattr(workers, "_fork", killed.fork)
    got, error = collect([0, 1], values)
    assert [r for r, _, _ in got] == [0, 0, 0]
    assert type(error) is ChildProcessError
    assert str(error) == "toy worker for range 1 exited with status -9 (killed by signal 9)"
    killed.assert_reaped()


def test_an_interrupt_in_the_caller_kills_and_reaps_every_worker(started):
    def slow(r: int):
        if r:
            time.sleep(60)  # still running when the caller is interrupted
        yield from values(r)

    def interrupted():
        with closing(workers.in_ranges([0, 1, 2], slow, what)) as results:
            for _ in results:
                raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        bounded(interrupted)
    assert len(started.started) == 2
    started.assert_reaped()
    assert [w.status for w in started.started] == [-signal.SIGKILL] * 2
