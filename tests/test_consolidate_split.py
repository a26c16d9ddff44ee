"""prepare split into ranges of its sources, each range but the first in a forked worker.

A derandomized, bounded property draws small sources in all three formats,
with faults, and cuts the stream of all of them into one to four ranges at
any line boundary, across source boundaries and inside xml sources too. Each
split run must equal the serial run of the same config: the same artifact
and manifest bytes and consolidation counts, the same warnings in the same
order, or the same first error. Each split run goes through a thread joined
with a timeout, and forks one worker per range but the first, every one of
them reaped when it returns.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REPO, Workers, bounded
from piiprep import pipeline, workers
from piiprep.errors import ToolkitError
from piiprep.fixtures import canonical_space
from piiprep.pipeline import PipelineConfig, SourceSpec, consolidate, run_prepare

_IDS = ["r0", "r1", "r2", "r3", "x-000001", "x-000002"]  # x-... repeat an xml source's ids
_LABELS = ["O", "B-NAME", "I-NAME", "B-PHONE", "B-CITY", "B-WIDGET"]  # WIDGET: not a type
_TEXTS = ["Call <PHONE>555 01</PHONE> now", "Zoë <NAME>Ann Lee</NAME> in <CITY>Oslo</CITY>",
          "no spans here", "<WIDGET>x</WIDGET> and <NAME>Bo</NAME>", "<PHONE>unclosed",
          "café <CITY>Köln</CITY>"]


@st.composite
def source_lines(draw, fmt: str) -> list[str]:
    """The lines of one source, without their endings; some are not records."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record", "record", "record", "bad", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
        elif kind == "bad":
            lines.append(draw(st.sampled_from(["not json", "{", '{"id": 5}', "[1]"])))
        elif fmt == "jsonl":
            labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4))
            lines.append(json.dumps({"id": draw(st.sampled_from(_IDS)),
                                     "tokens": ["té"] * len(labels), "labels": labels,
                                     "source": "any"}, ensure_ascii=draw(st.booleans())))
        elif fmt == "xml":
            lines.append(draw(st.sampled_from(_TEXTS)))
        else:
            lines.append(json.dumps({"text": draw(st.sampled_from(_TEXTS))}))
    return lines


@st.composite
def split_cases(draw):
    """(sources as (name, format, bytes or None when missing), on_error, unknown_types,
    prepend_source_token, cuts)."""
    sources = []
    for i in range(draw(st.integers(1, 3))):
        fmt = draw(st.sampled_from(["jsonl", "xml", "xml-jsonl"]))
        name = "x" if fmt != "jsonl" and all(n != "x" for n, _, _ in sources) else f"s{i}"
        if draw(st.sampled_from([False] * 9 + [True])):  # a missing source
            sources.append((name, fmt, None))
            continue
        lines = draw(source_lines(fmt))
        data = b"".join(line.encode("utf-8") + draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
                        for line in lines)
        if data and draw(st.booleans()):
            data = data.rstrip(b"\r\n")  # no final newline
        sources.append((name, fmt, data))
    # Every line start but the stream's first: inside a source, or where one starts.
    points = sorted({(k, 0) for k in range(1, len(sources))} | {
        (k, i + 1) for k, (_, _, data) in enumerate(sources) if data
        for i in range(len(data) - 1) if data[i:i + 1] == b"\n"})
    cuts = sorted(draw(st.lists(st.sampled_from(points), min_size=1, max_size=3, unique=True))
                  if points else [])
    return (sources, draw(st.sampled_from(["fail", "skip", "log"])),
            draw(st.sampled_from(["error", "drop"])), draw(st.booleans()), cuts)


def outcome(config: PipelineConfig, caplog):
    """(artifact and manifest digests, consolidation counts, warnings), or the first error."""
    caplog.clear()
    try:
        with caplog.at_level(logging.WARNING, logger="piiprep"):
            result = bounded(lambda: run_prepare(config))
    except (ToolkitError, OSError) as e:
        return type(e).__name__, str(e), caplog.messages
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(config.output_dir.iterdir())}
    return files, result.consolidation, caplog.messages


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(split_cases())
def test_split_prepare_matches_serial_prepare(caplog, case):
    sources, on_error, unknown_types, prepend, cuts = case
    with tempfile.TemporaryDirectory() as d:
        specs = []
        for name, fmt, data in sources:
            path = Path(d) / f"{name}.{'jsonl' if fmt == 'jsonl' else 'xml'}"
            if data is not None:
                path.write_bytes(data)
            specs.append(SourceSpec(name, path, fmt))

        def config(out: str) -> PipelineConfig:
            return PipelineConfig(sources=specs, output_dir=Path(d) / out, on_error=on_error,
                                  unknown_types=unknown_types, prepend_source_token=prepend,
                                  rare_label_threshold=0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workers, "cpus", lambda: 1)
            serial = outcome(config("serial"), caplog)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workers, "cpus", lambda: len(cuts) + 1)
            mp.setattr(workers, "SPLIT_MIN_BYTES", 0)
            mp.setattr(workers, "_cuts", lambda paths, sizes, n: cuts)
            started = Workers()
            mp.setattr(workers, "_fork", started.fork)
            split = outcome(config("split"), caplog)
    assert split == serial
    assert len(started.started) == len(cuts)
    started.assert_reaped()


def test_worker_ranges_start_at_their_lines(tmp_path, monkeypatch):
    # Three ranges: the first ends inside a.jsonl, the second starts inside it
    # and ends where the xml source starts, whose ids hold its line numbers.
    a, b = tmp_path / "a.jsonl", tmp_path / "b.xml"
    rows = [json.dumps({"id": f"r{i}", "tokens": ["t"], "labels": ["B-NAME"], "source": "a"})
            for i in range(5)]
    a.write_text("\n".join(rows) + "\n", encoding="utf-8")
    b.write_text("\n".join(f"Call <PHONE>{i}</PHONE>" for i in range(4)) + "\n",
                 encoding="utf-8")
    specs = [SourceSpec("a", a), SourceSpec("b", b, "xml")]
    monkeypatch.setattr(workers, "cpus", lambda: 3)
    monkeypatch.setattr(workers, "SPLIT_MIN_BYTES", 0)
    first = len(rows[0]) + 1
    monkeypatch.setattr(workers, "_cuts", lambda paths, sizes, n: [(0, first), (1, 0)])
    started = Workers()
    monkeypatch.setattr(workers, "_fork", started.fork)
    records, report = bounded(lambda: consolidate(PipelineConfig(sources=specs),
                                                  canonical_space()))
    assert [r.record().id for r in records] == [f"r{i}" for i in range(5)] + [
        f"b-{i:06d}" for i in range(1, 5)]
    assert report == {"a": {"kept": 5, "dropped": 0, "errors": 0},
                      "b": {"kept": 4, "dropped": 0, "errors": 0}}
    assert len(started.started) == 2
    started.assert_reaped()


def test_killed_worker_fails_naming_its_exit_status(tmp_path, monkeypatch):
    a = tmp_path / "a.jsonl"
    lines = [json.dumps({"id": f"r{i}", "tokens": ["t"], "labels": ["B-NAME"], "source": "a"})
             + "\n" for i in range(9)]
    a.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(workers, "cpus", lambda: 3)
    monkeypatch.setattr(workers, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(workers, "_cuts", lambda paths, sizes, n: [
        (0, len("".join(lines[:3]))), (0, len("".join(lines[:6])))])
    started = Workers(kill=True)
    monkeypatch.setattr(workers, "_fork", started.fork)
    with pytest.raises(ChildProcessError) as info:
        bounded(lambda: consolidate(PipelineConfig(sources=[SourceSpec("a", a)]),
                                    canonical_space()))
    assert str(info.value) == (
        "a.jsonl: prepare worker for lines from 4 exited with status -9 (killed by signal 9)")
    assert len(started.started) == 2
    started.assert_reaped()


def test_no_worker_left_after_an_interrupt(tmp_path, monkeypatch):
    # Ctrl-C in the calling process while the worker still has a long range to go.
    a = tmp_path / "a.jsonl"
    lines = [json.dumps({"id": f"r{i}", "tokens": ["t"], "labels": ["B-NAME"], "source": "a"})
             + "\n" for i in range(40_000)]
    a.write_text("".join(lines), encoding="utf-8")
    caller = os.getpid()
    real_source_record = pipeline._source_record

    def source_record(*args):
        if os.getpid() == caller and args[3] == 5:
            raise KeyboardInterrupt
        return real_source_record(*args)

    monkeypatch.setattr(pipeline, "_source_record", source_record)
    monkeypatch.setattr(workers, "cpus", lambda: 2)
    monkeypatch.setattr(workers, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(workers, "_cuts", lambda paths, sizes, n: [(0, len("".join(lines[:20])))])
    started = Workers()
    monkeypatch.setattr(workers, "_fork", started.fork)
    with pytest.raises(KeyboardInterrupt):
        bounded(lambda: consolidate(PipelineConfig(sources=[SourceSpec("a", a)]),
                                    canonical_space()))
    assert len(started.started) == 1
    started.assert_reaped()
    assert started.started[0].status == -signal.SIGKILL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_worker_that_cannot_spill_leaves_its_range_here(tmp_path, monkeypatch, n):
    # Each worker's first write to its spill file lands half its bytes and its
    # next fails with ENOSPC, so the worker exits 74 and the calling process
    # runs the range again, after those bytes, into the same file.
    caller, real_write, wrote = os.getpid(), os.write, []

    def write(fd, data):
        if os.getpid() == caller:
            return real_write(fd, data)
        if wrote:  # this worker's own copy of the list
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        wrote.append(fd)
        return real_write(fd, data[:max(1, len(data) // 2)])

    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(workers, "cpus", lambda: n)
    monkeypatch.setattr(workers, "SPLIT_MIN_BYTES", 0)
    started = Workers()
    monkeypatch.setattr(workers, "_fork", started.fork)
    config = PipelineConfig.from_file(REPO / "demo" / "config.yaml")
    config.output_dir = tmp_path
    bounded(lambda: run_prepare(config))
    assert [w.status for w in started.started] == [workers._UNWRITTEN] * (n - 1)
    started.assert_reaped()
    committed = {p.name: p.read_bytes() for p in (REPO / "demo" / "out").iterdir()}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == committed
