"""Scoring split into line ranges, each range but the first in a forked worker.

Every test forces the split on small files (patching the CPU count, the size
floor and, where it matters, where the gold file is cut) and compares it with
the serial run of the same files, ordered or --unordered: same counters in
the same order, same record count, or the same exception type and message.
Each call runs in a thread joined with a timeout, so a hung worker fails the
test instead of stalling the suite, and every worker forked must be reaped
when the call returns.
"""

from __future__ import annotations

import json
import os
import random
import signal
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Workers, bounded
from piiprep import splitscore, workers
from piiprep.cli import main
from piiprep.errors import AlignmentError, RecordError
from piiprep.predindex import prediction_index
from piiprep.scorer import TypeCounters, stream_score


MODES = pytest.mark.parametrize("unordered", [False, True], ids=["ordered", "unordered"])


def outcome(gold: Path, pred: Path, unordered: bool = False):
    """What stream_score gives: (counts in order, records, chunks), or (type, message)."""
    try:
        r = bounded(lambda: stream_score(gold, pred, chunk_size=3, unordered=unordered))
    except (RecordError, AlignmentError, ChildProcessError) as e:
        return type(e), str(e)
    return list(r.counters.counts.items()), r.records, r.chunks


def force_split(mp: pytest.MonkeyPatch, cut: int | None = None, cpus: int = 2,
                kill: bool = False) -> Workers:
    """Split any run into cpus ranges, the first cut at byte cut if given."""
    mp.setattr(workers, "cpus", lambda: cpus)
    mp.setattr(workers, "SPLIT_MIN_BYTES", 0)
    if cut is not None:
        mp.setattr(workers, "_cuts", lambda paths, sizes, n: [(0, cut)])
    started = Workers(kill)
    mp.setattr(workers, "_fork", started.fork)
    return started


def serial_and_split(gold: Path, pred: Path, cut: int | None = None, cpus: int = 2,
                     unordered: bool = False):
    """(serial outcome, split outcome, workers forked by the split run)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "cpus", lambda: 1)
        serial = outcome(gold, pred, unordered)
    with pytest.MonkeyPatch.context() as mp:
        started = force_split(mp, cut, cpus)
        split = outcome(gold, pred, unordered)
    started.assert_reaped()
    return serial, split, started.started


def line(rid, labels) -> bytes:
    return json.dumps({"id": rid, "labels": labels}).encode() + b"\n"


_LABELS = st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B"])
_FAULTS = ["truncated", "dropped-field", "non-string-label", "bad-utf8", "blank-line",
           "id-swap", "length-mismatch", "extra-lines", "crlf", "no-final-newline",
           "repeated-gold-id", "swap-across-cut", "missing-prediction", "extra-prediction"]


@st.composite
def faulty_pairs(draw, unordered: bool):
    """A small gold/prediction pair of files with one fault, and a gold cut.

    Unordered, the predictions are shuffled before the fault is made. The cut
    is drawn after it, among every gold line the fault left, so it can fall
    among added gold lines or past the end of an ordered prediction file.
    """
    n = draw(st.integers(2, 8))
    labels = [draw(st.lists(_LABELS, min_size=1, max_size=4)) for _ in range(n)]
    gold = [line(f"r{i}", lab) for i, lab in enumerate(labels)]
    pred = [line(f"r{i}", draw(st.lists(_LABELS, min_size=len(lab), max_size=len(lab))))
            for i, lab in enumerate(labels)]
    if unordered:
        pred = draw(st.permutations(pred))
    fault = draw(st.sampled_from(_FAULTS))
    lines = draw(st.sampled_from([gold, pred]))
    i = draw(st.integers(0, n - 1))
    obj = json.loads(lines[i])
    if fault == "truncated":
        lines[i] = lines[i][:draw(st.integers(1, len(lines[i]) - 2))] + b"\n"
    elif fault == "dropped-field":
        del obj[draw(st.sampled_from(["id", "labels"]))]
        lines[i] = json.dumps(obj).encode() + b"\n"
    elif fault == "non-string-label":
        bad = draw(st.sampled_from([5, None, ["B-A"], {"x": 1}]))
        obj["labels"][draw(st.integers(0, len(obj["labels"]) - 1))] = bad
        lines[i] = json.dumps(obj).encode() + b"\n"
    elif fault == "bad-utf8":
        at = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
    elif fault == "blank-line":
        lines.insert(draw(st.integers(0, n)), draw(st.sampled_from([b"\n", b"  \n"])))
    elif fault == "id-swap":
        j = i + 1 if i + 1 < n else i - 1
        lines[i], lines[j] = lines[j], lines[i]
    elif fault == "length-mismatch":
        obj["labels"] = obj["labels"][1:] if len(obj["labels"]) > 1 else obj["labels"] * 2
        lines[i] = json.dumps(obj).encode() + b"\n"
    elif fault == "extra-lines":
        lines.extend(line(f"x{j}", ["O"]) for j in range(draw(st.integers(1, 3))))
    elif fault == "crlf":
        lines[:] = [ln[:-1] + b"\r\n" for ln in lines]
    elif fault == "no-final-newline":
        lines[-1] = lines[-1][:-1]
    elif fault == "repeated-gold-id":  # in the same range as the first one, or a later one
        j = draw(st.integers(1, n - 1))
        gold[j] = line(f"r{draw(st.integers(0, j - 1))}", json.loads(gold[j])["labels"])
    elif fault == "missing-prediction":
        del pred[i]
    elif fault == "extra-prediction":
        pred.insert(draw(st.integers(0, n)), line(f"x{i}", ["O"]))
    cut_line = draw(st.integers(1, len(gold) - 1))
    if fault == "swap-across-cut":
        a, b = draw(st.integers(0, cut_line - 1)), draw(st.integers(cut_line, n - 1))
        gold[a], gold[b] = gold[b], gold[a]
    return b"".join(gold), b"".join(pred), len(b"".join(gold[:cut_line])), cut_line


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_split_run_matches_serial_run(data):
    for unordered in (False, True):  # a case of each mode in every example
        gold_bytes, pred_bytes, cut, cut_line = data.draw(faulty_pairs(unordered))
        with tempfile.TemporaryDirectory() as d:
            g, p = Path(d) / "g.jsonl", Path(d) / "p.jsonl"
            g.write_bytes(gold_bytes)
            p.write_bytes(pred_bytes)
            serial, split, started = serial_and_split(g, p, cut, unordered=unordered)
            indexed = unordered and index_pass_succeeds(p)
        assert split == serial
        # An ordered prediction file too short to hold the cut is scored in
        # one process; unordered scoring cuts only the gold file, and forks
        # its worker once the predictions are indexed.
        assert len(started) == (indexed if unordered else pred_bytes.count(b"\n") >= cut_line)


def index_pass_succeeds(pred: Path) -> bool:
    try:
        for _ in prediction_index(pred):
            pass
    except RecordError:
        return False
    return True


def corpus(n: int, seed: int = 7) -> list[tuple[str, list[str]]]:
    """n records whose types appear one by one: A, then B from a fifth in, and so on."""
    rng = random.Random(seed)
    labels = ["O", "B-A", "I-A", "B-B", "I-B", "B-C", "I-C", "B-D", "B-E"]
    return [(f"r{i:04d}", [rng.choice(labels[:3 + 2 * (5 * i // n)])
                           for _ in range(rng.randint(1, 9))]) for i in range(n)]


def write_pair(d: Path, rows, pred_newline=b"\n", shuffled=False) -> tuple[Path, Path]:
    """Gold and prediction files of rows, the predictions shuffled if asked."""
    rng = random.Random(1)
    g, p = d / "g.jsonl", d / "p.jsonl"
    g.write_bytes(b"".join(line(rid, labels) for rid, labels in rows))
    pred = [line(rid, [lab if rng.random() < 0.8 else "O" for lab in labels])[:-1] + pred_newline
            for rid, labels in rows]
    if shuffled:
        rng.shuffle(pred)
    p.write_bytes(b"".join(pred))
    return g, p


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_cuts_fall_after_even_byte_offsets(tmp_path, cpus):
    # Prediction lines are shorter and end in \r\n, so the two files' cuts
    # sit at different offsets; each must start the same line.
    g, p = write_pair(tmp_path, corpus(300), pred_newline=b"\r\n")
    gold, pred = g.read_bytes(), p.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "cpus", lambda: cpus)
        mp.setattr(workers, "SPLIT_MIN_BYTES", 0)
        ranges = splitscore._ranges(g, p)
    assert len(ranges) == cpus
    assert ranges[0] == (0, 0, 1)
    for j, (gc, pc, first) in enumerate(ranges[1:], 1):
        assert gold[gc - 1:gc] == b"\n" and gc > len(gold) * j // cpus
        assert b"\n" not in gold[len(gold) * j // cpus:gc - 1]
        assert gold.count(b"\n", 0, gc) == pred.count(b"\n", 0, pc) == first - 1
        assert pred[pc - 1:pc] == b"\n"
    serial, split, started = serial_and_split(g, p, cpus=cpus)
    assert split == serial and len(started) == cpus - 1
    assert split[1] == 300


def test_small_or_unsplittable_inputs_stay_in_one_process(tmp_path):
    g, p = write_pair(tmp_path, corpus(50))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "cpus", lambda: 2)
        assert len(splitscore._ranges(g, p)) == 1  # under SPLIT_MIN_BYTES
        mp.setattr(workers, "SPLIT_MIN_BYTES", 0)
        assert len(splitscore._ranges(g, p)) == 2
        mp.setattr(workers, "cpus", lambda: 1)
        assert len(splitscore._ranges(g, p)) == 1
        mp.setattr(workers, "cpus", lambda: 2)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert len(splitscore._ranges(g, fifo)) == 1  # never opened: a pipe is read once
        assert len(splitscore._ranges(tmp_path / "missing.jsonl", p)) == 1
        short = tmp_path / "short.jsonl"
        short.write_bytes(p.read_bytes()[:100])
        assert len(splitscore._ranges(g, short)) == 1
        assert len(splitscore._ranges(g, short, cut_pred=False)) == 2  # only gold is cut
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "SPLIT_MIN_BYTES", 0)
        mp.delattr(os, "fork")  # no worker can be forked: ordered scoring on Windows too
        assert workers.cpus() == 1
        assert len(splitscore._ranges(g, p)) == len(splitscore._ranges(g, p, cut_pred=False)) == 1


def test_worker_that_cannot_start_leaves_the_run_serial(tmp_path, monkeypatch):
    g, p = write_pair(tmp_path, corpus(100))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "cpus", lambda: 1)
        serial = outcome(g, p), outcome(g, p, unordered=True)
    started = force_split(monkeypatch, cut=g.read_bytes().index(b"\n") + 1, cpus=3)

    def refuse(*args, **kwargs):
        raise OSError("cannot start")

    real_fork = os.fork
    forks = []

    def second_refused():  # the first worker starts, the second does not
        if forks:
            refuse()
        forks.append(1)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", refuse)
        assert (outcome(g, p), outcome(g, p, unordered=True)) == serial
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "TemporaryFile", refuse)
        assert (outcome(g, p), outcome(g, p, unordered=True)) == serial
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", second_refused)
        assert outcome(g, p) == serial[0]
    assert len(started.started) == 1
    started.assert_reaped()


# The ids keep the names the ordered cases had before unordered ones joined.
@pytest.mark.parametrize("unordered, bad_line, message", [
    (False, 1, "g.jsonl:1: malformed JSON: Expecting value"),
    (False, 60, "g.jsonl:60: malformed JSON: Expecting value"),
    (True, 1, "g.jsonl:1: malformed JSON: Expecting value"),
    (True, 60, "g.jsonl:60: malformed JSON: Expecting value"),
], ids=["parent-range", "worker-range", "unordered-parent-range", "unordered-worker-range"])
def test_no_worker_left_after_an_error(tmp_path, monkeypatch, unordered, bad_line, message):
    rows = corpus(100)
    g, p = write_pair(tmp_path, rows, shuffled=unordered)
    lines = g.read_bytes().splitlines(keepends=True)
    lines[bad_line - 1] = b"oops\n"
    g.write_bytes(b"".join(lines))
    started = force_split(monkeypatch, cut=len(b"".join(lines[:40])))
    with pytest.raises(RecordError) as info:
        bounded(lambda: stream_score(g, p, unordered=unordered))
    assert str(info.value) == message
    assert len(started.started) == 1
    started.assert_reaped()


@MODES
def test_no_worker_left_after_an_error_with_a_worker_still_scoring(tmp_path, monkeypatch,
                                                                   unordered):
    # The parent's range fails at once, while the worker has a long range to go.
    rows = corpus(20_000)
    g, p = write_pair(tmp_path, rows, shuffled=unordered)
    gold = g.read_bytes()
    g.write_bytes(b"{oops" + gold[gold.index(b"\n"):])
    started = force_split(monkeypatch, cut=len(b"".join(gold.splitlines(True)[:10])))
    with pytest.raises(RecordError, match=r"^g\.jsonl:1: malformed JSON"):
        bounded(lambda: stream_score(g, p, unordered=unordered))
    started.assert_reaped()
    assert started.started[0].status == -signal.SIGKILL


@MODES
def test_no_worker_left_after_an_interrupt(tmp_path, monkeypatch, unordered):
    # Ctrl-C in the calling process while the worker still has a long range to go.
    g, p = write_pair(tmp_path, corpus(20_000), shuffled=unordered)
    caller = os.getpid()
    real_add_pair = TypeCounters.add_pair

    def add_pair(counters, gold_labels, pred_labels):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        real_add_pair(counters, gold_labels, pred_labels)

    monkeypatch.setattr(TypeCounters, "add_pair", add_pair)
    started = force_split(monkeypatch, cut=len(b"".join(g.read_bytes().splitlines(True)[:10])))
    with pytest.raises(KeyboardInterrupt):
        bounded(lambda: stream_score(g, p, unordered=unordered))
    assert len(started.started) == 1
    started.assert_reaped()
    assert started.started[0].status == -signal.SIGKILL


@MODES
def test_killed_worker_fails_naming_its_exit_status(tmp_path, monkeypatch, unordered):
    g, p = write_pair(tmp_path, corpus(100), shuffled=unordered)
    gold = g.read_bytes()
    started = force_split(monkeypatch, cut=len(b"".join(gold.splitlines(True)[:40])), kill=True)
    with pytest.raises(ChildProcessError) as info:
        bounded(lambda: stream_score(g, p, unordered=unordered))
    assert str(info.value) == (
        "g.jsonl: scoring worker for lines from 41 exited with status -9 (killed by signal 9)"
    )
    started.assert_reaped()


@MODES
def test_cli_report_and_csv_bytes_match_the_serial_run(tmp_path, monkeypatch, unordered):
    g, p = write_pair(tmp_path, corpus(200), shuffled=unordered)
    runner = CliRunner()

    def run(tag: str) -> tuple[bytes, bytes]:
        out, csv = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        result = bounded(lambda: runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(p), "--out", str(out), "--csv", str(csv),
            "--system", "sys", "--chunk-size", "7", *["--unordered"] * unordered]))
        assert result.exit_code == 0, result.output
        return out.read_bytes(), csv.read_bytes()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "cpus", lambda: 1)
        serial = run("serial")
    started = force_split(monkeypatch, cut=len(b"".join(g.read_bytes().splitlines(True)[:77])))
    assert run("split") == serial
    assert len(started.started) == 1
    started.assert_reaped()
    assert json.loads(serial[0])["records"] == 200


@pytest.fixture(scope="module")
def million_pairs(tmp_path_factory) -> tuple[Path, Path]:
    """Criterion 12's 1,000,000-record gold and prediction files."""
    n = 1_000_000
    types = ["NAME", "IBAN", "URL"]
    d = tmp_path_factory.mktemp("million")
    gold_path = d / "gold.jsonl"
    pred_path = d / "pred.jsonl"
    with gold_path.open("w", encoding="utf-8") as gf, pred_path.open(
        "w", encoding="utf-8"
    ) as pf:
        for i in range(n):
            t = types[i % 3]
            gf.write(f'{{"id":"r{i}","labels":["B-{t}","O"]}}\n')
            p = t if i % 5 else types[(i + 1) % 3]
            pf.write(f'{{"id":"r{i}","labels":["B-{p}","O"]}}\n')
    return gold_path, pred_path


@MODES
def test_tail_range_stays_under_the_criterion_12_ceiling(million_pairs, monkeypatch, unordered):
    """The range a worker scores holds acceptance criterion 12's bound on its own.

    Same 1,000,000-record input and ceiling (10x the traced heap of one parsed
    5,000-line chunk) as criterion 12, which measures the calling process's
    range; here the tail range is run in this process under tracemalloc,
    through the task a worker runs, writing its result to a temporary file
    as a worker does. An unordered worker also holds the bitmap of the rows
    it used, a bit a prediction; the prediction index itself is built before
    the workers are forked, and shared with them, so it is not on the
    worker's heap.
    """
    n = 1_000_000
    chunk_size = 5000
    gold_path, pred_path = million_pairs

    tracemalloc.start()
    with gold_path.open("r", encoding="utf-8") as f:
        chunk = []
        for _ in range(chunk_size):
            obj = json.loads(f.readline())
            chunk.append((obj["id"], obj["labels"]))
    chunk_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del chunk
    ceiling = 10 * chunk_bytes + (n // 8 if unordered else 0)

    monkeypatch.setattr(workers, "cpus", lambda: 2)
    ranges = splitscore._ranges(gold_path, pred_path, cut_pred=not unordered)
    assert len(ranges) == 2
    if unordered:  # what the calling process builds before it forks
        index = prediction_index(pred_path)
        for _ in index:
            pass
        task = splitscore._unordered_task(index, gold_path, pred_path, ranges[1], None)
    else:
        task = splitscore._ordered_task(gold_path, pred_path, ranges[1], None)
    with tempfile.TemporaryFile() as out:
        tracemalloc.start()
        task(out)
        tail_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        (counts, records, error, used), = workers.sent(out)
    assert error is None and records == n - (ranges[1][2] - 1)
    assert 0.4 * n < records < 0.6 * n
    used = int.from_bytes(used, "little")
    assert bin(used).count("1") == (records if unordered else 0)
    assert tail_peak < ceiling, f"tail range peak {tail_peak} bytes, ceiling {ceiling}"


def test_lone_surrogate_id_is_matched_in_every_process(tmp_path):
    # JSON can spell an id that UTF-8 cannot encode; the id hash that the
    # calling process and the worker share must take it.
    g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
    g.write_bytes(line("r0", ["O"]) + line("\ud800", ["B-A"]))
    p.write_bytes(line("\ud800", ["B-A"]) + line("r0", ["O"]))
    serial, split, started = serial_and_split(g, p, len(line("r0", ["O"])), unordered=True)
    assert serial == split == ([("A", [1, 1, 1])], 2, 1)
    assert len(started) == 1
