import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from collections import UserList
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNELS, random_bio_labels, score_corpus_oracle
from piiprep import idindex, scorer, workers
from piiprep.analysis import TYPE_COLUMNS, render_table
from piiprep.cli import main
from piiprep.errors import AlignmentError, RecordError
from piiprep.scorer import (
    MetricsReport,
    TypeCounters,
    finalize,
    stream_score,
)

TYPES = ["NAME", "IBAN", "CITY", "URL"]


def write_scored(path: Path, rows: list[tuple[str, list[str]]]) -> None:
    with path.open("w", encoding="utf-8") as f:
        for rid, labels in rows:
            f.write(json.dumps({"id": rid, "labels": labels}) + "\n")


def random_corpus(rng: random.Random, n: int) -> list[tuple[str, list[str]]]:
    return [
        (f"r{i:05d}", random_bio_labels(rng, TYPES, rng.randint(0, 25)))
        for i in range(n)
    ]


def perturb(rng: random.Random, labels: list[str]) -> list[str]:
    out = list(labels)
    for i in range(len(out)):
        if rng.random() < 0.2:
            out[i] = rng.choice(["O", "B-" + rng.choice(TYPES), "I-" + rng.choice(TYPES)])
    return out


class TestScorePair:
    def test_exact_match_counts_tp(self):
        c = TypeCounters()
        c.add_pair(["B-NAME", "I-NAME", "O"], ["B-NAME", "I-NAME", "O"])
        assert c.counts == {"NAME": [1, 1, 1]}

    def test_boundary_miss_is_not_tp(self):
        # prediction clips the span by one token: same type, wrong end
        c = TypeCounters()
        c.add_pair(["B-NAME", "I-NAME", "O"], ["B-NAME", "O", "O"])
        assert c.counts == {"NAME": [0, 1, 1]}

    def test_type_miss_is_not_tp(self):
        c = TypeCounters()
        c.add_pair(["B-NAME", "O"], ["B-CITY", "O"])
        assert c.counts == {"NAME": [0, 0, 1], "CITY": [0, 1, 0]}

    def test_foreign_predicted_type_appears_with_zero_gold(self):
        c = TypeCounters()
        c.add_pair(["O", "O"], ["B-URL", "I-URL"])
        assert c.counts == {"URL": [0, 1, 0]}

    def test_length_mismatch_raises(self):
        with pytest.raises(AlignmentError, match="length mismatch"):
            TypeCounters().add_pair(["O"], ["O", "O"])

    def test_spans_touching_both_ends(self):
        c = TypeCounters()
        c.add_pair(["B-NAME", "O", "B-URL"], ["B-NAME", "O", "B-URL"])
        assert c.counts["NAME"] == [1, 1, 1]
        assert c.counts["URL"] == [1, 1, 1]


class TestFinalize:
    def test_zero_every_which_way(self):
        r = finalize(TypeCounters())
        assert (r.micro_precision, r.micro_recall, r.micro_f1) == (0.0, 0.0, 0.0)

    def test_no_predictions_zero_precision(self):
        c = TypeCounters()
        c.add_pair(["B-NAME"], ["O"])
        r = finalize(c)
        assert r.micro_precision == 0.0
        assert r.micro_recall == 0.0
        assert r.per_type["NAME"].support == 1

    def test_no_gold_zero_recall(self):
        c = TypeCounters()
        c.add_pair(["O"], ["B-NAME"])
        r = finalize(c)
        assert r.micro_recall == 0.0
        assert r.per_type["NAME"].predicted == 1

    def test_engineered_micro_values(self):
        # tp/pred/gold chosen so P and R come out as exact decimals
        c = TypeCounters()
        c.counts["X"] = [63, 100, 90]
        r = finalize(c)
        assert r.micro_precision == pytest.approx(0.63)
        assert r.micro_recall == pytest.approx(0.7)
        assert r.micro_f1 == pytest.approx(2 * 0.63 * 0.7 / (0.63 + 0.7))

    def test_report_round_trips_through_json(self):
        c = TypeCounters()
        c.add_pair(["B-NAME", "O", "B-URL"], ["B-NAME", "O", "B-CITY"])
        r = finalize(c, records=1, chunks=1, system="demo", category="test")
        back = MetricsReport.from_dict(json.loads(r.to_json()))
        assert back == r

    def test_csv_shape(self, canonical_space):
        c = TypeCounters()
        c.add_pair(["B-IBAN"], ["B-IBAN"])
        rows = [{"type": t, "group": canonical_space.coarse_map[t], **vars(m)}
                for t, m in finalize(c).per_type.items()]
        text = render_table(TYPE_COLUMNS, rows, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "type,group,support,precision,recall,f1"
        assert lines[1].startswith("IBAN,FINANCIAL_ID,1,")


def fresh_output(code: str) -> str:
    """What code prints in a fresh interpreter, where no test module has imported anything."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(scorer.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_leaves_out_dataclasses():
    # score's set-up time is mostly this import, and dataclasses pulls in inspect.
    code = "import sys, piiprep.scorer; print('dataclasses' in sys.modules)"
    assert fresh_output(code) == "False"


def test_import_layout(tmp_path):
    # The scorer counts; splitscore, which reads the files, is loaded only to
    # score, and the prediction index only to score unordered. Ordered scoring
    # does not load the record schema either.
    g = tmp_path / "g.jsonl"
    write_scored(g, random_corpus(random.Random(2), 10))
    code = (
        "import sys, piiprep.scorer as s\n"
        "print(sorted(m for m in ('piiprep.jsonl', 'piiprep.splitscore') if m in sys.modules))\n"
        f"print(s.stream_score({str(g)!r}, {str(g)!r}).records)\n"
        "print('piiprep.splitscore' in sys.modules, 'piiprep.idindex' in sys.modules,\n"
        "      'piiprep.records' in sys.modules)\n"
        f"print(s.stream_score({str(g)!r}, {str(g)!r}, unordered=True).records)\n"
        "print('piiprep.idindex' in sys.modules)"
    )
    assert fresh_output(code).splitlines() == ["[]", "10", "True False False", "10", "True"]


class TestStreamScore:
    def test_perfect_score_on_identical_files(self, tmp_path):
        rows = random_corpus(random.Random(0), 40)
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, rows)
        write_scored(p, rows)
        result = stream_score(g, p)
        report = finalize(result.counters)
        assert report.micro_f1 == 1.0
        assert result.records == 40

    def test_agrees_with_batch_oracle(self, tmp_path):
        rng = random.Random(4)
        gold_rows = random_corpus(rng, 120)
        pred_rows = [(rid, perturb(rng, labels)) for rid, labels in gold_rows]
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, gold_rows)
        write_scored(p, pred_rows)
        expected = score_corpus_oracle(
            [l for _, l in gold_rows], [l for _, l in pred_rows]
        )
        result = stream_score(g, p, chunk_size=17)
        assert result.counters.counts == expected

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 100, 10_000])
    def test_chunk_size_never_changes_counts(self, tmp_path, chunk_size):
        rng = random.Random(5)
        gold_rows = random_corpus(rng, 73)
        pred_rows = [(rid, perturb(rng, labels)) for rid, labels in gold_rows]
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, gold_rows)
        write_scored(p, pred_rows)
        baseline = stream_score(g, p, chunk_size=73)
        got = stream_score(g, p, chunk_size=chunk_size)
        assert got.counters == baseline.counters
        assert got.records == 73

    def test_chunk_count_reflects_chunk_size(self, tmp_path):
        rows = random_corpus(random.Random(6), 10)
        g = tmp_path / "g.jsonl"
        write_scored(g, rows)
        assert stream_score(g, g, chunk_size=3).chunks == 4
        assert stream_score(g, g, chunk_size=10).chunks == 1

    def test_bad_chunk_size_rejected(self, tmp_path):
        g = tmp_path / "g.jsonl"
        write_scored(g, [("r", ["O"])])
        with pytest.raises(ValueError):
            stream_score(g, g, chunk_size=0)

    def test_record_count_mismatch_detected(self, tmp_path):
        rows = random_corpus(random.Random(7), 9)
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, rows)
        write_scored(p, rows[:-1])
        with pytest.raises(AlignmentError, match="count mismatch"):
            stream_score(g, p, chunk_size=4)

    def test_order_mismatch_names_both_ids(self, tmp_path):
        rows = random_corpus(random.Random(8), 6)
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, rows)
        write_scored(p, [rows[0]] + [rows[2]] + [rows[1]] + rows[3:])
        with pytest.raises(AlignmentError, match="r00001.*r00002"):
            stream_score(g, p)

    def test_length_mismatch_names_the_record(self, tmp_path):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, [("rec-9", ["O", "O"])])
        write_scored(p, [("rec-9", ["O"])])
        with pytest.raises(AlignmentError, match="rec-9"):
            stream_score(g, p)

    def test_malformed_line_carries_location(self, tmp_path):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, [("r", ["O"])])
        p.write_text('{"id": "r"}\n', encoding="utf-8")
        with pytest.raises(RecordError, match="p.jsonl:1"):
            stream_score(g, p)

    def test_unordered_mode_matches_strict_on_shuffled_file(self, tmp_path):
        rng = random.Random(9)
        gold_rows = random_corpus(rng, 60)
        pred_rows = [(rid, perturb(rng, labels)) for rid, labels in gold_rows]
        g, p, ps = tmp_path / "g.jsonl", tmp_path / "p.jsonl", tmp_path / "ps.jsonl"
        write_scored(g, gold_rows)
        write_scored(p, pred_rows)
        shuffled = list(pred_rows)
        rng.shuffle(shuffled)
        write_scored(ps, shuffled)
        strict = stream_score(g, p)
        loose = stream_score(g, ps, unordered=True)
        assert strict.counters == loose.counters

    def test_unordered_missing_prediction_rejected(self, tmp_path):
        rows = random_corpus(random.Random(10), 5)
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, rows)
        write_scored(p, rows[1:])
        with pytest.raises(AlignmentError, match="no prediction"):
            stream_score(g, p, unordered=True)

    def test_unordered_leftover_prediction_rejected(self, tmp_path):
        rows = random_corpus(random.Random(11), 5)
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, rows[:-1])
        write_scored(p, rows)
        with pytest.raises(AlignmentError, match="no gold record"):
            stream_score(g, p, unordered=True)

    def test_unordered_duplicate_prediction_rejected(self, tmp_path):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, [("r1", ["O"])])
        write_scored(p, [("r1", ["O"]), ("r1", ["O"])])
        with pytest.raises(RecordError, match="duplicate"):
            stream_score(g, p, unordered=True)


@pytest.mark.parametrize("unordered", [False, True], ids=["ordered", "unordered"])
@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestScoredFileContract:
    """Bad labels and blank lines in either file, under both kernels and modes."""

    @pytest.fixture(autouse=True)
    def use_kernel(self, kernel, monkeypatch):
        monkeypatch.setattr(scorer, "extract_span_tuples", kernel.extract_span_tuples)

    @staticmethod
    def files(tmp_path, gold_lines, pred_lines):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        g.write_text("".join(gold_lines), encoding="utf-8")
        p.write_text("".join(pred_lines), encoding="utf-8")
        return g, p

    GOOD = [
        '{"id":"r0","labels":["B-A","O"]}\n',
        '{"id":"r1","labels":["O","B-A"]}\n',
    ]

    @pytest.mark.parametrize(
        "labels, message",
        [
            ('"OO"', "p.jsonl:2: labels must be a JSON array"),
            ('{"0":"O"}', "p.jsonl:2: labels must be a JSON array"),
            ('["O",5]', "p.jsonl:2: record r1: label 1 is not a string: 5"),
            ('[null,"O"]', "p.jsonl:2: record r1: label 0 is not a string: None"),
            ('["O",["B-A"]]', "p.jsonl:2: record r1: label 1 is not a string: ['B-A']"),
            ('["O","X-A"]', "p.jsonl:2: record r1: malformed BIO label at position 1: 'X-A'"),
            ('["b-A","B-A"]', "p.jsonl:2: record r1: malformed BIO label at position 0: 'b-A'"),
        ],
        ids=["string", "object", "int", "null", "array", "malformed", "lowercase"],
    )
    def test_bad_prediction_labels(self, tmp_path, unordered, labels, message):
        pred = [self.GOOD[0], '{"id":"r1","labels":%s}\n' % labels]
        g, p = self.files(tmp_path, self.GOOD, pred)
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=unordered)
        assert str(info.value) == message

    def test_bad_gold_label(self, tmp_path, unordered):
        gold = [self.GOOD[0], '{"id":"r1","labels":["O",7]}\n']
        g, p = self.files(tmp_path, gold, self.GOOD)
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=unordered)
        assert str(info.value) == "g.jsonl:2: record r1: label 1 is not a string: 7"

    def test_bad_prediction_located_out_of_order(self, tmp_path, unordered):
        # Predictions listed in another order: the error names the line the
        # bad prediction is on (ordered mode stops at the id mismatch first).
        pred = ['{"id":"r1","labels":["O","I-"]}\n', self.GOOD[0]]
        g, p = self.files(tmp_path, self.GOOD, pred)
        if unordered:
            with pytest.raises(RecordError) as info:
                stream_score(g, p, unordered=True)
            assert str(info.value) == (
                "p.jsonl:1: record r1: malformed BIO label at position 1: 'I-'"
            )
        else:
            with pytest.raises(AlignmentError, match="record order mismatch at line 1"):
                stream_score(g, p)

    @pytest.mark.parametrize(
        "rid, shown",
        [('["r1"]', "['r1']"), ("5", "5"), ('""', "''"), ("null", "None")],
        ids=["array", "number", "empty", "null"],
    )
    @pytest.mark.parametrize("which", ["g", "p"])
    def test_bad_id(self, tmp_path, unordered, which, rid, shown):
        lines = [self.GOOD[0], '{"id":%s,"labels":["O","B-A"]}\n' % rid]
        g, p = self.files(
            tmp_path,
            lines if which == "g" else self.GOOD,
            lines if which == "p" else self.GOOD,
        )
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=unordered)
        assert str(info.value) == (
            f"{which}.jsonl:2: record id must be a non-empty string, got {shown}"
        )

    def test_length_mismatch_names_the_record(self, tmp_path, unordered):
        pred = [self.GOOD[0], '{"id":"r1","labels":["O"]}\n']
        g, p = self.files(tmp_path, self.GOOD, pred)
        with pytest.raises(AlignmentError) as info:
            stream_score(g, p, unordered=unordered)
        assert str(info.value) == (
            "record 'r1': sequence length mismatch: 2 gold vs 1 predicted labels"
        )

    @pytest.mark.parametrize(
        "gold_extra, pred_extra, message",
        [
            ([], ["\n"], "p.jsonl:3: blank line"),
            ([], ["  \n"], "p.jsonl:3: blank line"),
            (["\n"], [], "g.jsonl:3: blank line"),
        ],
        ids=["trailing-pred", "whitespace-pred", "trailing-gold"],
    )
    def test_trailing_blank_line(self, tmp_path, unordered, gold_extra, pred_extra, message):
        g, p = self.files(tmp_path, self.GOOD + gold_extra, self.GOOD + pred_extra)
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=unordered, chunk_size=2)
        assert str(info.value) == message

    @pytest.mark.parametrize("which", ["g", "p"])
    def test_blank_line_inside(self, tmp_path, unordered, which):
        lines = [self.GOOD[0], "\n", self.GOOD[1]]
        g, p = self.files(
            tmp_path,
            lines if which == "g" else self.GOOD,
            lines if which == "p" else self.GOOD,
        )
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=unordered)
        assert str(info.value) == f"{which}.jsonl:2: blank line"


def scored_line(rid: str) -> bytes:
    return b'{"id":"%s","labels":["B-A","O"]}\n' % rid.encode()


GOOD_LINES = [scored_line(f"r{i}") for i in range(10)]


@pytest.mark.parametrize("chunk_size", [1, 4, 5000])
@pytest.mark.parametrize(
    "gold, pred, unordered, message",
    [
        (
            GOOD_LINES[:2] + [b"\xff\n"] + GOOD_LINES[3:6],
            GOOD_LINES[:1] + [b"not json\n"] + GOOD_LINES[2:6],
            False,
            "p.jsonl:2: malformed JSON: Expecting value",
        ),
        (
            GOOD_LINES[:9],
            GOOD_LINES[:6],
            False,
            "record count mismatch: g.jsonl has at least 7 records, p.jsonl has at least 6",
        ),
        (
            GOOD_LINES[:10] + [b"\n"],
            GOOD_LINES[:9],
            False,
            "record count mismatch: g.jsonl has at least 10 records, p.jsonl has at least 9",
        ),
        (
            GOOD_LINES[:1] + [scored_line("zz"), b"\xff\n"] + GOOD_LINES[3:6],
            GOOD_LINES[:6],
            True,
            "no prediction for gold record 'zz'",
        ),
    ],
    ids=["bad-pred-before-bad-gold-byte", "short-pred", "extra-then-blank", "unordered-missing"],
)
def test_first_error_does_not_depend_on_chunk_size(
    tmp_path, chunk_size, gold, pred, unordered, message
):
    g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
    g.write_bytes(b"".join(gold))
    p.write_bytes(b"".join(pred))
    with pytest.raises((RecordError, AlignmentError)) as info:
        stream_score(g, p, chunk_size=chunk_size, unordered=unordered)
    assert str(info.value) == message


class TestAddPair:
    def test_any_sequence_type_scores_like_a_list(self):
        gold, pred = ["B-A", "I-A", "O", "B-B"], ["B-A", "I-A", "B-B", "I-B"]
        expected, from_tuples, from_userlist = TypeCounters(), TypeCounters(), TypeCounters()
        expected.add_pair(gold, pred)
        from_tuples.add_pair(tuple(gold), tuple(pred))
        from_userlist.add_pair(UserList(gold), pred)
        assert expected.counts == {"A": [1, 1, 1], "B": [0, 1, 1]}
        assert from_tuples == expected
        assert from_userlist == expected


class TestUnorderedReadBack:
    """--unordered indexes prediction offsets and reads each line back."""

    GOLD = [(f"r{i}", ["B-A", "O"]) for i in range(4)]
    # r0 is read back from line 2 and r1 from line 3.
    PRED = [GOLD[3], GOLD[0], GOLD[1], GOLD[2]]

    @staticmethod
    def truncate_in_line_3(p: Path) -> None:
        data = p.read_bytes()
        cut = data.index(b"\n", data.index(b"\n") + 1) + 5
        p.write_bytes(data[:cut])

    @staticmethod
    def rewrite_id_in_line_3(p: Path) -> None:
        p.write_bytes(p.read_bytes().replace(b'"r1"', b'"r9"'))

    @staticmethod
    def garble_line_3(p: Path) -> None:
        p.write_bytes(p.read_bytes().replace(b'"r1"', b'"r\xff"'))

    @pytest.mark.parametrize(
        "change", ["truncate_in_line_3", "rewrite_id_in_line_3", "garble_line_3"]
    )
    def test_file_changed_while_scoring(self, tmp_path, monkeypatch, change):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, self.GOLD)
        write_scored(p, self.PRED)
        real_add_pair = TypeCounters.add_pair
        pairs = []

        def add_pair(counters, gold_labels, pred_labels):
            if not pairs:
                getattr(self, change)(p)
            pairs.append(gold_labels)
            real_add_pair(counters, gold_labels, pred_labels)

        monkeypatch.setattr(TypeCounters, "add_pair", add_pair)
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=True)
        assert str(info.value) == "p.jsonl:3: prediction file changed while scoring"
        assert len(pairs) == 1

    def test_predictions_from_a_pipe_rejected(self, tmp_path):
        g = tmp_path / "g.jsonl"
        write_scored(g, self.GOLD)
        lines = "".join(json.dumps({"id": i, "labels": l}) + "\n" for i, l in self.PRED)
        # The pipe is rejected before any of its lines is read, so a malformed
        # first line does not change the error.
        for text in (lines, "not json\n" + lines):
            r, w = os.pipe()
            try:
                os.write(w, text.encode("utf-8"))
                os.close(w)
                with pytest.raises(RecordError) as info:
                    stream_score(g, f"/dev/fd/{r}", unordered=True)
                assert str(info.value) == (
                    f"{r}: unordered scoring reads predictions twice, "
                    "so they must be in a regular file"
                )
            finally:
                os.close(r)
        assert stream_score(g, g, unordered=True).records == len(self.GOLD)

    def test_bad_label_line_found_from_the_offset(self, tmp_path):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, self.GOLD)
        pred = [(rid, ["B-A", "O"] if rid != "r2" else ["B-A", "I-"]) for rid, _ in self.PRED]
        write_scored(p, pred)
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=True)
        assert str(info.value) == "p.jsonl:4: record r2: malformed BIO label at position 1: 'I-'"


# Hashes that make ids collide: all of them, or each third of them in one
# of three runs spread over the sorted index.
COLLIDING_HASHES = {
    "constant": lambda rid: 12345,
    "three-runs": lambda rid: (hash(rid) % 3 - 1) << 61,
}


class TestHashCollisions:
    """--unordered gives the same counters and errors however ids collide.

    Each outcome is taken twice, serial and split into two ranges; the
    forked worker of the split run hashes with the replacement patched into
    this process, as the index it shares was built with it.
    """

    GOLD = [(f"r{i}", ["B-A", "O"]) for i in range(6)]
    # r0 is read back from line 2 and r1 from line 3.
    PRED = [GOLD[4], GOLD[0], GOLD[1], GOLD[5], GOLD[3], GOLD[2]]

    @staticmethod
    def outcomes(g: Path, p: Path, monkeypatch, before_pair=None, hashes=COLLIDING_HASHES) -> dict:
        """The counters or error of --unordered scoring under the real hash and
        these, the same serial and split."""
        real_add_pair = TypeCounters.add_pair

        def add_pair(counters, gold_labels, pred_labels):
            if before_pair is not None:
                before_pair(p)
            real_add_pair(counters, gold_labels, pred_labels)

        monkeypatch.setattr(TypeCounters, "add_pair", add_pair)
        data = p.read_bytes()
        results = {}
        for name, id_hash in {"real": idindex._id_hash, **hashes}.items():
            runs = []
            for cpus in (1, 2):
                p.write_bytes(data)
                with monkeypatch.context() as m:
                    m.setattr(idindex, "_id_hash", id_hash)
                    m.setattr(workers, "cpus", lambda: cpus)
                    m.setattr(workers, "SPLIT_MIN_BYTES", 0)
                    try:
                        runs.append(stream_score(g, p, unordered=True).counters)
                    except (RecordError, AlignmentError) as e:
                        runs.append(f"{type(e).__name__}: {e}")
            assert runs[1] == runs[0], f"split run under the {name} hash"
            results[name] = runs[0]
        return results

    def test_counters_match_ordered_scoring(self, tmp_path, monkeypatch):
        rng = random.Random(13)
        gold_rows = random_corpus(rng, 60)
        pred_rows = [(rid, perturb(rng, labels)) for rid, labels in gold_rows]
        g, p, ps = tmp_path / "g.jsonl", tmp_path / "p.jsonl", tmp_path / "ps.jsonl"
        write_scored(g, gold_rows)
        write_scored(p, pred_rows)
        rng.shuffle(pred_rows)
        write_scored(ps, pred_rows)
        ordered = stream_score(g, p).counters
        assert self.outcomes(g, ps, monkeypatch) == dict.fromkeys(
            ["real", *COLLIDING_HASHES], ordered
        )

    @staticmethod
    def truncate_in_line_3(p: Path) -> None:
        # Shrunk in place, never emptied: the forked worker's add_pair runs
        # this too, and the other process may be reading the file meanwhile.
        data = p.read_bytes()
        os.truncate(p, data.index(b"\n", data.index(b"\n") + 1) + 5)

    # A rewritten id that hashes like the old one cannot be told from a
    # collision, so only changes that break the line are compared here.
    @pytest.mark.parametrize(
        "pred, before_pair, message",
        [
            (PRED[:3] + [GOLD[0]] + PRED[3:], None,
             "RecordError: p.jsonl:4: duplicate prediction id 'r0'"),
            (PRED[:4] + PRED[5:], None,
             "AlignmentError: no prediction for gold record 'r3'"),
            (PRED + [("r9", ["O", "O"])], None,
             "AlignmentError: prediction id 'r9' has no gold record"),
            (PRED, truncate_in_line_3,
             "RecordError: p.jsonl:3: prediction file changed while scoring"),
        ],
        ids=["duplicate", "missing-prediction", "no-gold-record", "file-changed"],
    )
    def test_errors_match_the_real_hash(self, tmp_path, monkeypatch, pred, before_pair, message):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, self.GOLD)
        write_scored(p, pred)
        assert self.outcomes(g, p, monkeypatch, before_pair) == dict.fromkeys(
            ["real", *COLLIDING_HASHES], message
        )

    def test_repeated_gold_id_is_located(self, tmp_path, monkeypatch):
        # r1's one prediction is used by gold line 2, so gold line 4 has none.
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, self.GOLD[:3] + [self.GOLD[1]] + self.GOLD[3:])
        write_scored(p, self.PRED)
        assert self.outcomes(g, p, monkeypatch) == dict.fromkeys(
            ["real", *COLLIDING_HASHES], "RecordError: g.jsonl:4: duplicate gold id 'r1'"
        )

    def test_duplicate_on_the_earliest_later_line(self, tmp_path, monkeypatch):
        # a is on lines 1 and 5, b on lines 2 and 3: line 3 repeats an id first.
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_scored(g, [("a", ["O"]), ("b", ["O"]), ("c", ["O"])])
        write_scored(p, [("a", ["O"]), ("b", ["O"]), ("b", ["O"]), ("c", ["O"]), ("a", ["O"])])
        # The index sorts a's rows before b's, or after them.
        hashes = {
            **COLLIDING_HASHES,
            "a-first": lambda rid: ord(rid) << 50,
            "b-first": lambda rid: -ord(rid) << 50,
        }
        assert self.outcomes(g, p, monkeypatch, hashes=hashes) == dict.fromkeys(
            ["real", *hashes], "RecordError: p.jsonl:3: duplicate prediction id 'b'"
        )
        # Duplicates are looked for before a later malformed line is
        # reported, so the error is still the first in file order.
        with p.open("a", encoding="utf-8") as f:
            f.write("not json\n")
        with pytest.raises(RecordError) as info:
            stream_score(g, p, unordered=True)
        assert str(info.value) == "p.jsonl:3: duplicate prediction id 'b'"


def crc32_twins(n: int) -> list[str]:
    """n distinct 48-character ids of 'a' and 'c' that share one CRC-32.

    CRC-32 is affine over GF(2), so flipping a set of positions from 'a' to
    'c' changes it by the XOR of each flip's change; the sets whose changes
    XOR to 0 (at least 2**16 of them) keep it.
    """
    base = b"a" * 48
    flips = [zlib.crc32(base[:i] + b"c" + base[i + 1:]) ^ zlib.crc32(base) for i in range(48)]
    basis: list[tuple[int, int]] = []  # (change, positions), each change with its own top bit
    kernel = []
    for i, change in enumerate(flips):
        positions = 1 << i
        for b, bp in basis:
            if change ^ b < change:
                change, positions = change ^ b, positions ^ bp
        if change:
            basis.append((change, positions))
            basis.sort(reverse=True)
        else:
            kernel.append(positions)
    ids = []
    for k in range(1, n + 1):
        positions = 0
        for j, vector in enumerate(kernel):
            if k >> j & 1:
                positions ^= vector
        ids.append("".join("c" if positions >> i & 1 else "a" for i in range(48)))
    assert len(set(ids)) == n and len({zlib.crc32(rid.encode()) for rid in ids}) == 1
    return ids


def test_ids_sharing_a_crc32_cost_one_read_back_each(tmp_path, monkeypatch):
    """The id hash is salted, so ids built to share an unkeyed hash do not share it.

    With the CRC-32 of the id as the hash, 2,000 such ids, gold in the
    reverse of prediction order, took 2,003,000 prediction reads back.
    """
    n = 2000
    ids = crc32_twins(n)
    g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
    write_scored(p, [(rid, ["O"]) for rid in ids])
    write_scored(g, [(rid, ["O"]) for rid in reversed(ids)])
    reads = 0
    real_read = idindex.LineIndex.read

    def counted(index, f, key):
        nonlocal reads
        reads += 1
        return real_read(index, f, key)

    monkeypatch.setattr(idindex.LineIndex, "read", counted)
    assert stream_score(g, p, unordered=True).records == n
    assert reads <= n + 10


def test_unordered_memory_per_record(tmp_path):
    """--unordered holds an index entry per prediction, not its labels.

    50,000 shuffled predictions of 40 labels each: the traced peak stays at
    or under 128 bytes per record (about 20 here: 17.5 for the index and the
    rest while it is sorted), and under the older bound of 400, where
    keeping every decoded label list costs about 1,800. Ordered scoring of
    the same files holds one line of each at a time, so its peak stays under
    256 KB whatever the record count (buffering 5,000 lines of each took
    about 6 MB).
    """
    n, width, per_record, ordered_peak = 50_000, 40, 400, 256 * 1024
    tight_per_record = 128
    rng = random.Random(12)
    pool = [random_bio_labels(rng, TYPES, width) for _ in range(500)]
    gold = [(f"r{i:06d}", rng.choice(pool)) for i in range(n)]
    pred = [(rid, labels if rng.random() < 0.7 else rng.choice(pool)) for rid, labels in gold]
    g, p, ps = tmp_path / "g.jsonl", tmp_path / "p.jsonl", tmp_path / "ps.jsonl"
    write_scored(g, gold)
    write_scored(p, pred)
    rng.shuffle(pred)
    write_scored(ps, pred)
    del gold, pred, pool

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return stream_score(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ordered, peak = traced(g, p)
    assert ordered.records == n
    assert peak <= ordered_peak, f"ordered peak {peak} bytes"
    unordered, peak = traced(g, ps, unordered=True)
    assert unordered.records == n
    assert unordered.counters == ordered.counters
    assert peak <= per_record * n, f"peak {peak} bytes is {peak / n:.0f} bytes per record"
    assert peak <= tight_per_record * n, f"peak {peak} bytes is {peak / n:.0f} bytes per record"


# Faults that break one scored line: each maps the line's object, its
# encoded text (no newline) and a position to the broken text.
LINE_FAULTS = {
    "truncate": lambda obj, line, i: line[: 1 + i % (len(line) - 1)],
    "no-id": lambda obj, line, i: json.dumps({"labels": obj["labels"]}).encode(),
    "no-labels": lambda obj, line, i: json.dumps({"id": obj["id"]}).encode(),
    "non-string-label": lambda obj, line, i: json.dumps({**obj, "labels": [
        *obj["labels"][: i % len(obj["labels"])], 5, *obj["labels"][i % len(obj["labels"]) + 1:],
    ]}).encode(),
    "bad-utf8": lambda obj, line, i: line[: i % len(line)] + b"\xff" + line[i % len(line):],
    "blank": lambda obj, line, i: b"",
}


def named_line(g: Path, p: Path, *options: str) -> tuple[str | None, int]:
    """The file and line that `score` names in its error (file None: an order mismatch)."""
    result = CliRunner().invoke(main, ["score", "--gold", str(g), "--pred", str(p), *options])
    assert result.exit_code == 1, result.output
    m = re.match(r"Error: (?:(\w+)\.jsonl:(\d+): |record order mismatch at line (\d+): )",
                 result.output)
    assert m, result.output
    return m[1], int(m[2] or m[3])


def write_broken(path: Path, objs: list[dict], faults: dict[int, bytes]) -> None:
    """objs as a scored file, with the lines in faults replaced by their text."""
    path.write_bytes(b"".join(
        faults.get(i, json.dumps(obj).encode()) + b"\n" for i, obj in enumerate(objs)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_one_broken_line_is_named_by_both_modes(data):
    """score fails naming the one broken line of a valid pair, ordered or --unordered."""
    labels = st.lists(st.sampled_from(["O", "B-NAME", "I-NAME", "B-CITY"]), min_size=1, max_size=4)
    objs = [{"id": f"r{i}", "labels": data.draw(labels)} for i in range(data.draw(st.integers(2, 6)))]
    broken = data.draw(st.sampled_from(["g", "p"]))
    fault = data.draw(st.sampled_from([*LINE_FAULTS, "repeat-id"]))
    row = data.draw(st.integers(1 if fault == "repeat-id" else 0, len(objs) - 1))
    line = json.dumps(objs[row]).encode()
    if fault == "repeat-id":
        text = json.dumps({**objs[row], "id": objs[data.draw(st.integers(0, row - 1))]["id"]})
        text = text.encode()
    else:
        text = LINE_FAULTS[fault](objs[row], line, data.draw(st.integers(0, len(line))))
    with tempfile.TemporaryDirectory() as tmp:
        g, p = Path(tmp) / "g.jsonl", Path(tmp) / "p.jsonl"
        write_broken(g, objs, {row: text} if broken == "g" else {})
        write_broken(p, objs, {row: text} if broken == "p" else {})
        ordered, unordered = named_line(g, p), named_line(g, p, "--unordered")
    assert ordered[1] == unordered[1] == row + 1
    assert unordered[0] == broken
    assert ordered[0] in (broken, None)


@pytest.mark.parametrize("fault", ["truncate", "no-labels", "blank"])
def test_repeated_prediction_id_before_a_broken_line_is_named_first(tmp_path, fault):
    objs = [{"id": f"r{i}", "labels": ["B-NAME", "O"]} for i in range(5)]
    later = json.dumps(objs[4]).encode()
    g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
    write_broken(g, objs, {})
    write_broken(p, objs, {2: json.dumps({**objs[2], "id": "r0"}).encode(),
                           4: LINE_FAULTS[fault](objs[4], later, len(later) // 2)})
    assert named_line(g, p) == (None, 3)
    assert named_line(g, p, "--unordered") == ("p", 3)
