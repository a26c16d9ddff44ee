import json
import random
from collections import UserList
from pathlib import Path

import pytest

from conftest import KERNELS, random_bio_labels, score_corpus_oracle
from piiprep import scorer
from piiprep.errors import AlignmentError, RecordError
from piiprep.scorer import (
    MetricsReport,
    TypeCounters,
    finalize,
    merge,
    score_pair,
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
        c = score_pair(["B-NAME", "I-NAME", "O"], ["B-NAME", "I-NAME", "O"])
        assert c.counts == {"NAME": [1, 1, 1]}

    def test_boundary_miss_is_not_tp(self):
        # prediction clips the span by one token: same type, wrong end
        c = score_pair(["B-NAME", "I-NAME", "O"], ["B-NAME", "O", "O"])
        assert c.counts == {"NAME": [0, 1, 1]}

    def test_type_miss_is_not_tp(self):
        c = score_pair(["B-NAME", "O"], ["B-CITY", "O"])
        assert c.counts == {"NAME": [0, 0, 1], "CITY": [0, 1, 0]}

    def test_foreign_predicted_type_appears_with_zero_gold(self):
        c = score_pair(["O", "O"], ["B-URL", "I-URL"])
        assert c.counts == {"URL": [0, 1, 0]}

    def test_length_mismatch_raises(self):
        with pytest.raises(AlignmentError, match="length mismatch"):
            score_pair(["O"], ["O", "O"])

    def test_spans_touching_both_ends(self):
        c = score_pair(["B-NAME", "O", "B-URL"], ["B-NAME", "O", "B-URL"])
        assert c.counts["NAME"] == [1, 1, 1]
        assert c.counts["URL"] == [1, 1, 1]


class TestMerge:
    def pairs(self, rng, n):
        out = []
        for _ in range(n):
            g = random_bio_labels(rng, TYPES, rng.randint(0, 20))
            out.append((g, perturb(rng, g)))
        return out

    def test_identity(self):
        c = score_pair(["B-NAME"], ["B-NAME"])
        assert merge(c, TypeCounters()) == c
        assert merge(TypeCounters(), c) == c

    def test_commutative(self):
        rng = random.Random(1)
        a = TypeCounters()
        b = TypeCounters()
        for g, p in self.pairs(rng, 30):
            a.add_pair(g, p)
        for g, p in self.pairs(rng, 30):
            b.add_pair(g, p)
        assert merge(a, b) == merge(b, a)

    def test_associative(self):
        rng = random.Random(2)
        cs = []
        for _ in range(3):
            c = TypeCounters()
            for g, p in self.pairs(rng, 15):
                c.add_pair(g, p)
            cs.append(c)
        a, b, c = cs
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    def test_merge_leaves_inputs_alone(self):
        a = score_pair(["B-NAME"], ["B-NAME"])
        before = {t: list(v) for t, v in a.counts.items()}
        merge(a, a)
        assert a.counts == before

    def test_split_anywhere_equals_one_shot(self):
        rng = random.Random(3)
        pairs = self.pairs(rng, 50)
        whole = TypeCounters()
        for g, p in pairs:
            whole.add_pair(g, p)
        for cut in [0, 1, 7, 25, 49, 50]:
            left, right = TypeCounters(), TypeCounters()
            for g, p in pairs[:cut]:
                left.add_pair(g, p)
            for g, p in pairs[cut:]:
                right.add_pair(g, p)
            assert merge(left, right) == whole


class TestFinalize:
    def test_zero_every_which_way(self):
        r = finalize(TypeCounters())
        assert (r.micro_precision, r.micro_recall, r.micro_f1) == (0.0, 0.0, 0.0)

    def test_no_predictions_zero_precision(self):
        c = score_pair(["B-NAME"], ["O"])
        r = finalize(c)
        assert r.micro_precision == 0.0
        assert r.micro_recall == 0.0
        assert r.per_type["NAME"].support == 1

    def test_no_gold_zero_recall(self):
        c = score_pair(["O"], ["B-NAME"])
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
        c = score_pair(["B-NAME", "O", "B-URL"], ["B-NAME", "O", "B-CITY"])
        r = finalize(c, records=1, chunks=1, system="demo", category="test")
        back = MetricsReport.from_dict(json.loads(r.to_json()))
        assert back == r

    def test_csv_shape(self, canonical_space):
        c = score_pair(["B-IBAN"], ["B-IBAN"])
        text = finalize(c).to_csv(canonical_space)
        lines = text.strip().split("\n")
        assert lines[0] == "type,group,support,precision,recall,f1"
        assert lines[1].startswith("IBAN,FINANCIAL_ID,1,")


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


class TestAddPair:
    def test_any_sequence_type_scores_like_a_list(self):
        gold, pred = ["B-A", "I-A", "O", "B-B"], ["B-A", "I-A", "B-B", "I-B"]
        expected = score_pair(gold, pred)
        assert expected.counts == {"A": [1, 1, 1], "B": [0, 1, 1]}
        assert score_pair(tuple(gold), tuple(pred)) == expected
        assert score_pair(UserList(gold), pred) == expected
