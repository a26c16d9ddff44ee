import hashlib
import json
import os
from collections import Counter

import pytest
from conftest import bio_spans_oracle, bounded, orphan_oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piiprep import records as records_module
from piiprep._purespans import _CACHE_MAX
from piiprep.biospan import check_labels, count_orphan_continuations
from piiprep.errors import RecordError
from piiprep.manifest import (
    GENERATOR_NAME,
    Manifest,
    build_manifest,
    sha256_file,
    tally,
    write_manifest,
)
from piiprep.records import (
    EncodedRecord,
    Record,
    parse_record_line,
    read_records,
    record_to_line,
    write_records,
)
from piiprep.workers import Spill

SPILL = Spill.temporary()  # where every EncodedRecord built here keeps its line


# Strings that JSON must escape or that ensure_ascii=False keeps as they are:
# quotes, backslashes, control characters, U+2028/2029, non-ASCII and astral
# characters, a lone surrogate, mixed with arbitrary ones.
_wire_text = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x1f\x7f\u0085\u2028\u2029é東\U0001f600\ud800'),
), max_size=8)


def rec(i=1, labels=("B-NAME", "O")) -> Record:
    return Record(id=f"r{i}", tokens=["a", "b"][: len(labels)], labels=list(labels), source="s")


class TestWireFormat:
    def test_canonical_line(self):
        line = record_to_line(rec())
        assert line == '{"id":"r1","tokens":["a","b"],"labels":["B-NAME","O"],"source":"s"}\n'

    def test_unicode_not_escaped(self):
        r = Record(id="u", tokens=["café"], labels=["O"], source="s")
        assert "café" in record_to_line(r)

    def test_round_trip(self):
        r = rec()
        assert parse_record_line(record_to_line(r), 1) == r

    @settings(derandomize=True, database=None, max_examples=300)
    @given(r=st.builds(Record, id=_wire_text, tokens=st.lists(_wire_text, max_size=6),
                       labels=st.lists(_wire_text, max_size=6), source=_wire_text))
    def test_line_is_what_json_dumps_writes(self, r):
        obj = {"id": r.id, "tokens": r.tokens, "labels": r.labels, "source": r.source}
        assert record_to_line(r) == json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"

    def test_line_without_the_c_encoder(self, monkeypatch):
        r = Record(id="q\"\\", tokens=["é", "\U0001f600", "\x00\u2028"], labels=["O"] * 3, source="s")
        line = record_to_line(r)
        monkeypatch.setattr(records_module, "_ENCODE", None)
        assert record_to_line(r) == line

    def test_missing_field_named(self):
        with pytest.raises(RecordError, match="missing field.*source"):
            parse_record_line('{"id":"x","tokens":["a"],"labels":["O"]}', 3, "f.jsonl")

    def test_malformed_json_carries_location(self):
        with pytest.raises(RecordError, match="f.jsonl:7"):
            parse_record_line("{nope", 7, "f.jsonl")

    def test_token_label_length_mismatch(self):
        line = '{"id":"x","tokens":["a","b"],"labels":["O"],"source":"s"}'
        with pytest.raises(RecordError, match="2 tokens vs 1 labels"):
            parse_record_line(line, 1)

    def test_bad_label_rejected(self):
        line = '{"id":"x","tokens":["a"],"labels":["Z-NAME"],"source":"s"}'
        with pytest.raises(RecordError):
            parse_record_line(line, 1)

    def test_empty_record_rejected(self):
        line = '{"id":"x","tokens":[],"labels":[],"source":"s"}'
        with pytest.raises(RecordError, match="empty"):
            parse_record_line(line, 1)

    def test_non_object_rejected(self):
        with pytest.raises(RecordError, match="object"):
            parse_record_line("[1, 2]", 1)

    def test_tokens_not_an_array_rejected(self):
        line = '{"id":"x","tokens":"xy","labels":["O","O"],"source":"s"}'
        with pytest.raises(RecordError, match=r"^f\.jsonl:4: tokens must be a JSON array$"):
            parse_record_line(line, 4, "f.jsonl")

    def test_labels_not_an_array_rejected(self):
        line = '{"id":"x","tokens":["a"],"labels":"O","source":"s"}'
        with pytest.raises(RecordError, match=r"^f\.jsonl:5: labels must be a JSON array$"):
            parse_record_line(line, 5, "f.jsonl")

    def test_non_string_token_rejected(self):
        line = '{"id":"x","tokens":["a",5],"labels":["O","O"],"source":"s"}'
        with pytest.raises(
            RecordError, match=r"^f\.jsonl:6: record x: token 1 is not a string: 5$"
        ):
            parse_record_line(line, 6, "f.jsonl")

    def test_non_string_label_rejected(self):
        line = '{"id":"x","tokens":["a"],"labels":[5],"source":"s"}'
        with pytest.raises(
            RecordError, match=r"^f\.jsonl:7: record x: label 0 is not a string: 5$"
        ):
            parse_record_line(line, 7, "f.jsonl")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"id":"x","tokens":["a","\\ud800"],"labels":["O","O"],"source":"s"',
             "record x: token 1 holds a lone UTF-16 surrogate: '\\ud800'"),
            ('"id":"x","tokens":["a"],"labels":["B-\\udfff"],"source":"s"',
             "record x: label 0 holds a lone UTF-16 surrogate: 'B-\\udfff'"),
            ('"id":"x\\ud800","tokens":["a"],"labels":["O"],"source":"s"',
             "record id holds a lone UTF-16 surrogate: 'x\\ud800'"),
            ('"id":"x","tokens":["a"],"labels":["O"],"source":"s\\udc00"',
             "record x: source holds a lone UTF-16 surrogate: 's\\udc00'"),
        ],
        ids=["token", "label", "id", "source"],
    )
    def test_lone_surrogate_rejected(self, fields, message):
        with pytest.raises(RecordError) as info:
            parse_record_line("{" + fields + "}\n", 8, "f.jsonl")
        assert str(info.value) == "f.jsonl:8: " + message

    def test_escapes_that_decode_to_valid_text_accepted(self):
        # A surrogate pair is one astral character; "\\u" after an escaped
        # backslash is no escape at all.
        line = (
            r'{"id":"x","tokens":["\ud83d\ude00","\\u00e9","\u00e9"],'
            r'"labels":["O","O","O"],"source":"s"}'
        )
        r = parse_record_line(line, 1)
        assert r.tokens == ["\U0001f600", "\\u00e9", "\u00e9"]
        assert parse_record_line(record_to_line(r), 1) == r


def seed_validate(rec: Record) -> None:
    """Record.validate as it was before its fast path: a check per token."""
    if not rec.id or not isinstance(rec.id, str):
        raise RecordError(f"record id must be a non-empty string, got {rec.id!r}")
    if not rec.source or not isinstance(rec.source, str):
        raise RecordError(f"record {rec.id}: source must be a non-empty string")
    if len(rec.tokens) != len(rec.labels):
        raise RecordError(f"record {rec.id}: {len(rec.tokens)} tokens vs {len(rec.labels)} labels")
    if not rec.tokens:
        raise RecordError(f"record {rec.id}: empty token sequence")
    for i, (tok, lab) in enumerate(zip(rec.tokens, rec.labels)):
        if type(tok) is not str:
            raise RecordError(f"record {rec.id}: token {i} is not a string: {tok!r}")
        if type(lab) is not str:
            raise RecordError(f"record {rec.id}: label {i} is not a string: {lab!r}")
        if lab != "O" and (len(lab) < 3 or lab[1] != "-" or lab[0] not in "BI"):
            raise RecordError(f"record {rec.id}: malformed BIO label at position {i}: {lab!r}")


def outcome(check, rec: Record) -> str | None:
    try:
        check(rec)
    except RecordError as e:
        return str(e)
    return None


class Str(str):
    """A str subclass: equal to, and hashing like, the str it wraps."""


VALID_LABELS = ["O", "B-A", "I-A", "B-NAME", "I-NAME", "B-STRAßE", "I-STRAßE"]
BAD_TOKENS = [5, None, 1.5, ["a"], {"a": 1}, Str("a"), Str("")]
BAD_LABELS = [
    5, None, ["B-A"], {"B-A": 1}, Str("B-A"), Str("O"),
    "X-A", "B-", "b-A", "BA", "", "I_A", "o", "B-A ",
]


@st.composite
def faulty_records(draw):
    """A record of valid tokens and labels with bad entries at random positions."""
    n = draw(st.integers(1, 8))
    tokens = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(VALID_LABELS), min_size=n, max_size=n))
    positions = st.integers(0, n - 1)
    for i, bad in draw(st.lists(st.tuples(positions, st.sampled_from(BAD_TOKENS)), max_size=2)):
        tokens[i] = bad
    for i, bad in draw(st.lists(st.tuples(positions, st.sampled_from(BAD_LABELS)), max_size=2)):
        labels[i] = bad
    return Record(id="x", tokens=tokens, labels=labels, source="s")


class TestValidateFastPath:
    """Record.validate checks each distinct label once; its verdicts are the seed's."""

    @pytest.mark.parametrize("cache", ["warm", "cleared"])
    @settings(max_examples=300)
    @given(batch=st.lists(faulty_records(), min_size=1, max_size=6))
    def test_same_verdict_and_message_as_the_per_token_loop(self, cache, batch):
        if cache == "cleared":
            records_module._VALID_LABELS.clear()
        else:
            Record(id="w", tokens=["t"] * len(VALID_LABELS), labels=VALID_LABELS, source="s").validate()
        for rec in batch:
            assert outcome(Record.validate, rec) == outcome(seed_validate, rec)
        # Only labels validate found valid are ever remembered.
        for lab in records_module._VALID_LABELS:
            assert type(lab) is str
            check_labels([lab])

    def test_str_subclass_rejected_after_its_value_was_cached(self):
        rec(labels=["B-A", "O"]).validate()
        assert "B-A" in records_module._VALID_LABELS
        bad = Record(id="x", tokens=["a", Str("b")], labels=["B-A", "O"], source="s")
        with pytest.raises(RecordError, match=r"^record x: token 1 is not a string: 'b'$"):
            bad.validate()
        bad = Record(id="x", tokens=["a", "b"], labels=["O", Str("B-A")], source="s")
        with pytest.raises(RecordError, match=r"^record x: label 1 is not a string: 'B-A'$"):
            bad.validate()

    def test_set_stays_within_its_bound(self):
        records_module._VALID_LABELS.clear()
        for i in range(_CACHE_MAX + 1000):
            Record(id="x", tokens=["a", "b"], labels=[f"B-T{i}", "O"], source="s").validate()
            assert len(records_module._VALID_LABELS) <= _CACHE_MAX
        many = [f"I-U{i}" for i in range(_CACHE_MAX + 10)]
        Record(id="y", tokens=["a"] * len(many), labels=many, source="s").validate()
        assert len(records_module._VALID_LABELS) <= _CACHE_MAX
        # After being emptied, valid labels still pass and bad ones still fail.
        rec(labels=["B-NAME", "O"]).validate()
        message = r"^record x: malformed BIO label at position 0: 'X-1'$"
        with pytest.raises(RecordError, match=message):
            Record(id="x", tokens=["a"], labels=["X-1"], source="s").validate()


class TestSummary:
    @settings(derandomize=True, database=None, max_examples=300)
    @given(labels=st.lists(
        st.sampled_from(["O", "B-NAME", "I-NAME", "I-CITY", "B-STRAßE", "I-STRAßE"]), max_size=12))
    def test_equals_counter_reference(self, labels):
        counts = Counter(labels)
        counts.pop("O", None)
        expected = (count_orphan_continuations(labels), tuple(sorted(counts.items())))
        assert Record(id="x", tokens=["t"] * len(labels), labels=labels, source="s").summary == expected


class TestFileIo:
    def test_write_then_read(self, tmp_path):
        records = [rec(i) for i in range(5)]
        p = tmp_path / "a.jsonl"
        sha256 = hashlib.sha256()
        assert write_records(p, [EncodedRecord(r, SPILL) for r in records], sha256) == 5
        assert list(read_records(p)) == records
        assert sha256.hexdigest() == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_blank_line_rejected(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text(record_to_line(rec()) + "\n" + record_to_line(rec(2)), encoding="utf-8")
        with pytest.raises(RecordError, match=r"^a\.jsonl:2: blank line$"):
            list(read_records(p))

    def test_error_names_file_and_line(self, tmp_path):
        p = tmp_path / "broken.jsonl"
        p.write_text(record_to_line(rec()) + "oops\n", encoding="utf-8")
        with pytest.raises(RecordError, match="broken.jsonl:2"):
            list(read_records(p))

    def test_named_pipe_rejected_before_any_line_is_read(self, tmp_path):
        fifo = tmp_path / "art.jsonl"
        os.mkfifo(fifo)
        # Held open for writing, so that opening the pipe to read it does not
        # block, and non-blocking, so that reading it back here cannot hang.
        fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
        try:
            lines = (record_to_line(rec()) + record_to_line(rec(2))).encode("utf-8")
            os.write(fd, lines)
            with pytest.raises(RecordError) as info:
                bounded(lambda: list(read_records(fifo)), seconds=5)
            assert str(info.value) == (
                "art.jsonl: read_records reads its input twice, so it must be a regular file")
            assert os.read(fd, len(lines) + 1) == lines  # no line was read
        finally:
            os.close(fd)


class TestSha256File:
    def test_agrees_with_hashlib(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"span data " * 1000)
        assert sha256_file(p) == hashlib.sha256(b"span data " * 1000).hexdigest()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.bin"
        p.write_bytes(b"")
        assert sha256_file(p) == hashlib.sha256(b"").hexdigest()


ARTIFACT_RECORDS = [
    Record(id="a1", tokens=["x", "y"], labels=["B-NAME", "I-NAME"], source="a"),
    Record(id="a2", tokens=["x"], labels=["O"], source="a"),
    Record(id="b1", tokens=["x", "y"], labels=["O", "I-URL"], source="b"),
]


def manifest_from_file(path) -> dict:
    """Manifest counts recomputed from the written file's lines alone."""
    per_source: dict[str, int] = {}
    per_type_b: dict[str, int] = {}
    types: set[str] = set()
    n_records = n_spans = n_orphans = 0
    # Split on "\n" only: str.splitlines would also cut at U+0085 or U+2028 in a token.
    for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
        obj = json.loads(line)
        n_records += 1
        per_source[obj["source"]] = per_source.get(obj["source"], 0) + 1
        spans = bio_spans_oracle(obj["labels"])
        n_spans += len(spans)
        types.update(t for _, _, t in spans)
        n_orphans += orphan_oracle(obj["labels"])
        for lab in obj["labels"]:
            if lab.startswith("B-"):
                per_type_b[lab[2:]] = per_type_b.get(lab[2:], 0) + 1
    return {
        "records": n_records,
        "gold_spans": n_spans,
        "entity_types": len(types),
        "sources": len(per_source),
        "per_source_records": dict(sorted(per_source.items())),
        "per_type_b_mentions": dict(sorted(per_type_b.items())),
        "orphan_continuations": n_orphans,
    }


_tokens = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
_labels = st.sampled_from(["O", "B-NAME", "I-NAME", "B-CITY", "I-CITY", "B-STRAßE", "I-STRAßE"])
_records = st.lists(
    st.tuples(
        st.lists(st.tuples(_tokens, _labels), min_size=1, max_size=8),
        st.sampled_from(["a", "b", "zürich", "東京"]),
    ),
    max_size=12,
).map(lambda rows: [
    Record(id=f"r{i}", tokens=[t for t, _ in pairs], labels=[lab for _, lab in pairs], source=src)
    for i, (pairs, src) in enumerate(rows)
])


def write_artifact(path, records) -> tuple[list[EncodedRecord], str]:
    """Write records to path; returns them encoded and the SHA-256 the writer took."""
    encoded = [EncodedRecord(r, SPILL) for r in records]
    sha256 = hashlib.sha256()
    write_records(path, encoded, sha256)
    return encoded, sha256.hexdigest()


class TestManifest:
    def write_artifact(self, dir_path):
        p = dir_path / "art.jsonl"
        return (p, *write_artifact(p, ARTIFACT_RECORDS))

    def test_counts(self, tmp_path):
        p, encoded, sha256 = self.write_artifact(tmp_path)
        m = build_manifest(p, encoded, sha256=sha256, seed=3, config_digest="abc")
        assert m.artifact == "art.jsonl"
        assert m.records == 3
        assert m.gold_spans == 2  # NAME span + orphan URL span
        assert m.entity_types == 2
        assert m.sources == 2
        assert m.per_source_records == {"a": 2, "b": 1}
        assert m.per_type_b_mentions == {"NAME": 1}
        assert m.orphan_continuations == 1
        assert m.seed == 3
        assert m.generator == GENERATOR_NAME

    def test_no_timestamps_or_absolute_paths(self, tmp_path):
        p, encoded, sha256 = self.write_artifact(tmp_path)
        text = write_manifest(p, encoded, sha256=sha256).to_json()
        assert str(tmp_path) not in text
        assert "time" not in text.lower()
        assert "date" not in text.lower()

    def test_json_round_trip(self, tmp_path):
        p, encoded, sha256 = self.write_artifact(tmp_path)
        m = build_manifest(p, encoded, sha256=sha256, seed=1, config_digest="d")
        assert Manifest(**json.loads(m.to_json())) == m

    def test_write_manifest_places_sidecar(self, tmp_path):
        p, encoded, sha256 = self.write_artifact(tmp_path)
        m = write_manifest(p, encoded, sha256=sha256)
        sidecar = tmp_path / "art.jsonl.manifest.json"
        assert sidecar.exists()
        assert sidecar.read_text(encoding="utf-8") == m.to_json()

    def test_sha_matches_artifact_bytes(self, tmp_path):
        p, encoded, sha256 = self.write_artifact(tmp_path)
        m = build_manifest(p, encoded, sha256=sha256)
        assert m.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_identical_content_gives_identical_manifest(self, tmp_path):
        p1, encoded1, sha1 = self.write_artifact(tmp_path)
        sub = tmp_path / "sub"
        sub.mkdir()
        p2, encoded2, sha2 = self.write_artifact(sub)
        assert (build_manifest(p1, encoded1, sha256=sha1)
                == build_manifest(p2, encoded2, sha256=sha2))

    def test_type_seen_only_as_orphan_continuations(self, tmp_path):
        # URL never has a B- label: each run of I-URL after another type or
        # O opens a span of its own, and URL still counts as a type.
        records = [
            Record(id="a", tokens=list("abcd"), labels=["I-URL", "I-URL", "O", "I-URL"], source="s"),
            Record(id="b", tokens=list("abc"), labels=["B-NAME", "I-URL", "I-NAME"], source="s"),
        ]
        p = tmp_path / "orphans.jsonl"
        encoded, sha256 = write_artifact(p, records)
        m = build_manifest(p, encoded, sha256=sha256)
        assert m.per_type_b_mentions == {"NAME": 1}
        assert m.orphan_continuations == 4
        assert m.gold_spans == 5
        assert m.entity_types == 2
        expected = manifest_from_file(p)
        assert {k: getattr(m, k) for k in expected} == expected

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=_records)
    def test_tallies_agree_with_the_written_file(self, tmp_path, records):
        p = tmp_path / "prop.jsonl"
        encoded, sha256 = write_artifact(p, records)
        m = write_manifest(p, encoded, sha256=sha256, seed=7)
        expected = manifest_from_file(p)
        assert {k: getattr(m, k) for k in expected} == expected
        assert tally(records) == expected  # as validate tallies what it reads
        assert m.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
