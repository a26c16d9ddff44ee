import random
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piiprep.errors import SpanError, TagError
from piiprep.ingest import (
    CharSpan,
    char_spans_to_bio,
    ingest_record,
    parse_tagged_text,
)


class OffsetToken(NamedTuple):
    """A whitespace token with its character offsets in the source text."""

    text: str
    start: int
    end: int


def tokenize_with_offsets(text: str) -> list[OffsetToken]:
    """The brute-force oracle's tokenizer: Unicode whitespace runs split tokens."""
    return [OffsetToken(m.group(0), m.start(), m.end()) for m in re.finditer(r"\S+", text)]


class TestParseTaggedText:
    def test_single_tag(self, canonical_space):
        plain, spans = parse_tagged_text(
            "Call <PHONE>555-1234</PHONE> now", canonical_space
        )
        assert plain == "Call 555-1234 now"
        assert spans == [CharSpan(5, 13, "PHONE")]

    def test_untagged_text_is_untouched(self, canonical_space):
        raw = "no tags here, 1 < 2 but 3 > 2"
        plain, spans = parse_tagged_text(raw, canonical_space)
        assert plain == raw
        assert spans == []

    def test_two_tags_with_punctuation_between(self, canonical_space):
        raw = "<NAME>Ana Silva</NAME>, <CITY>Porto</CITY>."
        plain, spans = parse_tagged_text(raw, canonical_space)
        assert plain == "Ana Silva, Porto."
        assert spans == [CharSpan(0, 9, "NAME"), CharSpan(11, 16, "CITY")]

    def test_lowercase_tag_names_normalise(self, canonical_space):
        plain, spans = parse_tagged_text("<name>Ana</name>", canonical_space)
        assert spans == [CharSpan(0, 3, "NAME")]

    def test_attribute_tag_rejected(self, canonical_space):
        with pytest.raises(TagError, match="malformed"):
            parse_tagged_text('<NAME id="3">Ana</NAME>', canonical_space)

    def test_nested_tags_rejected(self, canonical_space):
        with pytest.raises(TagError, match="nested"):
            parse_tagged_text("<NAME>Ana <CITY>Porto</CITY></NAME>", canonical_space)

    def test_mismatched_close_rejected(self, canonical_space):
        with pytest.raises(TagError, match="mismatched"):
            parse_tagged_text("<NAME>Ana</CITY>", canonical_space)

    def test_close_without_open_rejected(self, canonical_space):
        with pytest.raises(TagError, match="without an open"):
            parse_tagged_text("Ana</NAME>", canonical_space)

    def test_unclosed_tag_rejected(self, canonical_space):
        with pytest.raises(TagError, match="unclosed"):
            parse_tagged_text("<NAME>Ana", canonical_space)

    def test_empty_region_rejected(self, canonical_space):
        with pytest.raises(TagError, match="empty"):
            parse_tagged_text("<NAME></NAME>", canonical_space)

    def test_unknown_type_error_mode(self, canonical_space):
        with pytest.raises(TagError, match="unknown entity type"):
            parse_tagged_text("<WIDGET>x</WIDGET>", canonical_space)

    def test_unknown_type_drop_mode_keeps_text(self, canonical_space):
        plain, spans = parse_tagged_text(
            "a <WIDGET>gadget</WIDGET> and <NAME>Ana</NAME>",
            canonical_space,
            unknown_types="drop",
        )
        assert plain == "a gadget and Ana"
        assert spans == [CharSpan(13, 16, "NAME")]

    def test_bad_mode_rejected(self, canonical_space):
        with pytest.raises(ValueError):
            parse_tagged_text("x", canonical_space, unknown_types="ignore")

    def test_offsets_index_plain_text_not_raw(self, canonical_space):
        raw = "x <NAME>Ana</NAME> y <NAME>Bo</NAME>"
        plain, spans = parse_tagged_text(raw, canonical_space)
        for s in spans:
            assert plain[s.start : s.end] in ("Ana", "Bo")


class TestTokenizeWithOffsets:
    def test_offsets_point_back_into_text(self):
        text = "  a bb\tccc\n d  "
        toks = tokenize_with_offsets(text)
        assert [t.text for t in toks] == ["a", "bb", "ccc", "d"]
        for t in toks:
            assert text[t.start : t.end] == t.text

    def test_empty_and_whitespace_only(self):
        assert tokenize_with_offsets("") == []
        assert tokenize_with_offsets(" \t\n") == []

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_matches_plain_split(self, text):
        assert [t.text for t in tokenize_with_offsets(text)] == text.split()


class TestCharSpansToBio:
    def test_multi_token_span(self):
        text = "Ana Silva lives here"
        tokens, labels = char_spans_to_bio(text, [CharSpan(0, 9, "NAME")])
        assert tokens == ["Ana", "Silva", "lives", "here"]
        assert labels == ["B-NAME", "I-NAME", "O", "O"]

    def test_partial_token_overlap_marks_whole_token(self):
        # span covers only "na Si"; both touched tokens get labels
        text = "Ana Silva"
        _, labels = char_spans_to_bio(text, [CharSpan(1, 6, "NAME")])
        assert labels == ["B-NAME", "I-NAME"]

    def test_overlapping_spans_rejected(self):
        with pytest.raises(SpanError, match="overlapping"):
            char_spans_to_bio("a b c", [CharSpan(0, 3, "NAME"), CharSpan(2, 5, "CITY")])

    def test_out_of_bounds_span_rejected(self):
        with pytest.raises(SpanError, match="does not fit"):
            char_spans_to_bio("ab", [CharSpan(0, 5, "NAME")])

    def test_whitespace_only_span_rejected(self):
        with pytest.raises(SpanError, match="covers no token"):
            char_spans_to_bio("a  b", [CharSpan(1, 3, "NAME")])

    # Every character str.isspace() accepts (none lies past U+3000), plus two it rejects.
    @settings(derandomize=True, database=None, max_examples=300)
    @given(st.text(st.one_of(st.characters(), st.sampled_from(
        "".join(filter(str.isspace, map(chr, range(0x3001)))) + "\u200b\ufeff")), max_size=80))
    def test_tokens_match_plain_split(self, text):
        assert char_spans_to_bio(text, []) == (text.split(), ["O"] * len(text.split()))

    def test_token_shared_by_two_spans_rejected(self):
        # distinct char ranges, same middle token: not expressible in BIO
        with pytest.raises(SpanError, match="conflicts"):
            char_spans_to_bio("abcdef", [CharSpan(0, 3, "NAME"), CharSpan(3, 6, "CITY")])

    @settings(max_examples=150)
    @given(st.data())
    def test_labelled_tokens_exactly_overlap_spans(self, data):
        rng_words = data.draw(
            st.lists(st.text(alphabet="abcd", min_size=1, max_size=5), min_size=1, max_size=12)
        )
        text = " ".join(rng_words)
        toks = tokenize_with_offsets(text)
        k = data.draw(st.integers(0, len(toks) - 1))
        span = CharSpan(toks[k].start, toks[k].end, "NAME")
        _, labels = char_spans_to_bio(text, [span])
        # brute-force membership: token labelled iff it overlaps the span
        for i, tok in enumerate(toks):
            chars = set(range(tok.start, tok.end)) & set(range(span.start, span.end))
            assert (labels[i] != "O") == bool(chars)


def brute_force_bio(text: str, spans) -> tuple[list[str], list[str]]:
    """char_spans_to_bio with every token tested against every span."""
    tokens = tokenize_with_offsets(text)
    labels = ["O"] * len(tokens)
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.end > cur.start:
            raise SpanError(f"overlapping spans: {prev} and {cur}")
    for span in ordered:
        if not (0 <= span.start < span.end <= len(text)):
            raise SpanError(f"span {span} does not fit text of length {len(text)}")
        hit = [i for i, tok in enumerate(tokens) if tok.start < span.end and span.start < tok.end]
        if not hit:
            raise SpanError(f"span {span} covers no token (whitespace-only region)")
        for j, i in enumerate(hit):
            if labels[i] != "O":
                raise SpanError(f"span {span} conflicts with another span on token {i}")
            labels[i] = ("B-" if j == 0 else "I-") + span.entity
    return [t.text for t in tokens], labels


def projection(text, spans):
    try:
        return brute_force_bio(text, spans), None
    except SpanError as e:
        return None, str(e)


# Runs of ASCII and Unicode whitespace (NBSP, em space, ideographic space,
# line separator) between words of varied length.
_gaps = st.text(alphabet=" \t\n\u00a0\u2003\u3000\u2028", min_size=0, max_size=4)
_words = st.text(alphabet="abé東", min_size=1, max_size=5)


@st.composite
def text_and_spans(draw):
    parts = draw(st.lists(st.tuples(_gaps, _words), min_size=0, max_size=8))
    text = "".join(g + w for g, w in parts) + draw(_gaps)
    n = len(text)
    if draw(st.booleans()):
        # Disjoint spans from sorted cut points: they may cover part of a
        # token, only whitespace, or touch the same token twice.
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8, unique=True)))
        bounds = list(zip(cuts[::2], cuts[1::2]))
    else:
        # Arbitrary spans: overlapping, empty or out of range ones too.
        bounds = draw(st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)), max_size=4))
    entities = st.sampled_from(["NAME", "CITY"])
    return text, [CharSpan(s, e, draw(entities)) for s, e in bounds]


class TestBisectProjection:
    @settings(max_examples=500)
    @given(text_and_spans())
    def test_agrees_with_brute_force_overlap(self, case):
        text, spans = case
        expected, error = projection(text, spans)
        if error is None:
            assert char_spans_to_bio(text, spans) == expected
        else:
            with pytest.raises(SpanError) as info:
                char_spans_to_bio(text, spans)
            assert str(info.value) == error

    def test_whitespace_runs_and_partial_tokens(self):
        text = "ab \u00a0\u3000cd\u2003ef  gh"
        # "b" (end of ab) through "c" (start of cd); then only the "f" of ef.
        spans = [CharSpan(1, 6, "NAME"), CharSpan(9, 10, "CITY")]
        assert char_spans_to_bio(text, spans) == (
            ["ab", "cd", "ef", "gh"], ["B-NAME", "I-NAME", "B-CITY", "O"],
        )
        assert char_spans_to_bio(text, spans) == brute_force_bio(text, spans)


class TestIngestRecord:
    def test_full_round_trip(self, canonical_space):
        rec = ingest_record(
            "Send to <EMAIL>ana@example.org</EMAIL> today",
            "demo",
            canonical_space,
            "demo-1",
        )
        assert rec is not None
        assert rec.tokens == ["Send", "to", "ana@example.org", "today"]
        assert rec.labels == ["O", "O", "B-EMAIL", "O"]
        assert rec.source == "demo"
        rec.validate()

    def test_span_free_line_returns_none(self, canonical_space):
        assert ingest_record("nothing here", "demo", canonical_space, "demo-2") is None

    def test_dropped_unknown_leaves_span_free_line(self, canonical_space):
        rec = ingest_record(
            "<WIDGET>gadget</WIDGET> only",
            "demo",
            canonical_space,
            "demo-3",
            unknown_types="drop",
        )
        assert rec is None

    def test_tag_spanning_multiple_tokens_with_punctuation(self, canonical_space):
        rec = ingest_record(
            "Paid <AMOUNT>1,250.00</AMOUNT> to <NAME>Ana Maria Silva</NAME>.",
            "demo",
            canonical_space,
            "demo-4",
        )
        assert rec.labels == ["O", "B-AMOUNT", "O", "B-NAME", "I-NAME", "I-NAME"]
        # the trailing period fuses with the last name token under \S+
        assert rec.tokens[-1] == "Silva."


def _regex_reference_parse(raw: str) -> tuple[str, list[tuple[int, int, str]]]:
    """Independent two-pass reference: strip tags, then locate values.

    Only valid for worked examples whose tagged values are unique in the
    line; used to cross-check offset arithmetic, not error handling.
    """
    tag_re = re.compile(r"<([A-Z_]+)>(.*?)</\1>")
    plain = tag_re.sub(lambda m: m.group(2), raw)
    spans = []
    for m in tag_re.finditer(raw):
        value = m.group(2)
        start = plain.index(value)
        spans.append((start, start + len(value), m.group(1)))
    return plain, spans


def test_offsets_agree_with_regex_reference(canonical_space):
    rng = random.Random(77)
    types = ["NAME", "CITY", "EMAIL", "IBAN", "DATE"]
    words = ["alpha", "bravo", "carrot", "delta", "ember"]
    for _ in range(300):
        pieces = []
        used = set()
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                pieces.append(rng.choice(words))
            else:
                typ = rng.choice(types)
                # fixed width so no value is a substring of another
                value = f"v{rng.randrange(10_000):04d}"
                if value in used:
                    continue
                used.add(value)
                pieces.append(f"<{typ}>{value}</{typ}>")
        raw = " ".join(pieces)
        plain, spans = parse_tagged_text(raw, canonical_space)
        ref_plain, ref_spans = _regex_reference_parse(raw)
        assert plain == ref_plain
        assert [(s.start, s.end, s.entity) for s in spans] == ref_spans
