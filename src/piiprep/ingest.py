"""Inline-tagged text to tokenised BIO records.

Input texts annotate PII with bare inline tags, e.g.

    Call <PHONE>555-1234</PHONE> now

Tags carry no attributes and never nest. Parsing strips the tags, keeps the
untagged text byte-identical, and records each tagged region as a character
span. Spans are then projected onto whitespace tokens: every token whose
character interval overlaps a span by at least one character is marked, the
first with B- and the rest with I-.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

from piiprep.errors import SpanError, TagError
from piiprep.labelspace import LabelSpace
from piiprep.records import Record

__all__ = [
    "CharSpan",
    "parse_tagged_text",
    "char_spans_to_bio",
    "ingest_record",
]

# Anything that looks like markup. Candidates that are not exactly </?NAME>
# are rejected loudly rather than passed through, so attribute-carrying or
# otherwise mangled tags cannot silently corrupt offsets.
_CANDIDATE_RE = re.compile(r"<(/?)([A-Za-z][^<>]*)>")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")


class CharSpan(NamedTuple):
    """Half-open character interval [start, end) of one entity mention."""

    start: int
    end: int
    entity: str


def parse_tagged_text(
    raw: str,
    space: LabelSpace,
    *,
    unknown_types: str = "error",
) -> tuple[str, list[CharSpan]]:
    """Strip inline tags from raw text, returning plain text plus char spans.

    unknown_types selects what happens when a well-formed tag names a type
    outside the label space: "error" raises, "drop" keeps the tagged text but
    records no span.
    """
    if unknown_types not in ("error", "drop"):
        raise ValueError(f"unknown_types must be 'error' or 'drop', got {unknown_types!r}")
    pieces: list[str] = []
    spans: list[CharSpan] = []
    plain_len = 0
    open_type: str | None = None
    open_start = 0
    open_known = True
    pos = 0
    for m in _CANDIDATE_RE.finditer(raw):
        closing, name = m.group(1), m.group(2)
        if not _NAME_RE.match(name):
            raise TagError(f"malformed tag {m.group(0)!r} at offset {m.start()}")
        literal = raw[pos : m.start()]
        pieces.append(literal)
        plain_len += len(literal)
        pos = m.end()
        entity = name.upper()
        if not closing:
            if open_type is not None:
                raise TagError(
                    f"nested tag <{entity}> inside <{open_type}> at offset {m.start()}"
                )
            known = entity in space
            if not known and unknown_types == "error":
                raise TagError(f"unknown entity type in tag <{entity}> at offset {m.start()}")
            open_type = entity
            open_start = plain_len
            open_known = known
        else:
            if open_type is None:
                raise TagError(f"closing tag </{entity}> without an open tag at offset {m.start()}")
            if entity != open_type:
                raise TagError(
                    f"mismatched closing tag </{entity}> for <{open_type}> at offset {m.start()}"
                )
            if plain_len == open_start:
                raise TagError(f"empty tagged region <{entity}></{entity}>")
            if open_known:
                spans.append(CharSpan(open_start, plain_len, open_type))
            open_type = None
    if open_type is not None:
        raise TagError(f"unclosed tag <{open_type}>")
    pieces.append(raw[pos:])
    return "".join(pieces), spans


def char_spans_to_bio(
    text: str,
    spans: Sequence[CharSpan],
) -> tuple[list[str], list[str]]:
    """Project character spans onto whitespace tokens as BIO labels.

    A token is part of a span when their character intervals overlap by at
    least one character, so partially tagged tokens are still marked. Tokens
    are disjoint and in text order, so those overlapping [start, end) are the
    ones after the last token ending at or before start and before the first
    token starting at or after end; bisection finds both.
    """
    matches = list(_TOKEN_RE.finditer(text))  # Unicode whitespace runs split tokens
    starts = [m.start() for m in matches]
    ends = [m.end() for m in matches]
    labels = ["O"] * len(matches)
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.end > cur.start:
            raise SpanError(f"overlapping spans: {prev} and {cur}")
    for span in ordered:
        if not (0 <= span.start < span.end <= len(text)):
            raise SpanError(f"span {span} does not fit text of length {len(text)}")
        hit = range(bisect_right(ends, span.start), bisect_left(starts, span.end))
        if not hit:
            raise SpanError(f"span {span} covers no token (whitespace-only region)")
        for j, i in enumerate(hit):
            if labels[i] != "O":
                raise SpanError(f"span {span} conflicts with another span on token {i}")
            labels[i] = ("B-" if j == 0 else "I-") + span.entity
    return [m.group() for m in matches], labels


def ingest_record(
    raw: str,
    source: str,
    space: LabelSpace,
    record_id: str,
    *,
    unknown_types: str = "error",
) -> Record | None:
    """Turn one line of tagged text into a Record.

    Returns None when the line carries no entity span after parsing; such
    lines are dropped from the corpus rather than emitted as all-O records.
    """
    plain, spans = parse_tagged_text(raw, space, unknown_types=unknown_types)
    if not spans:
        return None
    tokens, labels = char_spans_to_bio(plain, spans)
    if not tokens:
        return None
    return Record(id=record_id, tokens=tokens, labels=labels, source=source)
