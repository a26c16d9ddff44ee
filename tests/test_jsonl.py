import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piiprep.errors import RecordError
from piiprep.jsonl import decode_json_line, decode_located_line, iter_lines


def outcome(loads, text):
    """What loads(text) gives: the value (by repr, so NaN equals NaN and 1
    differs from 1.0 and True), or the exception's type, msg and pos."""
    try:
        return "value", repr(loads(text))
    except Exception as e:  # noqa: BLE001 - any exception must match too
        return "error", type(e), getattr(e, "msg", str(e)), getattr(e, "pos", None)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_lone_surrogates = st.integers(0xD800, 0xDFFF).map(lambda c: '"a\\u%04x"' % c)
_bodies = st.one_of(
    st.builds(
        lambda v, ascii_only, compact: json.dumps(
            v, ensure_ascii=ascii_only, separators=(",", ":") if compact else None
        ),
        _json_values, st.booleans(), st.booleans(),
    ),
    _lone_surrogates.map(lambda s: '{"id":%s,"labels":["O"]}' % s),
    _lone_surrogates,
    st.sampled_from(["NaN", "Infinity", "-Infinity", "[NaN]", '{"x":-Infinity}']),
)
_pads = st.sampled_from(["", "", "", " ", "\t", "  \t", "\ufeff", "\ufeff "])
_ends = st.sampled_from(["", "\n", "\r\n", " \n", "\n\n", "\r"])
_extras = st.sampled_from(["", "", "", "x", " 1", "{}", "]", ",", "\n{}"])
_lines = st.builds(lambda a, b, x, c, e: a + b + x + c + e,
                   _pads, _bodies, _extras, _pads, _ends)
_whitespace = st.text(alphabet=" \t\r\n\ufeff\x0b\x0c\u00a0", max_size=6)


class TestDecodeJsonLine:
    @settings(max_examples=1500, deadline=None)
    @given(text=st.one_of(_lines, _whitespace, st.text(), st.just("")))
    def test_same_outcome_as_json_loads(self, text):
        assert outcome(decode_json_line, text) == outcome(json.loads, text)

    @settings(max_examples=1000, deadline=None)
    @given(text=st.text(alphabet='{}[]":,0123456789.eE+-tfnrualsIiyNn \t\n\\u', max_size=24))
    def test_same_outcome_on_json_alphabet_noise(self, text):
        assert outcome(decode_json_line, text) == outcome(json.loads, text)

    @pytest.mark.parametrize(
        "text",
        ['{"a":1}', '{"a":1}\n', '{"a":1}\r\n', ' {"a":1}\n', '{"a":1} \n', "\ufeff{}",
         '{"a":1}{"b":2}\n', "", "\n", "  \t\n", "NaN\n", '"\\ud800"\n', "[1,\n"],
        ids=["bare", "lf", "crlf", "lead-space", "trail-space", "bom", "extra",
             "empty", "newline", "whitespace", "nan", "surrogate", "truncated"],
    )
    def test_worked_examples(self, text):
        assert outcome(decode_json_line, text) == outcome(json.loads, text)

    @pytest.mark.parametrize(
        "text, message",
        [("\n", "a.jsonl:3: blank line"),
         ("  \t\r\n", "a.jsonl:3: blank line"),
         ("[1,\n", "a.jsonl:3: malformed JSON: Expecting value")],
        ids=["newline", "whitespace", "truncated"],
    )
    def test_located_errors(self, text, message):
        with pytest.raises(RecordError) as info:
            decode_located_line(text, 3, "a.jsonl")
        assert str(info.value) == message


class TestIterLines:
    def test_numbers_offsets_and_text(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_bytes(b'{"a":1}\n\n\xc3\xa9\r\n{"z":2}')
        assert list(iter_lines(p)) == [
            (1, 0, '{"a":1}\n'),
            (2, 8, "\n"),
            (3, 9, "\u00e9\r\n"),
            (4, 13, '{"z":2}'),
        ]

    def test_starts_at_a_line_offset(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_bytes(b'{"a":1}\n\n\xc3\xa9\r\n{"z":2}')
        whole = list(iter_lines(p))
        for i, (lineno, offset, _) in enumerate(whole):
            assert list(iter_lines(p, offset, lineno)) == whole[i:]

    def test_stops_before_the_line_at_stop(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_bytes(b'{"a":1}\r\n\n\xc3\xa9\r\n{"b":2}\n{"z":3}')
        whole = list(iter_lines(p))
        offsets = [offset for _, offset, _ in whole] + [p.stat().st_size]
        for i, (lineno, start, _) in enumerate(whole):
            assert list(iter_lines(p, start, lineno, None)) == whole[i:]
            for j, stop in enumerate(offsets[i:], i):  # stop at start, a line start, the end
                assert list(iter_lines(p, start, lineno, stop)) == whole[i:j]

    def test_offset_reads_the_line_back(self, tmp_path):
        p = tmp_path / "a.jsonl"
        lines = [json.dumps({"id": f"r{i}", "t": "\u00e9" * i}, ensure_ascii=False)
                 for i in range(20)]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = p.read_bytes()
        for _, offset, text in iter_lines(p):
            raw = text.encode("utf-8")
            assert data[offset:offset + len(raw)] == raw

    def test_undecodable_line_is_located(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_bytes(b'{"a":1}\n\xff\n{"a":3}\n')
        lines = iter_lines(p)
        assert next(lines) == (1, 0, '{"a":1}\n')
        with pytest.raises(RecordError) as info:
            next(lines)
        assert str(info.value) == "a.jsonl:2: not valid UTF-8"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_bytes(b"")
        assert list(iter_lines(p)) == []
