"""Reading line files: one binary reader and one exact, fast JSON decoder.

Artifacts, gold and prediction files and prepare's sources are all read
through iter_lines, and their JSON lines decoded through decode_located_line.
Files parsed whole (a config, a taxonomy, a results table, a score report)
are read through iter_lines too, so a byte that is not UTF-8 is reported the
same way everywhere. check_encodable rejects a decoded string that UTF-8
cannot encode. The module is kept apart from records so that scoring, which
reads its two files through it, does not load records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

from piiprep.errors import RecordError

__all__ = [
    "iter_lines", "read_text", "decode_json_line", "decode_located_line", "check_encodable",
]

_SCAN_ONCE = json.JSONDecoder().scan_once


def iter_lines(
    path: str | Path, start: int = 0, first_line: int = 1, stop: int | None = None
) -> Iterator[tuple[int, int, str]]:
    """Yield (line number, byte offset, text) for each line of a file.

    The file is read in binary and split after each newline byte (so a
    "\\r\\n" ending stays on the line). Each line, newline included, is
    decoded as UTF-8 on its own, so an undecodable line fails with its
    location instead of with the block it was read in. Reading starts at byte
    offset start, which must begin line first_line, and ends before the first
    line that starts at or after byte offset stop (None: at the end of the
    file); offsets and line numbers count from the start of the file.
    """
    path = Path(path)
    offset = start
    end = sys.maxsize if stop is None else stop
    with path.open("rb") as f:
        if start:
            f.seek(start)
        for lineno, raw in enumerate(f, first_line):
            if offset >= end:
                return
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise RecordError(f"{path.name}:{lineno}: not valid UTF-8") from None
            yield lineno, offset, text
            offset += len(raw)


def read_text(path: str | Path) -> str:
    """The whole text of a file, decoded line by line through iter_lines."""
    return "".join(text for _, _, text in iter_lines(path))


def decode_json_line(text: str):
    """Exactly json.loads(text), faster on a line holding one bare JSON value.

    The scanner is called directly when the value starts the line and ends
    it, or ends just before a final newline. Anything else (leading or
    trailing whitespace, a BOM, extra data, no value at all) goes through
    json.loads, so results and errors are json.loads's own.
    """
    try:
        obj, end = _SCAN_ONCE(text, 0)
    except StopIteration:
        return json.loads(text)
    n = len(text)
    if end == n or (end == n - 1 and text[end] == "\n"):
        return obj
    return json.loads(text)


def decode_located_line(text: str, lineno: int, name: str):
    """decode_json_line(text), failing with a RecordError located at name:lineno."""
    try:
        return decode_json_line(text)
    except json.JSONDecodeError as e:
        if not text.strip():
            raise RecordError(f"{name}:{lineno}: blank line") from None
        raise RecordError(f"{name}:{lineno}: malformed JSON: {e.msg}") from None
    except RecursionError:  # arrays and objects nested deeper than the decoder can go
        raise RecordError(f"{name}:{lineno}: malformed JSON: nested too deeply") from None


def check_encodable(named: Iterable[tuple[str, object]]) -> None:
    """Reject the first (name, value) whose string UTF-8 cannot encode.

    Only a JSON \\u escape can spell such a string, one holding a lone UTF-16
    surrogate ("\\ud800"), and it could not be written out. Non-strings pass.
    """
    for name, value in named:
        if not isinstance(value, str):
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError(f"{name} holds a lone UTF-16 surrogate: {value!r}") from None
