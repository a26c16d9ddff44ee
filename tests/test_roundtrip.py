"""prepare never writes an artifact that validate, score or sample then rejects.

A derandomized, bounded property draws one to three sources in all three
formats, some missing, with faults (test_consolidate_split.source_lines) and
with lines of non-ASCII text, \\u-escaped or not, and draws the rest of the
config from the config fuzz's valid values (test_pipeline._VALID_FIELDS).
prepare either fails with a located message (exit 1), or naming a missing
source (exit 3), or writes splits that validate accepts with the manifest's
counts, that score, ordered and unordered, as a perfect prediction of
themselves, whose samples validate accepts, and that a second prepare writes
byte for byte again.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from piiprep.cli import main
from piiprep.scorer import finalize, stream_score
from test_consolidate_split import _IDS, _LABELS, source_lines
from test_pipeline import _ABSENT, _SPLIT_NAMES, _SPLIT_SHARES, _VALID_FIELDS

# Outside ASCII: two-byte, three-byte and astral (a surrogate pair when
# \u-escaped) characters, a no-break space, and a literal backslash-u.
_WIDE = ["Zoë", "東京", "😀", "a\u00a0b", "Ωmega", "\\u00e9"]
_TYPES = ["NAME", "PHONE", "CITY"]


@st.composite
def wide_line(draw, fmt: str) -> str:
    """A record line of fmt whose text is not all ASCII."""
    words = draw(st.lists(st.sampled_from(_WIDE), min_size=2, max_size=4))
    if fmt == "jsonl":
        labels = draw(st.lists(st.sampled_from(_LABELS), min_size=len(words),
                               max_size=len(words)))
        rid = draw(st.sampled_from([*_IDS, "é-1", "😀"]))
        return json.dumps({"id": rid, "tokens": words, "labels": labels, "source": "any"},
                          ensure_ascii=draw(st.booleans()))
    typ = draw(st.sampled_from(_TYPES))
    text = f"{words[0]} <{typ}>{' '.join(words[1:])}</{typ}> ok"
    if fmt == "xml":
        return text
    return json.dumps({"text": text}, ensure_ascii=draw(st.booleans()))


@st.composite
def roundtrip_cases(draw) -> tuple[list[tuple[str, bytes | None]], dict]:
    """(sources as (file name, bytes or None when missing), config mapping)."""
    names = draw(st.lists(st.sampled_from(["x", *_VALID_FIELDS["name"]]),
                          min_size=1, max_size=3, unique=True))
    sources, entries = [], []
    for i, name in enumerate(names):
        fmt = draw(st.sampled_from(["jsonl", "xml", "xml-jsonl"]))
        file = f"s{i}.{'xml' if fmt == 'xml' else 'jsonl'}"
        entries.append({"name": name, "path": file, "format": fmt})
        if draw(st.sampled_from([False] * 9 + [True])):  # a missing source
            sources.append((file, None))
            continue
        lines = draw(source_lines(fmt))
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(wide_line(fmt)))
        data = b"".join(line.encode("utf-8") + draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
                        for line in lines)
        if data and draw(st.booleans()):
            data = data.rstrip(b"\r\n")  # no final newline
        sources.append((file, data))
    splits = draw(st.lists(st.sampled_from(_SPLIT_NAMES), min_size=1, max_size=3, unique=True))
    config = {"sources": entries,
              "split_fractions": dict(zip(splits, _SPLIT_SHARES[len(splits)]))}
    for key in ("seed", "rare_label_threshold", "on_error", "unknown_types",
                "prepend_source_token", "taxonomy", "output_dir"):
        value = draw(st.sampled_from(_VALID_FIELDS[key]))
        if value is not _ABSENT:
            config[key] = value
    cap, fraction = (draw(st.sampled_from(_VALID_FIELDS[key])) for key in ("caps", "rebalance"))
    if cap is not _ABSENT:
        config["caps"] = {draw(st.sampled_from(names)): cap}
    if fraction is not _ABSENT:
        config["rebalance"] = {"source": draw(st.sampled_from(names)), "target_fraction": fraction}
    return sources, config


def invoke(*args: str):
    result = CliRunner().invoke(main, list(args))
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    return result


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(roundtrip_cases())
def test_prepare_writes_only_what_validate_score_and_sample_accept(case):
    sources, config = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file, data in sources:
            if data is not None:
                (root / file).write_bytes(data)
        cfg = root / "c.yaml"
        cfg.write_text(yaml.safe_dump(config, allow_unicode=True, sort_keys=False),
                       encoding="utf-8")
        prepared = invoke("prepare", "--config", str(cfg))
        if prepared.exit_code == 3:  # an I/O error: only a missing source's
            missing = [str(root / file) for file, data in sources if data is None]
            assert prepared.output in [f"Error: [Errno 2] No such file or directory: {m!r}\n"
                                       for m in missing]
            return
        if prepared.exit_code:
            assert prepared.exit_code == 1, prepared.output
            assert re.fullmatch(r"Error: s\d\.(jsonl|xml):\d+: .+\n", prepared.output), \
                prepared.output
            return
        out = root / config.get("output_dir", "out")
        for name in config["split_fractions"]:
            path = out / f"{name}.jsonl"
            manifest = json.loads(path.with_name(path.name + ".manifest.json").read_bytes())
            checked = invoke("validate", "--input", str(path))
            assert checked.exit_code == 0, checked.output
            summary = json.loads(checked.output)
            summary["per_source_records"] = summary.pop("sources")
            assert summary == {key: manifest[key] for key in summary}
            for unordered in (False, True):  # the split scored against itself
                scored = stream_score(path, path, unordered=unordered)
                report = finalize(scored.counters)
                assert scored.records == manifest["records"]
                assert sum(m.support for m in report.per_type.values()) == manifest["gold_spans"]
                assert report.micro_f1 == 1.0 or not manifest["gold_spans"]
            if manifest["records"]:
                subset = root / "subset.jsonl"
                drawn = invoke("sample", "--input", str(path), "--n",
                               str(min(3, manifest["records"])), "--out", str(subset))
                assert drawn.exit_code == 0, drawn.output
                checked = invoke("validate", "--input", str(subset))
                assert checked.exit_code == 0, checked.output
        again = invoke("prepare", "--config", str(cfg), "--out-dir", str(root / "again"))
        assert again.exit_code == 0, again.output
        for name in config["split_fractions"]:
            for file in (f"{name}.jsonl", f"{name}.jsonl.manifest.json"):
                assert (root / "again" / file).read_bytes() == (out / file).read_bytes()
