import hashlib
import importlib
import json
import logging
import os
import random
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from piiprep import idindex, workers
from piiprep.cli import main
from piiprep.errors import AllocationError, ConfigError, RecordError
from piiprep.fixtures import canonical_space, taxonomy_path
from piiprep.pipeline import (
    PipelineConfig,
    SourceSpec,
    cap_source,
    consolidate,
    filter_rare_labels,
    prepend_source_token,
    rebalance_source,
    run_prepare,
    sample_groups,
    stratified_split,
    sub_rng,
)
from piiprep.records import EncodedRecord, Record, read_records, record_to_line
from piiprep.scorer import finalize, stream_score
from piiprep.workers import Spill
from test_scorer import COLLIDING_HASHES

REPO = Path(__file__).resolve().parent.parent


def mk(i: int, source: str, typ: str | None = "NAME") -> Record:
    """Tiny three-token record with one optional leading span."""
    labels = ["B-" + typ, "O", "O"] if typ else ["O", "O", "O"]
    return Record(id=f"{source}-{i:05d}", tokens=["a", "b", "c"], labels=labels, source=source)


SPILL = Spill.temporary()  # where every EncodedRecord built here keeps its line


def encoded(records: list[Record]) -> list[EncodedRecord]:
    return [EncodedRecord(r, SPILL) for r in records]


def corpus(spec: dict[str, int], types: list[str] | None = None) -> list[Record]:
    types = types or ["NAME"]
    out = []
    for source, n in spec.items():
        out.extend(mk(i, source, types[i % len(types)]) for i in range(n))
    return out


class TestSubRng:
    def test_reproducible(self):
        a = sub_rng(42, "cap", "src").random()
        b = sub_rng(42, "cap", "src").random()
        assert a == b

    def test_operation_and_source_decorrelate(self):
        streams = {
            sub_rng(42, "cap", "src").random(),
            sub_rng(42, "rebalance", "src").random(),
            sub_rng(42, "cap", "other").random(),
            sub_rng(7, "cap", "src").random(),
        }
        assert len(streams) == 4


class TestRebalanceSource:
    def test_exact_target_share(self):
        records = corpus({"big": 900, "noisy": 300})
        out = rebalance_source(records, "noisy", 0.10, seed=1)
        kept = [r for r in out if r.source == "noisy"]
        # k / (900 + k) = 0.10  =>  k = 100
        assert len(kept) == 100
        assert len(out) == 1000

    def test_share_actually_achieved(self):
        records = corpus({"big": 900, "noisy": 300})
        out = rebalance_source(records, "noisy", 0.10, seed=1)
        share = Fraction(sum(r.source == "noisy" for r in out), len(out))
        assert share == Fraction(1, 10)

    def test_source_already_small_enough_is_untouched(self, caplog):
        records = corpus({"big": 990, "noisy": 10})
        with caplog.at_level(logging.WARNING):
            out = rebalance_source(records, "noisy", 0.10, seed=1)
        assert [r.id for r in out] == [r.id for r in records]
        assert any("keeping all" in m for m in caplog.messages)

    def test_absent_source_warns_and_returns_stream(self, caplog):
        records = corpus({"big": 10})
        with caplog.at_level(logging.WARNING):
            out = rebalance_source(records, "ghost", 0.10, seed=1)
        assert [r.id for r in out] == [r.id for r in records]
        assert any("absent" in m for m in caplog.messages)

    def test_order_of_survivors_is_stream_order(self):
        records = corpus({"big": 90, "noisy": 30})
        out = rebalance_source(records, "noisy", 0.10, seed=3)
        ids = [r.id for r in out]
        assert ids == sorted(ids, key=[r.id for r in records].index)

    def test_type_mix_survives(self):
        # noisy source: 200 NAME + 100 IBAN records; keep ratio must hold
        records = corpus({"big": 2700}) + [
            mk(i, "noisy", "NAME" if i < 200 else "IBAN") for i in range(300)
        ]
        out = rebalance_source(records, "noisy", 0.10, seed=5)
        kept = [r for r in out if r.source == "noisy"]
        assert len(kept) == 300
        names = sum(r.labels[0] == "B-NAME" for r in kept)
        ibans = sum(r.labels[0] == "B-IBAN" for r in kept)
        assert (names, ibans) == (200, 100)

    def test_deterministic_for_fixed_seed(self):
        records = corpus({"big": 900, "noisy": 300})
        a = rebalance_source(records, "noisy", 0.10, seed=11)
        b = rebalance_source(records, "noisy", 0.10, seed=11)
        assert [r.id for r in a] == [r.id for r in b]

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            rebalance_source(corpus({"a": 3}), "a", 1.0, seed=0)


class TestCapSource:
    def test_cap_binds_exactly(self):
        records = corpus({"big": 50, "huge": 200})
        out = cap_source(records, "huge", 150, seed=1)
        assert sum(r.source == "huge" for r in out) == 150
        assert sum(r.source == "big" for r in out) == 50

    def test_under_cap_is_identity(self):
        records = corpus({"a": 10})
        out = cap_source(records, "a", 10, seed=1)
        assert [r.id for r in out] == [r.id for r in records]

    def test_survivors_keep_stream_order_and_identity(self):
        records = corpus({"x": 40})
        out = cap_source(records, "x", 7, seed=2)
        ids = [r.id for r in out]
        assert len(ids) == 7
        assert ids == sorted(ids)  # generated ids are ordered in the stream
        assert set(ids) <= {r.id for r in records}

    def test_seed_changes_selection(self):
        records = corpus({"x": 60})
        a = cap_source(records, "x", 20, seed=1)
        b = cap_source(records, "x", 20, seed=2)
        assert [r.id for r in a] != [r.id for r in b]

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigError):
            cap_source(corpus({"a": 3}), "a", -1, seed=0)


class TestFilterRareLabels:
    def test_strictly_below_threshold_removed(self):
        records = [mk(i, "s", "NAME") for i in range(5)] + [mk(9, "s", "IBAN")]
        out, removed = filter_rare_labels(encoded(records), 5)
        assert removed == ["IBAN"]
        assert all("B-IBAN" not in r.record().labels for r in out)

    def test_exactly_at_threshold_survives(self):
        records = [mk(i, "s", "NAME") for i in range(5)]
        out, removed = filter_rare_labels(encoded(records), 5)
        assert removed == []

    def test_no_records_dropped_and_tokens_untouched(self):
        records = [mk(0, "s", "IBAN")]
        out, removed = filter_rare_labels(encoded(records), 10)
        assert removed == ["IBAN"]
        assert len(out) == 1
        assert out[0].record().labels == ["O", "O", "O"]
        assert out[0].record().tokens == records[0].tokens

    def test_continuation_labels_removed_too(self):
        rec = Record(
            id="x", tokens=["a", "b", "c"],
            labels=["B-IBAN", "I-IBAN", "O"], source="s",
        )
        out, removed = filter_rare_labels(encoded([rec]), 2)
        assert out[0].record().labels == ["O", "O", "O"]

    def test_inputs_not_mutated(self):
        enc = EncodedRecord(mk(0, "s", "IBAN"), SPILL)
        before = (enc.line, enc.stratum, enc.summary)
        filter_rare_labels([enc], 10)
        assert (enc.line, enc.stratum, enc.summary) == before

    def test_only_records_with_rare_labels_are_rebuilt(self):
        records = encoded([mk(i, "s", "NAME") for i in range(3)] + [mk(9, "s", "IBAN")])
        out, removed = filter_rare_labels(records, 2)
        assert removed == ["IBAN"]
        assert all(o is r for o, r in zip(out[:3], records[:3]))
        assert out[3] is not records[3]
        assert out[3].record().labels == ["O", "O", "O"]
        assert out[3].line == EncodedRecord(mk(9, "s", None), SPILL).line

    def test_zero_threshold_is_a_no_op(self):
        records = encoded([mk(0, "s", "IBAN")])
        out, removed = filter_rare_labels(records, 0)
        assert removed == []
        assert out[0].line == records[0].line


class TestStratifiedSplit:
    def test_per_source_proportions(self):
        records = corpus({"a": 100, "b": 50})
        splits = stratified_split(records, {"train": 0.8, "val": 0.1, "test": 0.1}, seed=4)
        for name, expect_a, expect_b in [("train", 80, 40), ("val", 10, 5), ("test", 10, 5)]:
            got_a = sum(r.source == "a" for r in splits[name])
            got_b = sum(r.source == "b" for r in splits[name])
            assert (got_a, got_b) == (expect_a, expect_b)

    def test_partition_is_exact(self):
        records = corpus({"a": 33, "b": 14})
        splits = stratified_split(records, {"train": 0.8, "val": 0.1, "test": 0.1}, seed=4)
        all_ids = [r.id for part in splits.values() for r in part]
        assert sorted(all_ids) == sorted(r.id for r in records)
        assert len(set(all_ids)) == len(all_ids)

    def test_deterministic(self):
        records = corpus({"a": 40, "b": 25})
        s1 = stratified_split(records, {"train": 0.8, "val": 0.1, "test": 0.1}, seed=9)
        s2 = stratified_split(records, {"train": 0.8, "val": 0.1, "test": 0.1}, seed=9)
        assert {k: [r.id for r in v] for k, v in s1.items()} == {
            k: [r.id for r in v] for k, v in s2.items()
        }

    def test_source_order_does_not_leak_across_seeds(self):
        records = corpus({"a": 40, "b": 25})
        s1 = stratified_split(records, {"train": 0.8, "val": 0.1, "test": 0.1}, seed=9)
        s2 = stratified_split(records, {"train": 0.8, "val": 0.1, "test": 0.1}, seed=10)
        assert [r.id for r in s1["train"]] != [r.id for r in s2["train"]]


class TestSampleSubset:
    """sample_groups draws a source-proportional subset of records grouped by source."""

    @staticmethod
    def sample(records: list[Record], n: int, seed: int) -> list[Record]:
        groups: dict[str, list[Record]] = {}
        for rec in records:
            groups.setdefault(rec.source, []).append(rec)
        return sample_groups(groups, n, seed)

    def test_source_proportional(self):
        records = corpus({"a": 80, "b": 20})
        out = self.sample(records, 10, seed=0)
        assert sum(r.source == "a" for r in out) == 8
        assert sum(r.source == "b" for r in out) == 2

    def test_preserves_stream_order_within_source(self):
        records = corpus({"a": 50})
        out = self.sample(records, 9, seed=1)
        ids = [r.id for r in out]
        assert ids == sorted(ids)

    def test_n_above_total_rejected(self):
        with pytest.raises(AllocationError):
            self.sample(corpus({"a": 4}), 5, seed=0)

    def test_n_equal_total_returns_everything(self):
        records = corpus({"a": 4, "b": 2})
        out = self.sample(records, 6, seed=0)
        assert sorted(r.id for r in out) == sorted(r.id for r in records)

    def test_seed_sensitivity(self):
        records = corpus({"a": 60})
        assert [r.id for r in self.sample(records, 12, seed=1)] != [
            r.id for r in self.sample(records, 12, seed=2)
        ]


class TestPrependSourceToken:
    def test_known_source_tagged_by_name(self):
        out = prepend_source_token(mk(0, "wiki"))
        assert out.tokens[0] == "[SRC=wiki]"
        assert out.labels[0] == "O"
        assert out.labels[1:] == mk(0, "wiki").labels

    def test_originals_untouched(self):
        rec = mk(0, "wiki")
        prepend_source_token(rec)
        assert len(rec.tokens) == 3


def write_config(tmp_path: Path, body: str) -> Path:
    p = tmp_path / "config.yaml"
    p.write_text(body, encoding="utf-8")
    return p


def write_jsonl_source(path: Path, records: list[Record]) -> None:
    with path.open("w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps({
                "id": r.id, "tokens": r.tokens, "labels": r.labels, "source": r.source,
            }) + "\n")


class TestPipelineConfig:
    def test_minimal_file(self, tmp_path):
        (tmp_path / "src.jsonl").write_text("", encoding="utf-8")
        cfg = PipelineConfig.from_file(write_config(tmp_path, (
            "sources:\n"
            "  - name: a\n"
            "    path: src.jsonl\n"
        )))
        assert cfg.sources[0].path == tmp_path / "src.jsonl"
        assert cfg.seed == 0
        assert cfg.rare_label_threshold == 100

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            PipelineConfig.from_file(write_config(tmp_path, (
                "sources: [{name: a, path: x.jsonl}]\n"
                "tpyo: 1\n"
            )))

    def test_bad_split_sum_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sum to 1"):
            PipelineConfig.from_file(write_config(tmp_path, (
                "sources: [{name: a, path: x.jsonl}]\n"
                "split_fractions: {train: 0.8, test: 0.1}\n"
            )))

    def test_cap_for_undeclared_source_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="undeclared"):
            PipelineConfig.from_file(write_config(tmp_path, (
                "sources: [{name: a, path: x.jsonl}]\n"
                "caps: {ghost: 5}\n"
            )))

    def test_rebalance_needs_both_fields(self, tmp_path):
        with pytest.raises(ConfigError, match="rebalance"):
            PipelineConfig.from_file(write_config(tmp_path, (
                "sources: [{name: a, path: x.jsonl}]\n"
                "rebalance: {source: a}\n"
            )))

    def test_digest_ignores_location_but_not_settings(self, tmp_path):
        body = (
            "sources: [{name: a, path: x.jsonl}]\n"
            "seed: 3\n"
        )
        d1 = PipelineConfig.from_file(write_config(tmp_path, body)).digest()
        sub = tmp_path / "deeper"
        sub.mkdir()
        d2 = PipelineConfig.from_file(write_config(sub, body)).digest()
        assert d1 == d2
        d3 = PipelineConfig.from_file(write_config(tmp_path, body.replace("seed: 3", "seed: 4"))).digest()
        assert d1 != d3


# Digests computed before the config reader was rewritten to check in one
# pass. Every manifest carries its config's digest, so these must not move.
_SOURCES = "sources:\n  - {name: a, path: a.jsonl}\n  - {name: b, path: b.xml, format: xml}\n"


@pytest.mark.parametrize("body, digest", [
    (None, "52ca75fc5f77b03542d534b301c537540f54e71d05cfd1f2b765aaeb75c48008"),
    (_SOURCES, "149c55330c44856f117e2ce3345dfcfbc940e8588ce4828a806e91fe7f173c69"),
    (_SOURCES + "rebalance: {source: b, target_fraction: 0}\n",
     "cc5c65ca3e20b5f40ab60fd96657fceaca571c10ce0d20d07fedb9b48495ad75"),
    (_SOURCES + "caps: {a: 10, b: 0}\nseed: 7\n",
     "f6281db1f99050fb69d7fd4b76dcc940c79d3f21a032090c1d562f8cf6e59b00"),
    (_SOURCES + "taxonomy: tax/custom.tsv\nunknown_types: drop\non_error: log\n",
     "49d334cf862c7ef1b4c770e8932fa0ea6d5a052a68051585ce9ad95b0c053c1b"),
    (_SOURCES + "prepend_source_token: true\nrare_label_threshold: 0\n",
     "9e2872cddd9e7e1138b8331bf6b051e58b16c5675a4ed11625d66e2d47989d69"),
    (_SOURCES + "split_fractions: {train: 1, test: 0}\n",
     "0b1070c346b694532b02068e501324e63d4de16d2b5ad36dfd5fd94ef926b7c0"),
], ids=["demo", "defaults", "rebalance-int-zero", "caps-no-rebalance", "taxonomy",
        "prepend", "int-fractions"])
def test_config_digest_is_pinned(tmp_path, body, digest):
    path = REPO / "demo" / "config.yaml" if body is None else write_config(tmp_path, body)
    assert PipelineConfig.from_file(path).digest() == digest


# _SOURCES, then a change to each config key but output_dir, and to each part
# of a source and of rebalance. Listed here, not read from the config reader,
# so that a key the digest leaves out shows as two equal digests.
_DIGEST_VARIANTS = [
    _SOURCES,
    _SOURCES.replace("name: a", "name: c"),
    _SOURCES.replace("path: a.jsonl", "path: c.jsonl"),
    _SOURCES.replace("format: xml", "format: xml-jsonl"),
    _SOURCES + "seed: 1\n",
    _SOURCES + "split_fractions: {train: 0.5, test: 0.5}\n",
    _SOURCES + "split_fractions: {train: 0.5, dev: 0.5}\n",
    _SOURCES + "rebalance: {source: a, target_fraction: 0.5}\n",
    _SOURCES + "rebalance: {source: b, target_fraction: 0.5}\n",
    _SOURCES + "rebalance: {source: a, target_fraction: 0.25}\n",
    _SOURCES + "caps: {a: 1}\n",
    _SOURCES + "caps: {a: 2}\n",
    _SOURCES + "caps: {b: 1}\n",
    _SOURCES + "rare_label_threshold: 5\n",
    _SOURCES + "on_error: skip\n",
    _SOURCES + "unknown_types: drop\n",
    _SOURCES + "prepend_source_token: true\n",
    _SOURCES + "taxonomy: t.tsv\n",
    _SOURCES + "taxonomy: u.tsv\n",
]


def test_config_digest_covers_every_key_but_output_dir(tmp_path):
    digests = [PipelineConfig.from_file(write_config(tmp_path, body)).digest()
               for body in _DIGEST_VARIANTS]
    assert len(set(digests)) == len(digests)
    moved = PipelineConfig.from_file(write_config(tmp_path, _SOURCES + "output_dir: elsewhere\n"))
    assert moved.digest() == digests[0]


def test_sources_only_file_loads_the_constructor_defaults(tmp_path):
    loaded = PipelineConfig.from_file(write_config(tmp_path, _SOURCES))
    built = PipelineConfig(sources=[SourceSpec("a", tmp_path / "a.jsonl"),
                                    SourceSpec("b", tmp_path / "b.xml", "xml")],
                           output_dir=tmp_path / "out")  # a file's output_dir resolves against it
    assert loaded == built
    assert loaded.digest() == built.digest()


# The config fuzz below draws a valid config field by field, then half the
# time applies one of these overrides, each of which the config rules reject.
_ABSENT = object()
_VALID_FIELDS = {
    "name": ["s", "1", "a/b", "/", " ", "é"],
    "path": ["src.jsonl"],
    "format": [_ABSENT, None, "jsonl", "xml"],
    "seed": [_ABSENT, None, 0, 7],
    "rare_label_threshold": [_ABSENT, 0, 2],
    "on_error": [_ABSENT, "fail", "skip", "log"],
    "unknown_types": [_ABSENT, "error", "drop"],
    "prepend_source_token": [_ABSENT, True, False],
    "taxonomy": [_ABSENT, None],
    "output_dir": [_ABSENT, "out", "o/u t", "", "é"],
    "caps": [_ABSENT, 0, 3],  # the cap of the one source
    "rebalance": [_ABSENT, 0.5],  # the one source's target fraction
}
_SPLIT_NAMES = ["train", "val", "test", "é", ".x", "a b"]
_SPLIT_SHARES = {1: [1], 2: [0.5, 0.5], 3: [0.8, 0.1, 0.1]}
_NO_STRINGS = ["", "a\x00", "\ud800"]  # no name or path may be one of these
_REJECTED = [
    *({"name": v} for v in [*_NO_STRINGS, 1, None]),
    *({"path": v} for v in [*_NO_STRINGS, "\ud800.jsonl", 5]),
    *({"format": v} for v in ["XML", 5, "\ud800"]),
    {"entry": {"fromat": "xml"}}, {"entry": {1: 1}}, {"entry": {"\ud800": 1}},
    {"sources": []}, {"sources": "s"}, {"sources": [{"name": "s"}]},
    {"seed": "1"}, {"seed": 1.5}, {"seed": True},
    {"rare_label_threshold": -1}, {"rare_label_threshold": "1"},
    {"on_error": "FAIL"}, {"on_error": "\ud800"}, {"unknown_types": "keep"},
    {"prepend_source_token": "false"},
    *({"taxonomy": v} for v in [*_NO_STRINGS, 5]),
    *({"output_dir": v} for v in ["a\x00", "\ud800", 5, ["out"]]),
    *({"split_fractions": {v: 1}} for v in [*_NO_STRINGS, "/", "a/b", 1]),
    {"split_fractions": {}}, {"split_fractions": {"train": 1.5, "val": -0.5}},
    {"split_fractions": {"train": "1"}},
    {"name": "1", "caps": {1: 1}},  # read as the source "1" if keys were coerced
    {"caps": {"ghost": 1}}, {"caps": -1}, {"caps": "1"}, {"caps": {"\ud800": 1}},
    {"rebalance": 1}, {"rebalance": {"source": "ghost", "target_fraction": 0.5}},
    {"extra": {"tpyo": 1}}, {"extra": {1: "x"}}, {"extra": {"a\x00": 1}},
]


@st.composite
def _fuzzed_config(draw) -> tuple[dict, bool]:
    """A config mapping, and whether the config rules reject it."""
    f = {key: draw(st.sampled_from(values)) for key, values in _VALID_FIELDS.items()}
    splits = draw(st.lists(st.sampled_from(_SPLIT_NAMES), min_size=1, max_size=3, unique=True))
    f.update(entry={}, extra={}, split_fractions=dict(zip(splits, _SPLIT_SHARES[len(splits)])))
    rejected = draw(st.one_of(st.none(), st.sampled_from(_REJECTED)))
    f.update(rejected or {})
    entry = {"name": f["name"], "path": f["path"], **f["entry"]}
    if f["format"] is not _ABSENT:
        entry["format"] = f["format"]
    data = {"sources": f.get("sources", [entry]), "split_fractions": f["split_fractions"]}
    for key in ("seed", "rare_label_threshold", "on_error", "unknown_types",
                "prepend_source_token", "taxonomy", "output_dir"):
        if f[key] is not _ABSENT:
            data[key] = f[key]
    if f["caps"] is not _ABSENT:
        data["caps"] = f["caps"] if isinstance(f["caps"], dict) else {f["name"]: f["caps"]}
    if isinstance(f["rebalance"], float):
        data["rebalance"] = {"source": f["name"], "target_fraction": f["rebalance"]}
    elif f["rebalance"] is not _ABSENT:
        data["rebalance"] = f["rebalance"]
    data.update(f["extra"])
    return data, rejected is not None


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_fuzzed_config())
def test_config_fuzz_loads_only_what_prepare_can_write(case):
    """A config either fails as a located ConfigError before any source is read,
    or loads, and then prepare writes only splits that validate accepts, that
    score, ordered and unordered, as a perfect prediction of themselves, and
    whose samples validate accepts; a second run writes the same bytes."""
    data, rejected = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_jsonl_source(root / "src.jsonl", corpus({"x": 12}, ["NAME", "EMAIL", "CITY"]))
        cfg = root / "c.yaml"
        cfg.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
        try:
            config = PipelineConfig.from_file(cfg)
        except ConfigError as e:
            assert str(e).startswith("c.yaml: ")
            assert rejected, f"a valid config was rejected: {e}"
            return
        assert not rejected, f"an invalid config loaded: {data!r}"
        result = run_prepare(config)
        assert sorted(result.split_paths) == sorted(config.split_fractions)
        for name, path in result.split_paths.items():
            check = CliRunner().invoke(main, ["validate", "--input", str(path)])
            assert check.exit_code == 0, check.output
            manifest = result.manifests[name]
            if manifest.records:
                subset = root / "subset.jsonl"
                drawn = CliRunner().invoke(main, [
                    "sample", "--input", str(path), "--n", str(min(3, manifest.records)),
                    "--out", str(subset)])
                assert drawn.exit_code == 0, drawn.output
                check = CliRunner().invoke(main, ["validate", "--input", str(subset)])
                assert check.exit_code == 0, check.output
            for unordered in (False, True):  # a split scored against itself
                scored = stream_score(path, path, unordered=unordered)
                report = finalize(scored.counters)
                assert scored.records == manifest.records
                assert sum(m.support for m in report.per_type.values()) == manifest.gold_spans
                assert report.micro_f1 == 1.0 or not manifest.gold_spans

        def written(result) -> list[bytes]:
            return [p.with_name(p.name + suffix).read_bytes()
                    for p in result.split_paths.values() for suffix in ("", ".manifest.json")]

        config.output_dir = root / "again"
        assert written(run_prepare(config)) == written(result)


class TestConsolidate:
    def make_config(self, tmp_path, **kw) -> PipelineConfig:
        defaults = dict(sources=[], seed=0, output_dir=tmp_path / "out")
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_jsonl_source_is_stamped(self, tmp_path):
        p = tmp_path / "a.jsonl"
        write_jsonl_source(p, [
            Record(id="r1", tokens=["x"], labels=["B-NAME"], source="whatever"),
        ])
        cfg = self.make_config(tmp_path, sources=[SourceSpec("mysrc", p)])
        records, report = consolidate(cfg, canonical_space())
        assert records[0].source == "mysrc"
        assert report["mysrc"] == {"kept": 1, "dropped": 0, "errors": 0}

    def test_xml_source_drops_span_free_lines(self, tmp_path):
        p = tmp_path / "b.xml"
        p.write_text(
            "Call <PHONE>123</PHONE> now\n"
            "nothing tagged here\n"
            "\n"
            "<NAME>Ana</NAME> rang\n",
            encoding="utf-8",
        )
        cfg = self.make_config(tmp_path, sources=[SourceSpec("tagged", p, "xml")])
        records, report = consolidate(cfg, canonical_space())
        assert [r.record().id for r in records] == ["tagged-000001", "tagged-000004"]
        assert report["tagged"] == {"kept": 2, "dropped": 1, "errors": 0}

    def test_xml_jsonl_source(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            json.dumps({"text": "Ring <PHONE>42</PHONE>"}) + "\n",
            encoding="utf-8",
        )
        cfg = self.make_config(tmp_path, sources=[SourceSpec("wrapped", p, "xml-jsonl")])
        records, _ = consolidate(cfg, canonical_space())
        assert records[0].record().labels == ["O", "B-PHONE"]

    def test_xml_jsonl_malformed_line_is_located(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "Ring <PHONE>42</PHONE>"}\n{"text": \n', encoding="utf-8")
        cfg = self.make_config(tmp_path, sources=[SourceSpec("wrapped", p, "xml-jsonl")])
        with pytest.raises(RecordError) as info:
            consolidate(cfg, canonical_space())
        assert str(info.value) == "c.jsonl:2: malformed JSON: Expecting value"

    @pytest.mark.parametrize(
        "fmt, lines",
        [
            ("jsonl", ['{"id":"r1","tokens":["x","y"],"labels":["B-NAME","O"],"source":"s"}']),
            ("xml", ["Call <PHONE>123</PHONE>", "", "  <NAME>Ana</NAME> rang  "]),
            ("xml-jsonl", ['{"text":"Ring <PHONE>42</PHONE>"}', '{"text":"<NAME>Bo</NAME>"}']),
        ],
        ids=["jsonl", "xml", "xml-jsonl"],
    )
    def test_crlf_source_reads_like_lf(self, tmp_path, fmt, lines):
        read = {}
        for ending in ("\n", "\r\n"):
            p = tmp_path / f"{len(ending)}.src"
            p.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
            cfg = self.make_config(tmp_path, sources=[SourceSpec("s", p, fmt)])
            records, report = consolidate(cfg, canonical_space())
            read[ending] = [r.line for r in records], report
        assert read["\r\n"] == read["\n"]
        assert read["\n"][0]

    def test_on_error_fail_raises(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json\n", encoding="utf-8")
        cfg = self.make_config(tmp_path, sources=[SourceSpec("s", p)], on_error="fail")
        with pytest.raises(RecordError, match="bad.jsonl:1"):
            consolidate(cfg, canonical_space())

    def test_on_error_skip_counts(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_jsonl_source(p, [Record(id="ok", tokens=["x"], labels=["B-NAME"], source="s")])
        with p.open("a", encoding="utf-8") as f:
            f.write("not json\n")
        cfg = self.make_config(tmp_path, sources=[SourceSpec("s", p)], on_error="skip")
        records, report = consolidate(cfg, canonical_space())
        assert len(records) == 1
        assert report["s"]["errors"] == 1

    def test_on_error_log_warns(self, tmp_path, caplog):
        p = tmp_path / "bad.xml"
        p.write_text("<NAME>Ana\n", encoding="utf-8")  # unclosed
        cfg = self.make_config(tmp_path, sources=[SourceSpec("s", p, "xml")], on_error="log")
        with caplog.at_level(logging.WARNING):
            records, report = consolidate(cfg, canonical_space())
        assert report["s"]["errors"] == 1
        assert any("unclosed" in m for m in caplog.messages)

    @pytest.mark.parametrize("policy", ["skip", "log"])
    def test_duplicate_id_across_sources_counted_as_error(self, tmp_path, policy):
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p, src in ((pa, "a"), (pb, "b")):
            write_jsonl_source(p, [
                Record(id=f"r{i}", tokens=["x"], labels=["B-NAME"], source=src)
                for i in range(20)
            ])
        cfg = self.make_config(
            tmp_path, sources=[SourceSpec("a", pa), SourceSpec("b", pb)], on_error=policy
        )
        records, report = consolidate(cfg, canonical_space())
        assert [r.source for r in records] == ["a"] * 20
        assert report["b"] == {"kept": 0, "dropped": 0, "errors": 20}

    def test_declaration_order_defines_stream_order(self, tmp_path):
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl_source(pa, [Record(id="a1", tokens=["x"], labels=["B-NAME"], source="a")])
        write_jsonl_source(pb, [Record(id="b1", tokens=["x"], labels=["B-NAME"], source="b")])
        cfg = self.make_config(
            tmp_path, sources=[SourceSpec("b", pb), SourceSpec("a", pa)]
        )
        records, _ = consolidate(cfg, canonical_space())
        assert [r.source for r in records] == ["b", "a"]


class TestConsolidateIdCollisions:
    """consolidate drops, counts and reports the same repeated ids however ids collide."""

    @staticmethod
    def sources(tmp_path: Path) -> list[SourceSpec]:
        def line(rid):
            return record_to_line(Record(id=rid, tokens=["x"], labels=["B-NAME"], source="s"))

        a, b, c = tmp_path / "a.jsonl", tmp_path / "b.xml", tmp_path / "c.jsonl"
        a.write_text("".join([*map(line, ["r0", "r1", "r2", "r1"]), "not json\n",
                              *map(line, ["r3", "r0"])]), encoding="utf-8")
        b.write_text("Call <PHONE>1</PHONE>\nCall <PHONE>2</PHONE>\n", encoding="utf-8")
        c.write_text("".join(map(line, ["r2", "r9", "r9"])), encoding="utf-8")
        return [SourceSpec("a", a), SourceSpec("b", b, "xml"), SourceSpec("c", c)]

    EXPECTED = {
        "fail": "a.jsonl:4: duplicate record id 'r1'",
        "skip": (
            ["r0", "r1", "r2", "r3", "b-000001", "b-000002", "r9"],
            {"a": {"kept": 4, "dropped": 0, "errors": 3},
             "b": {"kept": 2, "dropped": 0, "errors": 0},
             "c": {"kept": 1, "dropped": 0, "errors": 2}},
            [],
        ),
    }
    # Under log, repeated ids are warned of after the pass, in stream order.
    EXPECTED["log"] = (*EXPECTED["skip"][:2], [
        "skipping a.jsonl:5: malformed JSON: Expecting value",
        "skipping a.jsonl:4: duplicate record id 'r1'",
        "skipping a.jsonl:7: duplicate record id 'r0'",
        "skipping c.jsonl:1: duplicate record id 'r2'",
        "skipping c.jsonl:3: duplicate record id 'r9'",
    ])

    @pytest.mark.parametrize("policy", ["fail", "skip", "log"])
    def test_outcomes_match_the_real_hash(self, tmp_path, monkeypatch, caplog, policy):
        # Each outcome is taken serial and split into three ranges, which
        # must agree.
        cfg = PipelineConfig(sources=self.sources(tmp_path), on_error=policy)
        outcomes = {}
        for name, id_hash in {"real": idindex._id_hash, **COLLIDING_HASHES}.items():
            runs = []
            for cpus in (1, 3):
                caplog.clear()
                with monkeypatch.context() as m, caplog.at_level(logging.WARNING):
                    m.setattr(idindex, "_id_hash", id_hash)
                    m.setattr(workers, "cpus", lambda: cpus)
                    m.setattr(workers, "SPLIT_MIN_BYTES", 0)
                    try:
                        records, report = consolidate(cfg, canonical_space())
                        runs.append(([r.record().id for r in records], report,
                                     caplog.messages))
                    except RecordError as e:
                        runs.append(str(e))
            assert runs[1] == runs[0], f"split run under the {name} hash"
            outcomes[name] = runs[0]
        assert outcomes == dict.fromkeys(["real", *COLLIDING_HASHES], self.EXPECTED[policy])

    def test_duplicate_found_before_a_missing_source(self, tmp_path):
        sources = self.sources(tmp_path)
        sources[1].path = tmp_path / "missing.xml"
        cfg = PipelineConfig(sources=sources)
        with pytest.raises(RecordError) as info:
            consolidate(cfg, canonical_space())
        assert str(info.value) == "a.jsonl:4: duplicate record id 'r1'"


class TestRunPrepare:
    def build_demo(self, tmp_path: Path) -> Path:
        src = tmp_path / "sources"
        src.mkdir()
        write_jsonl_source(src / "a.jsonl", [mk(i, "a", "NAME") for i in range(40)])
        write_jsonl_source(
            src / "b.jsonl",
            [mk(i, "b", "IBAN" if i % 2 else "CITY") for i in range(20)]
            + [mk(99, "b", "SSN")],  # single mention: rare below threshold 2
        )
        return write_config(tmp_path, (
            "sources:\n"
            "  - name: a\n"
            "    path: sources/a.jsonl\n"
            "  - name: b\n"
            "    path: sources/b.jsonl\n"
            "seed: 5\n"
            "output_dir: out\n"
            "rare_label_threshold: 2\n"
        ))

    def test_end_to_end_writes_splits_and_manifests(self, tmp_path):
        cfg = PipelineConfig.from_file(self.build_demo(tmp_path))
        result = run_prepare(cfg)
        assert set(result.split_paths) == {"train", "val", "test"}
        assert result.removed_types == ["SSN"]
        total = 0
        for name, path in result.split_paths.items():
            assert path.exists()
            assert Path(str(path) + ".manifest.json").exists()
            records = list(read_records(path))
            total += len(records)
            assert result.manifests[name].records == len(records)
        assert total == 61

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = self.build_demo(tmp_path)
        run_prepare(PipelineConfig.from_file(cfg_path))
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        run_prepare(PipelineConfig.from_file(cfg_path))
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert first == second

    def test_seed_changes_artifacts(self, tmp_path):
        cfg_path = self.build_demo(tmp_path)
        cfg = PipelineConfig.from_file(cfg_path)
        run_prepare(cfg)
        train_a = (tmp_path / "out" / "train.jsonl").read_bytes()
        cfg.seed = 6
        run_prepare(cfg)
        train_b = (tmp_path / "out" / "train.jsonl").read_bytes()
        assert train_a != train_b

    def test_demo_config_reproduces_committed_outputs(self, tmp_path):
        cfg = PipelineConfig.from_file(REPO / "demo" / "config.yaml")
        cfg.output_dir = tmp_path
        run_prepare(cfg)
        committed = {p.name: p.read_bytes() for p in (REPO / "demo" / "out").iterdir()}
        assert len(committed) == 6
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == committed

    def test_manifest_carries_config_digest_and_seed(self, tmp_path):
        cfg = PipelineConfig.from_file(self.build_demo(tmp_path))
        result = run_prepare(cfg)
        m = result.manifests["train"]
        assert m.seed == 5
        assert m.config_digest == cfg.digest()
        assert m.generator == "mt19937/sha256-subseed"


def _generated_inputs(out_dir: Path, n_lines: int) -> None:
    """perfbench's prepare_mixed inputs (three sources and config.yaml), seed 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "perfbench"))
        gen = importlib.import_module("gen")
    gen.make_prepare_inputs(out_dir, 1, n_lines)


def _append(path: Path, *lines: str) -> None:
    with path.open("a", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


# SHA-256 of every file prepare writes from 2,000 generated lines, taken
# before prepare was rewritten to plan on encoded lines. The generated config
# rebalances one source, caps another and drops a planted rare type; the
# drop and skip inputs add an unknown-type record, a malformed line and a
# repeated id so that those policies act.
_PREPARE_DIGESTS = {
    "drop": {
        "test.jsonl": "5d9ffea54442634240e516751b245034ed97bcd26af241dfa1241874d81d2487",
        "test.jsonl.manifest.json": "4fb5a0de3539b8fa848ae8c8c6eef13cb4f746e7072e556041ca02ef71d88d52",
        "train.jsonl": "17273508d0b72edbdac2b9f3938bd2e22d34425f9edefe851a40d024b22da91a",
        "train.jsonl.manifest.json": "a4f4bdd2e58b9c7ac0312d853399843727eae9b0e3fcfae8e54edf16eaa0aeb9",
        "val.jsonl": "389dbee461fec4c6a949fb5dbf5fde78386e5d0774933bca8d96b6d73f8e353d",
        "val.jsonl.manifest.json": "26afaadc903ad865987a226d730005b524b77c60e9b48fd7de91929b969c824c",
    },
    "generated": {
        "test.jsonl": "b7f80bee28c5c68f97be4e787df15a302ac90f2f8af944335f3e4ce3f71bee79",
        "test.jsonl.manifest.json": "ef2f98abfc93651a96d3b64134ae4c7a7b94b3d54af659390a97b4d31f7fadfe",
        "train.jsonl": "94eb83a69e2a66e17d5e7b74e0f1f2e6395b6a101898befc6bc4b5da5e63b8cc",
        "train.jsonl.manifest.json": "15c1c348c45840a3eed7d38b475ad524ab5a692e9c2e93037bd6c7aa0753047f",
        "val.jsonl": "e608c0ec093278afa8856cec0ca79929bac543d62d429584bee1a7203009b3c3",
        "val.jsonl.manifest.json": "6de89371f8f906bf24fb56a0060b2573e45e3aeb82ac305cc07f706adc3dbc5c",
    },
    "prepend": {
        "test.jsonl": "06c48726d6b38df12ce5d1e480e787afb3aff7ad1a2209cab3ab3944d2c36847",
        "test.jsonl.manifest.json": "8b6428b1040639aa29bdec9cd7b7803fad23064f5201d1db9d64d72f88c3c927",
        "train.jsonl": "512cd723e9de6d5d2aa64ec6e4168e5dc231a9b0aff025f32b88b83e3f5cf747",
        "train.jsonl.manifest.json": "d1fd04994f6d35780fc9d069ecd71b5fbe4e7979dd436b25497c1fdb0d620532",
        "val.jsonl": "55697d6512632dfe84d29d323e5d435a7d717c9eba4327ea4b5c75db756d0634",
        "val.jsonl.manifest.json": "3672860c57f4a2bfc5ed30120003e3200c95cd0dc49b9f93e1c2f0a6d8dd6380",
    },
    "skip": {
        "test.jsonl": "b7f80bee28c5c68f97be4e787df15a302ac90f2f8af944335f3e4ce3f71bee79",
        "test.jsonl.manifest.json": "a44eeb9fec41ffe927b4029da847455550a9c6f735662a546b26a4a26078ea38",
        "train.jsonl": "94eb83a69e2a66e17d5e7b74e0f1f2e6395b6a101898befc6bc4b5da5e63b8cc",
        "train.jsonl.manifest.json": "1bb27e3a24b777eb6c6060764dc88773231ac00105542c02f890f230f996ee8a",
        "val.jsonl": "e608c0ec093278afa8856cec0ca79929bac543d62d429584bee1a7203009b3c3",
        "val.jsonl.manifest.json": "e93c90d6da6044c86bed2a068499ef4481f48d4e54531845f751051edbed2d43",
    },
}


@pytest.mark.parametrize("variant", sorted(_PREPARE_DIGESTS))
def test_prepare_bytes_are_pinned(tmp_path, variant):
    _generated_inputs(tmp_path, 2000)
    config = tmp_path / "config.yaml"
    sources = tmp_path / "sources"
    if variant == "prepend":
        _append(config, "prepend_source_token: true")
    elif variant == "drop":
        _append(config, "unknown_types: drop")
        _append(sources / "ai4privacy.jsonl", json.dumps({
            "id": "odd-1", "tokens": ["Ref", "X1", "for", "Ana"],
            "labels": ["O", "B-ZZZ_UNKNOWN", "O", "B-NAME"], "source": "ai4privacy",
        }))
    elif variant == "skip":
        _append(config, "on_error: skip")
        _append(sources / "gretel_finance.jsonl", "not json",
                (sources / "ai4privacy.jsonl").read_text(encoding="utf-8").split("\n")[0])
    cfg = PipelineConfig.from_file(config)
    cfg.output_dir = tmp_path / "out"
    run_prepare(cfg)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(cfg.output_dir.iterdir())}
    assert len(got) == 6
    assert got == _PREPARE_DIGESTS[variant]


def test_prepare_memory_per_record(tmp_path):
    """prepare keeps where each encoded line lies in a spill file, not the line,
    the Record or the id, and no file stays open once it returns.

    10,000 generated lines (9,850 kept): the traced peak of run_prepare stays
    at or under 170 bytes per consolidated record (about 150 here: its slotted
    entry, the packed offset and length of its line, and its id key and line
    number for the duplicate-id check), and under the older bounds of 700 and
    430. Holding each line made it about 400, a set of the ids about 500, and
    keeping a Record per line until the write about 1,550.
    """
    per_record, tight_per_record, spilled_per_record = 700, 430, 170
    _generated_inputs(tmp_path, 10_000)
    cfg = PipelineConfig.from_file(tmp_path / "config.yaml")
    cfg.load_space()
    fds = "/proc/self/fd"
    open_before = len(os.listdir(fds)) if os.path.isdir(fds) else None
    tracemalloc.start()
    try:
        result = run_prepare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = sum(c["kept"] for c in result.consolidation.values())
    assert n == 9_850
    assert peak <= per_record * n, f"peak {peak} bytes is {peak / n:.0f} bytes per record"
    assert peak <= tight_per_record * n, f"peak {peak} bytes is {peak / n:.0f} bytes per record"
    assert peak <= spilled_per_record * n, f"peak {peak} bytes is {peak / n:.0f} bytes per record"
    if open_before is None:
        pytest.skip("no /proc/self/fd to count open files in")
    assert len(os.listdir(fds)) == open_before
