import csv
import hashlib
import io
import json
import logging
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import REPO
from piiprep.cli import main
from piiprep.fixtures import entity_results_path, system_results_path, taxonomy_path
from piiprep.records import Record, record_to_line


@pytest.fixture
def runner():
    return CliRunner()


def break_line_2(path: Path) -> None:
    """Put a byte that is not UTF-8 at the start of the file's second line."""
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))


def write_artifact(path: Path, rows) -> None:
    path.write_text("".join(
        record_to_line(Record(id=rid, tokens=["t"] * len(labels), labels=labels, source=src))
        for rid, labels, src in rows
    ), encoding="utf-8")


@pytest.fixture
def demo_tree(tmp_path):
    src = tmp_path / "sources"
    src.mkdir()
    write_artifact(src / "a.jsonl", [
        (f"a-{i}", ["B-NAME", "O"], "a") for i in range(30)
    ])
    (src / "b.xml").write_text(
        "".join(f"Ring <PHONE>{100 + i}</PHONE> now\n" for i in range(10)),
        encoding="utf-8",
    )
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        (
            "sources:\n"
            "  - name: a\n"
            "    path: sources/a.jsonl\n"
            "  - name: b\n"
            "    path: sources/b.xml\n"
            "    format: xml\n"
            "seed: 1\n"
            "output_dir: out\n"
            "rare_label_threshold: 0\n"
        ),
        encoding="utf-8",
    )
    return tmp_path


class TestExitCodes:
    def test_usage_error_is_2(self, runner):
        assert runner.invoke(main, ["score", "--no-such-flag"]).exit_code == 2

    def test_data_error_is_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        result = runner.invoke(main, ["validate", "--input", str(bad)])
        assert result.exit_code == 1
        assert "bad.jsonl:1" in result.output

    def test_io_error_is_3(self, runner, tmp_path):
        result = runner.invoke(main, ["hash", str(tmp_path / "missing.bin")])
        assert result.exit_code == 3

    def test_success_is_0(self, runner):
        assert runner.invoke(main, ["--version"]).exit_code == 0


_SOURCE = "sources:\n  - {name: a, path: a.jsonl}\n"

# One malformed second line per source format, and the error it gets.
_BAD_SOURCE_LINE = pytest.mark.parametrize("fmt, line, message", [
    ("jsonl", '{"id":"r1"}', "missing field(s) ['labels', 'source', 'tokens']"),
    ("xml", "Call <PHONE>12 now", "unclosed tag <PHONE>"),
    ("xml-jsonl", '{"text":"Call <PHONE>12 now"}', "unclosed tag <PHONE>"),
    ("xml-jsonl", '{"text": 5}', "text must be a string, got 5"),
], ids=["jsonl", "xml", "xml-jsonl", "xml-jsonl-text-int"])

# A second source line holding a type, IBAN, that the config's taxonomy
# lacks, and the error it gets under unknown_types: error.
_UNKNOWN_TYPE_LINE = pytest.mark.parametrize("fmt, line, message", [
    ("jsonl", '{"id":"r1","tokens":["Ana","PT50"],"labels":["B-NAME","B-IBAN"],"source":"a"}',
     "record r1: entity type 'IBAN' not in taxonomy"),
    ("xml", "Call <PHONE>12</PHONE> or <IBAN>PT50</IBAN>",
     "unknown entity type in tag <IBAN> at offset 26"),
    ("xml-jsonl", '{"text":"Call <PHONE>12</PHONE> or <IBAN>PT50</IBAN>"}',
     "unknown entity type in tag <IBAN> at offset 26"),
], ids=["jsonl", "xml", "xml-jsonl"])


class TestPrepare:
    def test_end_to_end(self, runner, demo_tree):
        result = runner.invoke(main, ["prepare", "--config", str(demo_tree / "config.yaml")])
        assert result.exit_code == 0, result.output
        assert (demo_tree / "out" / "train.jsonl").exists()
        assert (demo_tree / "out" / "train.jsonl.manifest.json").exists()
        assert "[prepare] b: kept 10" in result.output

    def test_out_dir_and_seed_overrides(self, runner, demo_tree):
        result = runner.invoke(main, [
            "prepare", "--config", str(demo_tree / "config.yaml"),
            "--out-dir", str(demo_tree / "elsewhere"), "--seed", "9",
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads(
            (demo_tree / "elsewhere" / "train.jsonl.manifest.json").read_text()
        )
        assert manifest["seed"] == 9

    def test_ids_shared_across_sources_are_data_error(self, runner, tmp_path):
        src = tmp_path / "sources"
        src.mkdir()
        for name in ("a", "b"):
            write_artifact(src / f"{name}.jsonl", [(f"r{i}", ["B-NAME"], name) for i in range(20)])
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "sources:\n"
            "  - name: a\n"
            "    path: sources/a.jsonl\n"
            "  - name: b\n"
            "    path: sources/b.jsonl\n"
            "rare_label_threshold: 0\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "b.jsonl:1: duplicate record id 'r0'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fmt, line, message",
        [
            ("jsonl",
             r'{"id":"r1","tokens":["\ud800"],"labels":["B-NAME"],"source":"a"}',
             r"a.jsonl:2: record r1: token 0 holds a lone UTF-16 surrogate: '\ud800'"),
            ("xml-jsonl",
             r'{"text":"Call <PHONE>1\ud800</PHONE> now"}',
             r"a.jsonl:2: record a-000002: token 1 holds a lone UTF-16 surrogate: '1\ud800'"),
        ],
        ids=["jsonl", "xml-jsonl"],
    )
    def test_lone_surrogate_is_data_error(self, runner, tmp_path, fmt, line, message):
        good = {
            "jsonl": '{"id":"r0","tokens":["x"],"labels":["B-NAME"],"source":"a"}',
            "xml-jsonl": '{"text":"Call <PHONE>12</PHONE> now"}',
        }[fmt]
        (tmp_path / "a.jsonl").write_text(f"{good}\n{line}\n", encoding="utf-8")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "sources:\n"
            "  - name: a\n"
            "    path: a.jsonl\n"
            f"    format: {fmt}\n"
            "rare_label_threshold: 0\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fmt, good",
        [
            ("jsonl", '{"id":"r0","tokens":["x"],"labels":["B-NAME"],"source":"a"}'),
            ("xml", "Call <PHONE>12</PHONE> now"),
            ("xml-jsonl", '{"text":"Call <PHONE>12</PHONE> now"}'),
        ],
        ids=["jsonl", "xml", "xml-jsonl"],
    )
    def test_invalid_utf8_is_data_error(self, runner, tmp_path, fmt, good):
        src = tmp_path / "a.src"
        src.write_text(f"{good}\n{good}\n{good}\n", encoding="utf-8")
        break_line_2(src)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(
            "sources:\n"
            "  - name: a\n"
            "    path: a.src\n"
            f"    format: {fmt}\n"
            "rare_label_threshold: 0\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == "Error: a.src:2: not valid UTF-8\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["prepare", "--config", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 3

    def test_invalid_config_is_data_error(self, runner, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("sources: []\n", encoding="utf-8")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("text, message", [
        (_SOURCE + "seed: abc\n", "seed must be an integer, got 'abc'"),
        (_SOURCE + "seed: 1.5\n", "seed must be an integer, got 1.5"),
        (_SOURCE + "seed: true\n", "seed must be an integer, got True"),
        (_SOURCE + "rare_label_threshold: [1]\n",
         "rare_label_threshold must be an integer, got [1]"),
        (_SOURCE + "caps: {a: x}\n", "caps.a must be an integer, got 'x'"),
        (_SOURCE + "caps: [1]\n", "caps must be a mapping, got [1]"),
        (_SOURCE + "split_fractions: {train: abc}\n",
         "split_fractions.train must be a finite number, got 'abc'"),
        (_SOURCE + "split_fractions: {train: .nan}\n",
         "split_fractions.train must be a finite number, got nan"),
        (_SOURCE + "split_fractions: [1]\n", "split_fractions must be a mapping, got [1]"),
        (_SOURCE + "split_fractions: {1: 1}\n", "split name must be a string, got 1"),
        (_SOURCE + "rebalance: {source: a, target_fraction: x}\n",
         "rebalance.target_fraction must be a finite number, got 'x'"),
        (_SOURCE + "rebalance: 5\n", "rebalance must be a mapping, got 5"),
        (_SOURCE + 'prepend_source_token: "false"\n',
         "prepend_source_token must be true or false, got 'false'"),
        (_SOURCE + "output_dir: 5\n", "output_dir must be a string, got 5"),
        (_SOURCE + "taxonomy: 5\n", "taxonomy must be a string, got 5"),
        ("sources:\n  - {name: a, path: 5}\n", "sources[0].path must be a string, got 5"),
        ("sources:\n  - {name: [a], path: a.jsonl}\n", "sources[0].name must be a string, got ['a']"),
    ], ids=[
        "seed-text", "seed-float", "seed-bool", "threshold-list", "cap-text", "caps-list",
        "fraction-text", "fraction-nan", "fractions-list", "split-name-int", "rebalance-text",
        "rebalance-int", "prepend-text", "output-dir-int", "taxonomy-int", "source-path-int",
        "source-name-list",
    ])
    def test_wrongly_typed_config_value_is_data_error(self, runner, tmp_path, text, message):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"Error: c.yaml: {message}\n"
        assert not (tmp_path / "out").exists()

    # a.jsonl does not exist: reading it would be an I/O error (exit 3), so a
    # data error here shows that the config is checked before any source.
    @pytest.mark.parametrize("text, message", [
        (_SOURCE + "on_error: 5\n", "on_error must be one of ('fail', 'skip', 'log'), got 5"),
        (_SOURCE + "unknown_types: keep\n",
         "unknown_types must be 'error' or 'drop', got 'keep'"),
        (_SOURCE + "rare_label_threshold: -1\n", "rare_label_threshold must be >= 0"),
        (_SOURCE + "rebalance: {source: null, target_fraction: 0.1}\n",
         "rebalance needs both a source and a target fraction"),
        (_SOURCE + "rebalance: {source: a, target_fraction: 1}\n",
         "rebalance target_fraction must lie in [0, 1)"),
        (_SOURCE + "caps: {a: -1}\n", "cap for 'a' must be >= 0"),
        (_SOURCE + "split_fractions: {}\n", "split_fractions must not be empty"),
        (_SOURCE + "split_fractions: {train: 0.8, test: 0.1}\n",
         "split fractions must sum to 1, got 0.9"),
        (_SOURCE + "rebalance: {source: ghost, target_fraction: 0.1}\n",
         "rebalance source 'ghost' not declared"),
        (_SOURCE + "caps: {ghost: 5}\n", "cap names undeclared source 'ghost'"),
        (_SOURCE + "split_fractions: {train: 1.5, val: -0.5}\n",
         "split_fractions.val must not be negative, got -0.5"),
        (_SOURCE + "taxonomy: 0\n", "taxonomy must be a string, got 0"),
        (_SOURCE + "rebalance: 0\n", "rebalance must be a mapping, got 0"),
        (_SOURCE + "1: x\ntpyo: y\n", "unknown config key(s): [1, 'tpyo']"),
        (_SOURCE + 'taxonomy: ""\n', "taxonomy must not be empty"),
        ("sources:\n  - {name: a, path: ''}\n", "sources[0].path must not be empty"),
    ], ids=[
        "on-error", "unknown-types", "threshold-negative", "rebalance-no-source",
        "rebalance-fraction-range", "cap-negative", "fractions-empty", "fractions-sum",
        "rebalance-undeclared", "cap-undeclared", "fraction-negative", "taxonomy-zero",
        "rebalance-zero", "unknown-keys-mixed", "taxonomy-empty", "source-path-empty",
    ])
    def test_config_rule_is_located_before_any_source_is_read(
        self, runner, tmp_path, text, message
    ):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"Error: c.yaml: {message}\n"
        assert not (tmp_path / "out").exists()

    def _bad_source(self, tmp_path, fmt, line, policy, extra=""):
        good = {
            "jsonl": '{"id":"r0","tokens":["x"],"labels":["B-NAME"],"source":"a"}',
            "xml": "Call <PHONE>12</PHONE> now",
            "xml-jsonl": '{"text":"Call <PHONE>12</PHONE> now"}',
        }[fmt]
        (tmp_path / "a.src").write_text(f"{good}\n{line}\n", encoding="utf-8")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"sources:\n  - {{name: a, path: a.src, format: {fmt}}}\n"
            f"on_error: {policy}\nrare_label_threshold: 0\n{extra}",
            encoding="utf-8",
        )
        return cfg

    def _unknown_type_source(self, tmp_path, fmt, line, policy, unknown_types):
        (tmp_path / "tax.tsv").write_text("NAME\tPERSON_GROUP\nPHONE\tCONTACT\n", encoding="utf-8")
        extra = f"taxonomy: tax.tsv\nunknown_types: {unknown_types}\n"
        return self._bad_source(tmp_path, fmt, line, policy, extra)

    @_UNKNOWN_TYPE_LINE
    def test_type_outside_taxonomy_fails_located(self, runner, tmp_path, fmt, line, message):
        cfg = self._unknown_type_source(tmp_path, fmt, line, "fail", "error")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"Error: a.src:2: {message}\n"
        assert not (tmp_path / "out").exists()

    @_UNKNOWN_TYPE_LINE
    @pytest.mark.parametrize("policy", ["skip", "log"])
    def test_type_outside_taxonomy_is_counted_as_an_error(
        self, runner, tmp_path, policy, fmt, line, message
    ):
        cfg = self._unknown_type_source(tmp_path, fmt, line, policy, "error")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "[prepare] a: kept 1, dropped 0 span-free, 1 errors" in result.output

    @_UNKNOWN_TYPE_LINE
    def test_dropped_type_leaves_splits_that_validate(self, runner, tmp_path, fmt, line, message):
        cfg = self._unknown_type_source(tmp_path, fmt, line, "fail", "drop")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "[prepare] a: kept 2, dropped 0 span-free, 0 errors" in result.output
        labels = []
        for split in ("train", "val", "test"):
            path = tmp_path / "out" / f"{split}.jsonl"
            checked = runner.invoke(main, [
                "validate", "--input", str(path), "--taxonomy", str(tmp_path / "tax.tsv"),
            ])
            assert checked.exit_code == 0, checked.output
            labels += [lab for line in path.read_text(encoding="utf-8").splitlines()
                       for lab in json.loads(line)["labels"]]
        # The dropped type's labels became O; the other labels stay.
        assert sorted(set(labels)) == ["B-NAME" if fmt == "jsonl" else "B-PHONE", "O"]

    @_BAD_SOURCE_LINE
    def test_bad_source_line_fails_located(self, runner, tmp_path, fmt, line, message):
        cfg = self._bad_source(tmp_path, fmt, line, "fail")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"Error: a.src:2: {message}\n"
        assert not (tmp_path / "out").exists()

    @_BAD_SOURCE_LINE
    def test_bad_source_line_is_logged_located_once(
        self, runner, tmp_path, caplog, fmt, line, message
    ):
        cfg = self._bad_source(tmp_path, fmt, line, "log")
        with caplog.at_level(logging.WARNING, logger="piiprep.pipeline"):
            result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert caplog.messages == [f"skipping a.src:2: {message}"]
        assert "[prepare] a: kept 1, dropped 0 span-free, 1 errors" in result.output


class TestSample:
    @pytest.fixture
    def artifact(self, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [(f"r-{i}", ["B-NAME"], "s") for i in range(20)])
        return p

    def test_writes_subset_and_manifest(self, runner, artifact, tmp_path):
        out = tmp_path / "sub.jsonl"
        result = runner.invoke(main, [
            "sample", "--input", str(artifact), "--n", "5", "--seed", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert sum(1 for _ in out.open()) == 5
        assert (tmp_path / "sub.jsonl.manifest.json").exists()

    def test_non_positive_n_is_usage_error(self, runner, artifact, tmp_path):
        result = runner.invoke(main, [
            "sample", "--input", str(artifact), "--n", "0",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code == 2

    def test_invalid_utf8_is_data_error(self, runner, artifact, tmp_path):
        break_line_2(artifact)
        result = runner.invoke(main, [
            "sample", "--input", str(artifact), "--n", "5",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code == 1
        assert result.output == "Error: art.jsonl:2: not valid UTF-8\n"
        assert not (tmp_path / "x.jsonl").exists()

    def test_duplicate_id_is_data_error(self, runner, tmp_path):
        art = tmp_path / "art.jsonl"
        write_artifact(art, [("r1", ["O"], "a"), ("r2", ["O"], "a"), ("r1", ["O"], "a")])
        result = runner.invoke(main, [
            "sample", "--input", str(art), "--n", "2", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code == 1
        assert result.output == "Error: art.jsonl:3: duplicate record id 'r1'\n"
        assert not (tmp_path / "x.jsonl").exists()

    def test_oversized_n_is_data_error(self, runner, artifact, tmp_path):
        result = runner.invoke(main, [
            "sample", "--input", str(artifact), "--n", "21",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code == 1
        assert "exceeds" in result.output


class TestValidate:
    def test_summary_json(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [
            ("r1", ["B-NAME", "I-NAME"], "a"),
            ("r2", ["O", "B-IBAN"], "b"),
        ])
        result = runner.invoke(main, ["validate", "--input", str(p)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["records"] == 2
        assert summary["gold_spans"] == 2
        assert summary["sources"] == {"a": 1, "b": 1}
        assert summary["orphan_continuations"] == 0

    def test_duplicate_id_rejected(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r1", ["O"], "a"), ("r2", ["O"], "a"), ("r1", ["O"], "a")])
        result = runner.invoke(main, ["validate", "--input", str(p)])
        assert result.exit_code == 1
        assert "art.jsonl:3: duplicate record id 'r1'" in result.output

    def test_type_outside_taxonomy_rejected(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r0", ["B-NAME"], "a"), ("r1", ["B-WIDGET"], "a")])
        result = runner.invoke(main, ["validate", "--input", str(p)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: art.jsonl:2: record r1: entity type 'WIDGET' not in taxonomy\n"
        )

    def test_invalid_utf8_is_data_error(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r0", ["B-NAME"], "a"), ("r1", ["O"], "a"), ("r2", ["O"], "a")])
        break_line_2(p)
        result = runner.invoke(main, ["validate", "--input", str(p)])
        assert result.exit_code == 1
        assert result.output == "Error: art.jsonl:2: not valid UTF-8\n"

    def test_custom_taxonomy_accepts_its_types(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r1", ["B-WIDGET"], "a")])
        tax = tmp_path / "tax.tsv"
        tax.write_text("WIDGET\tMISC\n", encoding="utf-8")
        result = runner.invoke(main, [
            "validate", "--input", str(p), "--taxonomy", str(tax),
        ])
        assert result.exit_code == 0, result.output

    def test_orphans_fail_only_under_strict(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r1", ["I-NAME"], "a")])
        relaxed = runner.invoke(main, ["validate", "--input", str(p)])
        assert relaxed.exit_code == 0
        assert json.loads(relaxed.output)["orphan_continuations"] == 1
        strict = runner.invoke(main, ["validate", "--input", str(p), "--strict"])
        assert strict.exit_code == 1


    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_counts_equal_the_sidecar_manifest(self, runner, split):
        artifact = REPO / "demo" / "out" / f"{split}.jsonl"
        result = runner.invoke(main, ["validate", "--input", str(artifact)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        manifest = json.loads(artifact.with_name(artifact.name + ".manifest.json").read_text())
        for key in ("records", "gold_spans", "entity_types", "per_type_b_mentions",
                    "orphan_continuations"):
            assert summary[key] == manifest[key], key
        assert summary["sources"] == manifest["per_source_records"]

    def test_type_only_in_orphan_continuations_rejected(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r0", ["B-NAME"], "a"), ("r1", ["O", "I-WIDGET", "I-WIDGET"], "a")])
        result = runner.invoke(main, ["validate", "--input", str(p)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: art.jsonl:2: record r1: entity type 'WIDGET' not in taxonomy\n"
        )


class TestScore:
    @pytest.fixture
    def pair(self, tmp_path):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        rows = [
            (f"r{i}", ["B-NAME", "I-NAME", "O"], "s") for i in range(8)
        ]
        write_artifact(g, rows)
        with p.open("w", encoding="utf-8") as f:
            for i in range(8):
                labels = ["B-NAME", "I-NAME", "O"] if i % 2 == 0 else ["B-NAME", "O", "O"]
                f.write(json.dumps({"id": f"r{i}", "labels": labels}) + "\n")
        return g, p

    def test_report_to_stdout(self, runner, pair):
        g, p = pair
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["micro"]["recall"] == 0.5
        assert report["records"] == 8

    def test_out_and_csv_files(self, runner, pair, tmp_path):
        g, p = pair
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(p),
            "--out", str(out), "--csv", str(csv_out),
            "--system", "demo", "--category", "Test",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["system"] == "demo"
        assert csv_out.read_text().startswith("type,group,support,")

    def test_zero_chunk_size_is_usage_error(self, runner, pair):
        g, p = pair
        result = runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(p), "--chunk-size", "0",
        ])
        assert result.exit_code == 2

    def test_misaligned_files_are_data_error(self, runner, pair, tmp_path):
        g, _ = pair
        short = tmp_path / "short.jsonl"
        short.write_text('{"id": "r0", "labels": ["O", "O", "O"]}\n', encoding="utf-8")
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(short)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("mode", [[], ["--unordered"]], ids=["ordered", "unordered"])
    @pytest.mark.parametrize(
        "labels, message",
        [
            ('"OOO"', "p.jsonl:2: labels must be a JSON array"),
            ('["O",5,"O"]', "p.jsonl:2: record r1: label 1 is not a string: 5"),
            ('["O","X-A","O"]', "p.jsonl:2: record r1: malformed BIO label at position 1: 'X-A'"),
        ],
        ids=["not-an-array", "not-a-string", "malformed"],
    )
    def test_bad_prediction_labels_are_data_error(self, runner, pair, mode, labels, message):
        g, p = pair
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"id": "r1", "labels": %s}\n' % labels
        p.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p), *mode])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"

    @pytest.mark.parametrize("mode", [[], ["--unordered"]], ids=["ordered", "unordered"])
    @pytest.mark.parametrize("rid, shown", [('["r1"]', "['r1']"), ("5", "5")], ids=["array", "number"])
    def test_bad_id_is_data_error(self, runner, pair, mode, rid, shown):
        g, p = pair
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"id": %s, "labels": ["B-NAME", "O", "O"]}\n' % rid
        p.write_text("".join(lines), encoding="utf-8")
        message = f"record id must be a non-empty string, got {shown}"
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p), *mode])
        assert result.exit_code == 1
        assert result.output == f"Error: p.jsonl:2: {message}\n"
        # The same file as gold: ids are held to the rule in both files.
        result = runner.invoke(main, ["score", "--gold", str(p), "--pred", str(g), *mode])
        assert result.exit_code == 1
        assert result.output == f"Error: p.jsonl:2: {message}\n"

    @pytest.mark.parametrize("mode", [[], ["--unordered"]], ids=["ordered", "unordered"])
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_lone_surrogate_label_is_data_error(self, runner, pair, tmp_path, mode, out):
        g, p = pair
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"id": "r1", "labels": ["O", "B-\\ud800", "O"]}\n'
        p.write_text("".join(lines), encoding="utf-8")
        message = r"p.jsonl:2: record r1: label 1 holds a lone UTF-16 surrogate: 'B-\ud800'"
        out_args = ["--out", str(tmp_path / "report.json")] if out else []
        for gold, pred in ((g, p), (p, g)):  # the gold file is held to the same rule
            result = runner.invoke(main, [
                "score", "--gold", str(gold), "--pred", str(pred), *mode, *out_args,
            ])
            assert result.exit_code == 1
            assert result.output == f"Error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("option", ["--system", "--category"])
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_name_not_valid_utf8_is_usage_error(self, runner, pair, tmp_path, option, out):
        g, p = pair
        out_args = ["--out", str(tmp_path / "report.json")] if out else []
        result = runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(p), option, "x\udcff", *out_args,
        ])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}': 'x\\udcff' is not valid UTF-8" in result.output
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mode", [[], ["--unordered"]], ids=["ordered", "unordered"])
    def test_length_mismatch_is_located(self, runner, pair, mode):
        g, p = pair
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"id": "r1", "labels": ["B-NAME", "O"]}\n'
        p.write_text("".join(lines), encoding="utf-8")
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p), *mode])
        assert result.exit_code == 1
        assert result.output == (
            "Error: record 'r1': sequence length mismatch: 3 gold vs 2 predicted labels\n"
        )

    @pytest.mark.parametrize("mode", [[], ["--unordered"]], ids=["ordered", "unordered"])
    def test_blank_line_is_data_error(self, runner, pair, mode):
        g, p = pair
        with p.open("a", encoding="utf-8") as f:
            f.write("\n")
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p), *mode])
        assert result.exit_code == 1
        assert result.output == "Error: p.jsonl:9: blank line\n"
        # The same file as gold: blank lines are rejected in both files.
        result = runner.invoke(main, ["score", "--gold", str(p), "--pred", str(g), *mode])
        assert result.exit_code == 1
        assert result.output == "Error: p.jsonl:9: blank line\n"

    @pytest.mark.parametrize("mode", [[], ["--unordered"]], ids=["ordered", "unordered"])
    @pytest.mark.parametrize("which", ["g", "p"])
    def test_invalid_utf8_is_data_error(self, runner, pair, mode, which):
        g, p = pair
        break_line_2(g if which == "g" else p)
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p), *mode])
        assert result.exit_code == 1
        assert result.output == f"Error: {which}.jsonl:2: not valid UTF-8\n"

    def test_csv_groups_from_custom_taxonomy(self, runner, tmp_path):
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_artifact(g, [("r0", ["B-WIDGET", "O", "B-NAME"], "s")])
        p.write_text('{"id": "r0", "labels": ["B-WIDGET", "O", "O"]}\n', encoding="utf-8")
        tax = tmp_path / "tax.tsv"
        # NAME is in the canonical taxonomy too, under another group.
        tax.write_text("WIDGET\tNETWORK\nNAME\tMISC\n", encoding="utf-8")
        csv_out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(p),
            "--out", str(tmp_path / "report.json"),
            "--csv", str(csv_out), "--taxonomy", str(tax),
        ])
        assert result.exit_code == 0, result.output
        assert csv_out.read_text(encoding="utf-8") == (
            "type,group,support,precision,recall,f1\n"
            "NAME,MISC,1,0.000000,0.000000,0.000000\n"
            "WIDGET,NETWORK,1,1.000000,1.000000,1.000000\n"
        )

    def test_missing_pred_file_is_io_error(self, runner, pair, tmp_path):
        g, _ = pair
        result = runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(tmp_path / "none.jsonl"),
        ])
        assert result.exit_code == 3


class TestCompare:
    def test_csv_ranking_is_a_fixed_point(self, runner, tmp_path):
        # The F1s differ past the four printed decimals, so they tie and rank
        # by name, as the printed table does when it is read back.
        table, first = tmp_path / "table.csv", tmp_path / "first.csv"
        write_csv(table, [
            ["system", "category", "f1", "precision", "recall"],
            ["b", "x", "0.61234", "0.5", "0.5"],
            ["a", "x", "0.61231", "0.5", "0.5"],
        ])
        argv = ["compare", "--table", str(table), "--format", "csv", "--out", str(first)]
        assert runner.invoke(main, argv).exit_code == 0
        assert first.read_text(encoding="utf-8") == (
            "rank,system,category,f1,precision,recall,f1_delta_vs_top\n"
            "1,a,x,0.6123,0.5000,0.5000,+0.0000\n"
            "2,b,x,0.6123,0.5000,0.5000,+0.0000\n"
        )
        again = runner.invoke(main, ["compare", "--table", str(first), "--format", "csv"])
        assert again.exit_code == 0, again.output
        assert again.output == first.read_text(encoding="utf-8")

    def test_table_input(self, runner):
        result = runner.invoke(main, ["compare", "--table", str(system_results_path())])
        assert result.exit_code == 0, result.output
        assert "Direct DeBERTa" in result.output

    def test_reports_input_uses_stem_when_unnamed(self, runner, tmp_path):
        report = {
            "system": None, "category": None,
            "micro": {"precision": 0.5, "recall": 0.5, "f1": 0.5},
            "per_type": {}, "records": 1, "chunks": 1,
        }
        rp = tmp_path / "mysys.json"
        rp.write_text(json.dumps(report), encoding="utf-8")
        result = runner.invoke(main, ["compare", "--reports", str(rp), "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert "mysys" in result.output

    def test_no_inputs_is_usage_error(self, runner):
        assert runner.invoke(main, ["compare"]).exit_code == 2

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "cmp.md"
        result = runner.invoke(main, [
            "compare", "--table", str(system_results_path()), "--out", str(out),
        ])
        assert result.exit_code == 0
        assert out.read_text().startswith("| Rank |")


class TestAnalyze:
    def test_packaged_table_markdown(self, runner):
        result = runner.invoke(main, [
            "analyze", "--rows", str(entity_results_path()), "--a", "direct", "--b", "sch",
        ])
        assert result.exit_code == 0, result.output
        assert "Overall wins: direct 54, sch 28, ties 0." in result.output

    def test_csv_format_and_out(self, runner, tmp_path):
        out = tmp_path / "analysis.csv"
        result = runner.invoke(main, [
            "analyze", "--rows", str(entity_results_path()), "--a", "direct", "--b", "sch",
            "--format", "csv", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert out.read_text().splitlines()[0] == "group,support,f1_a,f1_b,delta,wins_a,wins_b"

    def test_unknown_system_is_data_error(self, runner):
        result = runner.invoke(main, [
            "analyze", "--rows", str(entity_results_path()), "--a", "direct", "--b", "ghost",
        ])
        assert result.exit_code == 1

    def test_bad_top_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "analyze", "--rows", str(entity_results_path()), "--a", "direct", "--b", "sch",
            "--top", "0",
        ])
        assert result.exit_code == 2

    def test_bad_format_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "analyze", "--rows", str(entity_results_path()), "--a", "direct", "--b", "sch",
            "--format", "pdf",
        ])
        assert result.exit_code == 2


_REPORT = json.dumps({
    "system": "s", "category": None,
    "micro": {"precision": 0.5, "recall": 0.5, "f1": 0.5},
    "per_type": {}, "records": 1, "chunks": 1,
}, indent=2)


# A taxonomy whose second line breaks a rule, read by each command that takes one.
_TAXONOMY_READERS = [
    ("validate", ["validate", "--input", "{art}", "--taxonomy", "{f}"]),
    ("score", ["score", "--gold", "{art}", "--pred", "{art}", "--csv", "{art}.csv",
               "--taxonomy", "{f}"]),
    ("prepare", ["prepare", "--config", "{cfg}"]),
]
_BAD_TAXONOMY_LINES = [
    ("bad-name", "NAME\tPERSON_GROUP\nbad-type\tCONTACT\n",
     "in.txt:2: invalid entity type name 'BAD-TYPE': expected an uppercase identifier "
     "without hyphens"),
    ("unknown-group", "NAME\tPERSON_GROUP\nEMAIL\tNOT_A_GROUP\n",
     "in.txt:2: unknown coarse group 'NOT_A_GROUP' for type EMAIL"),
]


@pytest.mark.parametrize("argv, text, broken, message", [
    *(pytest.param(argv, text, False, message, id=f"{command}-taxonomy-{rule}")
      for command, argv in _TAXONOMY_READERS for rule, text, message in _BAD_TAXONOMY_LINES),
    pytest.param(["validate", "--input", "{art}", "--taxonomy", "{f}"],
                 taxonomy_path().read_text(encoding="utf-8"), True,
                 "in.txt:2: not valid UTF-8", id="validate-taxonomy"),
    pytest.param(["prepare", "--config", "{f}"],
                 "sources:\n  - name: a\n    path: a.jsonl\n", True,
                 "in.txt:2: not valid UTF-8", id="prepare-config"),
    pytest.param(["compare", "--table", "{f}"],
                 system_results_path().read_text(encoding="utf-8"), True,
                 "in.txt:2: not valid UTF-8", id="compare-table"),
    pytest.param(["analyze", "--rows", "{f}", "--a", "direct", "--b", "sch"],
                 entity_results_path().read_text(encoding="utf-8"), True,
                 "in.txt:2: not valid UTF-8", id="analyze-rows"),
    pytest.param(["compare", "--reports", "{f}"], _REPORT, True,
                 "in.txt:2: not valid UTF-8", id="compare-reports-utf8"),
    pytest.param(["compare", "--reports", "{f}"], "{\n  micro\n}\n", False,
                 "in.txt:2: malformed JSON: Expecting property name enclosed in double quotes",
                 id="compare-reports-not-json"),
    pytest.param(["compare", "--reports", "{f}"], _REPORT.replace('"s"', '"\\ud800"'), False,
                 r"in.txt: system holds a lone UTF-16 surrogate: '\ud800'",
                 id="compare-reports-surrogate-system"),
    pytest.param(["compare", "--reports", "{f}"], _REPORT.replace('"s"', "5"), False,
                 "in.txt: system must be a string", id="compare-reports-number-system"),
    pytest.param(["compare", "--reports", "{f}"],
                 _REPORT.replace('"category": null', '"category": ["x"]'), False,
                 "in.txt: category must be a string", id="compare-reports-list-category"),
    pytest.param(["compare", "--reports", "{f}"], "{}\n", False,
                 "in.txt: score report has no 'micro'", id="compare-reports-empty-object"),
    pytest.param(["compare", "--reports", "{f}"], "[1]\n", False,
                 "in.txt: a score report must be a JSON object", id="compare-reports-array"),
    pytest.param(["compare", "--reports", "{f}"], _REPORT.replace("0.5", '"x"'), False,
                 "in.txt: micro scores must be numbers", id="compare-reports-text-score"),
    pytest.param(["compare", "--reports", "{f}"], _REPORT.replace('"f1": 0.5', '"f1": NaN'),
                 False, "in.txt: micro scores must be numbers", id="compare-reports-nan-score"),
    pytest.param(["compare", "--reports", "{f}"],
                 _REPORT.replace('"recall": 0.5', '"recall": -Infinity'), False,
                 "in.txt: micro scores must be numbers", id="compare-reports-infinite-score"),
    pytest.param(["compare", "--table", "{f}"],
                 "system,category,f1,precision,recall\nA,B,0.5,0.5,0.5\nC,D,0.5\n", False,
                 "in.txt:3: expected 5 fields, got 3", id="compare-table-short-row"),
    pytest.param(["compare", "--table", "{f}"],
                 "system,category,f1,precision,recall\nA,B,0.5,0.5,0.5,0.5\n", False,
                 "in.txt:2: expected 5 fields, got 6", id="compare-table-long-row"),
    pytest.param(["compare", "--table", "{f}"],
                 "system,category,f1,precision,recall,f1\nA,B,0.5,0.5,0.5,0.9\n", False,
                 "in.txt:1: duplicate column 'f1'", id="compare-table-repeated-column"),
    pytest.param(["compare", "--table", "{f}"],
                 "system,category,f1,precision,recall\nA,B,nan,0.5,0.5\n", False,
                 "in.txt:2: score must be a finite number, got 'nan'", id="compare-table-nan"),
    pytest.param(["analyze", "--rows", "{f}", "--a", "direct", "--b", "sch"],
                 "entity,group,support,f1_direct,f1_sch\nX,G,3,0.5\n", False,
                 "in.txt:2: expected 5 fields, got 4", id="analyze-rows-short-row"),
    pytest.param(["analyze", "--rows", "{f}", "--a", "direct", "--b", "sch"],
                 "entity,group,support,f1_direct,f1_sch\nX,G,3,0.5,0.5,\n", False,
                 "in.txt:2: expected 5 fields, got 6", id="analyze-rows-long-row"),
    pytest.param(["analyze", "--rows", "{f}", "--a", "direct", "--b", "sch"],
                 "entity,group,support,f1_direct,f1_sch,f1_direct\nX,G,3,0.5,0.5,0.9\n", False,
                 "in.txt:1: duplicate column 'f1_direct'", id="analyze-rows-repeated-column"),
    pytest.param(["analyze", "--rows", "{f}", "--a", "direct", "--b", "sch"],
                 "entity,group,support,f1_direct,f1_sch\nX,G,3,0.5,inf\n", False,
                 "in.txt:2: score must be a finite number, got 'inf'", id="analyze-rows-inf"),
])
def test_bad_input_file_is_located_data_error(runner, tmp_path, argv, text, broken, message):
    art, f, cfg = tmp_path / "art.jsonl", tmp_path / "in.txt", tmp_path / "cfg.yaml"
    write_artifact(art, [("r1", ["B-NAME"], "a")])
    f.write_text(text, encoding="utf-8")
    if broken:
        break_line_2(f)
    cfg.write_text("sources:\n  - {name: a, path: art.jsonl}\ntaxonomy: in.txt\n", encoding="utf-8")
    result = runner.invoke(main, [a.format(art=art, f=f, cfg=cfg) for a in argv])
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"


def write_csv(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows(rows)


def csv_widths(text: str) -> set[int]:
    return {len(cells) for cells in csv.reader(io.StringIO(text, newline=""))}


def markdown_widths(text: str) -> set[int]:
    """The cell counts of the table rows, split on every | not escaped as \\|."""
    return {len(re.split(r"(?<!\\)\|", line)) - 2
            for line in text.splitlines() if line.startswith("|")}


class TestTableQuoting:
    """Names holding ',', '"' or '|' keep every table row at its header's width."""

    def test_compare_csv_reads_back_as_the_same_ranking(self, runner, tmp_path):
        table, first = tmp_path / "table.csv", tmp_path / "first.csv"
        write_csv(table, [
            ["system", "category", "f1", "precision", "recall"],
            ["Acme, Inc", "api, hosted", "0.5000", "0.4000", "0.6000"],
            ['Say "hi"', 'the "open" kind', "0.6000", "0.5000", "0.7000"],
            ["Bar|Baz", "a|b", "0.7000", "0.6000", "0.8000"],
        ])
        argv = ["compare", "--table", str(table), "--format", "csv", "--out", str(first)]
        assert runner.invoke(main, argv).exit_code == 0
        again = runner.invoke(main, ["compare", "--table", str(first), "--format", "csv"])
        assert again.exit_code == 0, again.output
        assert again.output == first.read_text(encoding="utf-8")
        ranked = list(csv.DictReader(io.StringIO(again.output, newline="")))
        assert [r["system"] for r in ranked] == ["Bar|Baz", 'Say "hi"', "Acme, Inc"]
        markdown = runner.invoke(main, ["compare", "--table", str(table)]).output
        assert markdown_widths(markdown) == {7}
        assert "| 1 | Bar\\|Baz * | a\\|b |" in markdown

    def test_analyze_rows_keep_the_header_width(self, runner, tmp_path):
        rows = tmp_path / "rows.csv"
        write_csv(rows, [
            ["entity", "group", "support", "f1_x|y", "f1_z"],
            ["Acme, Inc", "G, one", "3", "0.5", "0.25"],
            ['Say "hi"', "G|two", "2", "0.1", "0.75"],
            ["E|2", 'G "three"', "1", "0.5", "0.5"],
        ])
        argv = ["analyze", "--rows", str(rows), "--a", "x|y", "--b", "z", "--format"]
        text = runner.invoke(main, [*argv, "csv"]).output
        assert csv_widths(text) == {7}
        groups = [r["group"] for r in csv.DictReader(io.StringIO(text, newline=""))]
        assert groups == ["G, one", "G|two", 'G "three"']
        markdown = runner.invoke(main, [*argv, "markdown"]).output
        assert markdown_widths(markdown) == {7}
        assert "| Group | Support | F1 x\\|y | F1 z | Delta | Wins x\\|y | Wins z |" in markdown
        assert "| 1 | Acme, Inc | G, one | 3 |" in markdown

    def test_score_csv_rows_keep_the_header_width(self, runner, tmp_path):
        # A taxonomy takes no such type names, so their group cell is empty.
        labels = [["B-ACME, INC", "O"], ['B-SAY "HI"'], ["O", "B-E|2"]]
        g, p = tmp_path / "g.jsonl", tmp_path / "p.jsonl"
        write_artifact(g, [(f"r{i}", ls, "s") for i, ls in enumerate(labels)])
        p.write_text("".join(json.dumps({"id": f"r{i}", "labels": ls}) + "\n"
                             for i, ls in enumerate(labels)), encoding="utf-8")
        out = tmp_path / "types.csv"
        result = runner.invoke(main, ["score", "--gold", str(g), "--pred", str(p),
                                      "--out", str(tmp_path / "report.json"), "--csv", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text(encoding="utf-8")
        assert csv_widths(text) == {6}
        types = [r["type"] for r in csv.DictReader(io.StringIO(text, newline=""))]
        assert types == ["ACME, INC", "E|2", 'SAY "HI"']


class TestHash:
    def test_output_shape(self, runner, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("hello", encoding="utf-8")
        result = runner.invoke(main, ["hash", str(p)])
        assert result.exit_code == 0
        digest, name = result.output.split()
        assert len(digest) == 64
        assert name == str(p)


_DEMO_TEST = str(REPO / "demo" / "out" / "test.jsonl")
_ANALYZE = ["analyze", "--rows", str(entity_results_path()), "--a", "direct", "--b", "sch",
            "--out", "{out}", "--format"]
_COMPARE = ["compare", "--table", str(system_results_path()), "--out", "{out}", "--format"]


# The SHA-256 of every table output on the packaged and demo inputs, taken
# before the tables shared one renderer: rendering must keep these bytes.
@pytest.mark.parametrize("argv, digest", [
    pytest.param([*_ANALYZE, "markdown"],
                 "36b5f6197e1c5a3305aac8d9e61bfc2c6819935f91ad2a275d9d937cc74f1634",
                 id="analyze-markdown"),
    pytest.param([*_ANALYZE, "csv"],
                 "c4a3da4a824bb2958ce257abba9f920dc31b2543ca0a0bcc1676965814ccd564",
                 id="analyze-csv"),
    pytest.param([*_ANALYZE, "json"],
                 "69c7f4fb00f4ceb735566702746c8895e6e3578f02fe2f3c689e2fe4e8dbc53e",
                 id="analyze-json"),
    pytest.param([*_COMPARE, "markdown"],
                 "c482d41a351bd65138ba8bc84a8fa6f91765e1c33739cd7804f13a80fd44b429",
                 id="compare-markdown"),
    pytest.param([*_COMPARE, "csv"],
                 "b6c15aaadb24e07d424893743dcc7053844b73bc94fc30db5a0b4b3ff1dc4423",
                 id="compare-csv"),
    pytest.param([*_COMPARE, "json"],
                 "5779c6405c93a956679b5636542883640b255fdc2dcbc1fcd081d86e79cceaa2",
                 id="compare-json"),
    pytest.param(["score", "--gold", _DEMO_TEST, "--pred", _DEMO_TEST, "--csv", "{out}",
                  "--taxonomy", str(taxonomy_path())],
                 "e02548a0a9e9e96ed31d4459def47479563135521d6dbad0ede0f2a2383f9c40",
                 id="score-csv"),
])
def test_table_bytes_are_pinned(runner, tmp_path, argv, digest):
    out = tmp_path / "table"
    result = runner.invoke(main, [a.format(out=out) for a in argv])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
