import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from piiprep.cli import main
from piiprep.fixtures import system_results_path, entity_results_path
from piiprep.records import Record, write_records


@pytest.fixture
def runner():
    return CliRunner()


def write_artifact(path: Path, rows) -> None:
    write_records(path, [
        Record(id=rid, tokens=["t"] * len(labels), labels=labels, source=src)
        for rid, labels, src in rows
    ])


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

    def test_missing_config_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["prepare", "--config", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 3

    def test_invalid_config_is_data_error(self, runner, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("sources: []\n", encoding="utf-8")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 1


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

    def test_missing_pred_file_is_io_error(self, runner, pair, tmp_path):
        g, _ = pair
        result = runner.invoke(main, [
            "score", "--gold", str(g), "--pred", str(tmp_path / "none.jsonl"),
        ])
        assert result.exit_code == 3


class TestCompare:
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


class TestHash:
    def test_output_shape(self, runner, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("hello", encoding="utf-8")
        result = runner.invoke(main, ["hash", str(p)])
        assert result.exit_code == 0
        digest, name = result.output.split()
        assert len(digest) == 64
        assert name == str(p)
