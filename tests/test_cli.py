import csv
import errno
import hashlib
import io
import json
import logging
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import REPO
from piiprep import cli, idindex, workers
from piiprep.cli import main
from piiprep.fixtures import entity_results_path, system_results_path, taxonomy_path
from piiprep.records import Record, record_to_line
from test_scorer import COLLIDING_HASHES


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


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _full(*args, **kwargs):
    return open("/dev/full", "r+b")  # made, but every write fails


_PREPARE = ["prepare", "--config", str(REPO / "demo" / "config.yaml"), "--out-dir"]
_SAMPLE = ["sample", "--input", str(REPO / "demo" / "out" / "train.jsonl"), "--n", "5", "--out"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, temporary_file", [
    (_PREPARE, _full), (_PREPARE, _no_space), (_SAMPLE, _full), (_SAMPLE, _no_space),
], ids=["write-fails", "cannot-make", "sample-write-fails", "sample-cannot-make"])
def test_prepare_without_temporary_space_is_io_error(runner, tmp_path, monkeypatch,
                                                     command, temporary_file):
    # prepare keeps its encoded records in temporary files until it writes the
    # splits, and sample its subset's until it writes it.
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, str(out)])
    assert result.exit_code == 3
    assert result.output == (
        f"Error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: cannot write encoded "
        f"records to a temporary file in {tempfile.gettempdir()}\n")
    assert not out.exists()


# Each command run with two ranges and forked workers, every warning an error.
_FORCED_SPLIT = ("import sys\nfrom piiprep import workers\nworkers.cpus = lambda: 2\n"
                 "workers.SPLIT_MIN_BYTES = 0\nfrom piiprep.cli import main\nmain(sys.argv[1:])\n")


def test_commands_leave_no_file_unclosed(tmp_path):
    out = tmp_path / "out"
    train = str(out / "train.jsonl")
    for args in (["prepare", "--config", str(REPO / "demo" / "config.yaml"), "--out-dir", str(out)],
                 ["sample", "--input", train, "--n", "5", "--out", str(tmp_path / "sub.jsonl")],
                 ["validate", "--input", train],
                 ["score", "--gold", train, "--pred", train],
                 ["score", "--gold", train, "--pred", train, "--unordered"]):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _FORCED_SPLIT,
             *args], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert proc.returncode == 0, (args, proc.stderr)
        assert "ResourceWarning" not in proc.stderr, (args, proc.stderr)


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
        ("sources:\n  - {name: a, path: a.jsonl, fromat: xml}\n",
         "unknown key(s) in sources[0]: ['fromat']"),
        ("sources:\n  - {name: '', path: a.jsonl}\n", "sources[0].name must not be empty"),
        (_SOURCE + "split_fractions: {a/b: 1}\n",
         "split name must be non-empty and hold no '/', got 'a/b'"),
        (_SOURCE + "split_fractions: {'': 1}\n",
         "split name must be non-empty and hold no '/', got ''"),
        (_SOURCE + f"split_fractions: {{{'x' * 236}: 1}}\n",
         "split name is too long: <name>.jsonl.manifest.json must fit in 255 UTF-8 bytes, "
         f"got 256 for '{'x' * 236}'"),
        (_SOURCE + f"split_fractions: {{{'é' * 118}: 1}}\n",
         "split name is too long: <name>.jsonl.manifest.json must fit in 255 UTF-8 bytes, "
         f"got 256 for '{'é' * 118}'"),
        ("sources:\n  - {name: '1', path: a.jsonl}\ncaps: {1: 1}\n",
         "cap name must be a string, got 1"),
        ('sources:\n  - {name: "\\ud800", path: a.jsonl}\n',
         "sources[0].name holds a lone UTF-16 surrogate: '\\ud800'"),
        ('sources:\n  - {name: a, path: "\\ud800.jsonl"}\n',
         "sources[0].path holds a lone UTF-16 surrogate: '\\ud800.jsonl'"),
        (_SOURCE + 'split_fractions: {"\\ud800": 1}\n',
         "a key in split_fractions holds a lone UTF-16 surrogate: '\\ud800'"),
        ('sources:\n  - {name: a, path: "a\\0.jsonl"}\n',
         "sources[0].path holds a NUL byte: 'a\\x00.jsonl'"),
        (_SOURCE + 'output_dir: "out\\0"\n', "output_dir holds a NUL byte: 'out\\x00'"),
        (_SOURCE + 'split_fractions: {"a\\0": 1}\n',
         "a key in split_fractions holds a NUL byte: 'a\\x00'"),
        (_SOURCE + "seed: 2020-13-01\n", "not valid YAML: month must be in 1..12"),
        (_SOURCE + "output_dir: .\nsplit_fractions: {a: 1}\n",
         "split 'a' would overwrite the file of source 'a': a.jsonl"),
        ("sources:\n  - {name: m, path: out/t.jsonl.manifest.json}\n"
         "split_fractions: {s: 0.5, t: 0.5}\n",
         "split 't' would overwrite the file of source 'm': t.jsonl.manifest.json"),
        ("- a\n", "config root must be a mapping"),
        ("seed: 1\n", "'sources' must be a non-empty list"),
        ("sources: []\n", "'sources' must be a non-empty list"),
        ("sources: a.jsonl\n", "'sources' must be a non-empty list"),
        ("sources:\n  - {name: a}\n", "sources[0] needs 'name' and 'path'"),
        ("sources:\n  - a.jsonl\n", "sources[0] needs 'name' and 'path'"),
        (_SOURCE + "  - {name: a, path: b.jsonl}\n",
         "duplicate source name 'a' (sources[0] and sources[1])"),
        (_SOURCE + "rebalance: {source: a}\n", "rebalance needs 'source' and 'target_fraction'"),
        ("sources:\n  - {name: a, path: a.jsonl, format: XML}\n",
         "sources[0].format must be one of ('jsonl', 'xml', 'xml-jsonl'), got 'XML'"),
        # Two faults: the one in the key checked first (the table's order) is reported.
        (_SOURCE + "on_error: 5\nrare_label_threshold: -1\n", "rare_label_threshold must be >= 0"),
        # A YAML alias can put a node inside itself; no rule recurses into one.
        ("sources: &s [*s]\n", "sources[0] needs 'name' and 'path'"),
        (_SOURCE + "extra: &e {k: *e}\n", "unknown config key(s): ['extra']"),
        (_SOURCE + "caps: &c {a: *c}\n", "caps.a must be an integer, got {'a': {...}}"),
        (_SOURCE + "extra: " + "[" * 500 + "]" * 500 + "\n", "not valid YAML: nested too deeply"),
        (_SOURCE + "seed: [&a0 [x], " + "".join(f"&a{i} [*a{i - 1}], " for i in range(1, 1200))
         + "*a1199]\n", "not valid YAML: nested too deeply"),
        # Numbers too large for a float.
        (_SOURCE + f"split_fractions: {{train: {10 ** 400}}}\n",
         f"split_fractions.train must be a finite number, got {10 ** 400}"),
        (_SOURCE + f"rebalance: {{source: a, target_fraction: {10 ** 400}}}\n",
         f"rebalance.target_fraction must be a finite number, got {10 ** 400}"),
        (_SOURCE + "split_fractions: {train: 1.7e+308, test: 1.7e+308}\n",
         "split fractions must sum to 1, got inf"),
    ], ids=[
        "on-error", "unknown-types", "threshold-negative", "rebalance-no-source",
        "rebalance-fraction-range", "cap-negative", "fractions-empty", "fractions-sum",
        "rebalance-undeclared", "cap-undeclared", "fraction-negative", "taxonomy-zero",
        "rebalance-zero", "unknown-keys-mixed", "taxonomy-empty", "source-path-empty",
        "source-key-unknown", "source-name-empty", "split-name-slash", "split-name-empty",
        "split-name-long", "split-name-long-utf8", "cap-name-int", "source-name-surrogate", "source-path-surrogate",
        "split-name-surrogate", "source-path-nul", "output-dir-nul", "split-name-nul",
        "seed-bad-date", "split-overwrites-source", "split-manifest-overwrites-source",
        "root-not-mapping", "sources-absent", "sources-empty", "sources-not-list",
        "source-needs-path", "source-not-mapping", "source-name-repeated",
        "rebalance-keys", "source-format", "two-faults-table-order", "alias-list-in-itself",
        "alias-mapping-in-itself", "alias-caps-in-itself", "yaml-too-deep", "alias-chain-too-deep",
        "fraction-past-float", "rebalance-fraction-past-float", "fractions-sum-past-float",
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

    @pytest.mark.parametrize("key, prefix, suffix", [
        ("seed: {}", "seed must be an integer, got [[", "...]"),
        ("rebalance: {{source: {}, target_fraction: 0.1}}", "rebalance source [[", "...] not declared"),
    ], ids=["seed", "rebalance-source"])
    def test_alias_bomb_under_a_known_key_fails_at_once(self, tmp_path, key, prefix, suffix):
        # Eight levels of ten aliases: 10**9 strings if the value were printed whole.
        levels = "".join(f"&l{i} [{', '.join([f'*l{i - 1}'] * 10)}], " for i in range(1, 8))
        bomb = f"[&l0 [{', '.join(['x'] * 10)}], {levels}*l7]"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(_SOURCE + key.format(bomb) + "\n", encoding="utf-8")
        # Read in a child process, whose time-out also ends a repr that holds
        # the interpreter lock for good.
        script = ("import sys, time\nfrom piiprep.pipeline import PipelineConfig\n"
                  "start = time.perf_counter()\ntry:\n    PipelineConfig.from_file(sys.argv[1])\n"
                  "except Exception as e:\n    print(time.perf_counter() - start, type(e).__name__, e)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(cfg)], capture_output=True,
                              text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        seconds, kind, message = proc.stdout.rstrip("\n").split(" ", 2)
        assert float(seconds) < 1
        assert kind == "ConfigError"
        assert message.startswith(f"c.yaml: {prefix}")
        assert message.endswith(suffix)

    def test_out_dir_over_a_source_is_data_error(self, runner, tmp_path):
        source = tmp_path / "a.jsonl"
        source.write_text('{"id":"r0","tokens":["x"],"labels":["B-NAME"],"source":"a"}\n',
                          encoding="utf-8")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(_SOURCE + "split_fractions: {a: 1}\nrare_label_threshold: 0\n",
                       encoding="utf-8")
        before = source.read_bytes()
        result = runner.invoke(main, ["prepare", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output == "Error: split 'a' would overwrite the file of source 'a': a.jsonl\n"
        assert source.read_bytes() == before

    def test_split_name_that_just_fits_is_written(self, runner, tmp_path):
        name = "é" * 117 + "x"  # <name>.jsonl.manifest.json takes exactly 255 UTF-8 bytes
        (tmp_path / "a.jsonl").write_text(
            '{"id":"r0","tokens":["x"],"labels":["B-NAME"],"source":"a"}\n', encoding="utf-8")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(_SOURCE + f"split_fractions: {{{name}: 1}}\nrare_label_threshold: 0\n",
                       encoding="utf-8")
        result = runner.invoke(main, ["prepare", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / f"{name}.jsonl.manifest.json").is_file()

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


def mixed_artifact(path: Path, n: int = 400) -> None:
    """n seeded records from three sources of unequal size, interleaved."""
    rng = random.Random(17)
    labels = ["O", "B-NAME", "I-NAME", "B-EMAIL", "B-PHONE", "I-PHONE"]
    rows = [(f"r{i:04d}", [rng.choice(labels) for _ in range(rng.randint(1, 6))],
             rng.choices(["web", "mail", "chat"], weights=[5, 3, 1])[0])
            for i in range(n)]
    rng.shuffle(rows)
    write_artifact(path, rows)


def pipe_of(path: Path):
    """A pipe holding path's bytes, as the read end's file descriptor."""
    r, w = os.pipe()
    os.write(w, path.read_bytes())
    os.close(w)
    return r


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
        with out.open() as f:
            assert sum(1 for _ in f) == 5
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

    def test_oversized_n_names_the_file_and_option(self, runner, tmp_path):
        art = tmp_path / "one.jsonl"
        write_artifact(art, [("r1", ["B-NAME"], "a")])
        result = runner.invoke(main, [
            "sample", "--input", str(art), "--n", "3", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code == 1
        assert result.output == "Error: one.jsonl: --n 3 exceeds its 1 records\n"
        assert not (tmp_path / "x.jsonl").exists()

    # SHA-256 of the subset and its manifest drawn from mixed_artifact, taken
    # while sample still held every input record.
    _SAMPLE_DIGESTS = {
        (1, 0): ("905f6b1948f9c9345eb71461fcac325c712fd8133d0d9dc56eae4bb3781cfeaa",
                 "aabf698e8712d4934897b52d669427b1a7e806ec52b745eddc4bb5cb09e22323"),
        (37, 5): ("8b4ede07b6001c96255dd1d2409971f667843e13c405b90ddc6e29c0177e382e",
                  "d7127a613223220aa55f9a541b5adf15234fc9308f0409758db0e1aeba634d02"),
        (150, 42): ("9c4dc872cae3171835fef03ecd2236a8377b0b874799169cac74720b550ef3e4",
                    "f2e9042fdc14e67e2dc23d70f406f0e3a8b033d22e049210f60fac8377d71029"),
    }

    @staticmethod
    def digests(out: Path) -> tuple[str, str]:
        manifest = out.with_name(out.name + ".manifest.json")
        return (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(manifest.read_bytes()).hexdigest())

    @pytest.mark.parametrize("n, seed", sorted(_SAMPLE_DIGESTS))
    def test_bytes_are_pinned(self, runner, tmp_path, n, seed):
        art, out = tmp_path / "art.jsonl", tmp_path / "sub.jsonl"
        mixed_artifact(art)
        result = runner.invoke(main, [
            "sample", "--input", str(art), "--n", str(n), "--seed", str(seed), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert self.digests(out) == self._SAMPLE_DIGESTS[n, seed]

    @pytest.mark.parametrize("hash_name", sorted(COLLIDING_HASHES))
    def test_colliding_ids_give_the_same_bytes(self, runner, tmp_path, monkeypatch, hash_name):
        monkeypatch.setattr(idindex, "_id_hash", COLLIDING_HASHES[hash_name])
        self.test_bytes_are_pinned(runner, tmp_path, 37, 5)

    def test_input_changed_before_read_back(self, runner, tmp_path, monkeypatch):
        art, out = tmp_path / "art.jsonl", tmp_path / "sub.jsonl"
        mixed_artifact(art)
        real_sample_groups = cli.sample_groups

        def truncating(groups, n, seed):
            chosen = real_sample_groups(groups, n, seed)
            art.write_bytes(art.read_bytes()[:-1000])
            return chosen

        monkeypatch.setattr(cli, "sample_groups", truncating)
        result = runner.invoke(main, [
            "sample", "--input", str(art), "--n", "400", "--out", str(out),
        ])
        assert result.exit_code == 1
        # Every row is drawn, so the cut lines are among those read back.
        assert re.fullmatch(r"Error: art\.jsonl:\d+: input file changed while sampling\n",
                            result.output), result.output
        assert not out.exists()

    def test_pipe_input_rejected(self, runner, artifact, tmp_path):
        r = pipe_of(artifact)
        try:
            result = runner.invoke(main, [
                "sample", "--input", f"/dev/fd/{r}", "--n", "5", "--out", str(tmp_path / "x.jsonl"),
            ])
        finally:
            os.close(r)
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {r}: sample reads its input twice, so it must be a regular file\n")
        assert not (tmp_path / "x.jsonl").exists()

    def test_out_may_be_the_input(self, runner, tmp_path):
        art = tmp_path / "sub.jsonl"  # the manifest names the artifact
        mixed_artifact(art)
        result = runner.invoke(main, [
            "sample", "--input", str(art), "--n", "37", "--seed", "5", "--out", str(art),
        ])
        assert result.exit_code == 0, result.output
        assert self.digests(art) == self._SAMPLE_DIGESTS[37, 5]


class TestValidate:
    def test_pipe_input_rejected(self, runner, tmp_path):
        p = tmp_path / "art.jsonl"
        write_artifact(p, [("r0", ["B-NAME"], "a")])
        r = pipe_of(p)
        try:
            result = runner.invoke(main, ["validate", "--input", f"/dev/fd/{r}"])
        finally:
            os.close(r)
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {r}: validate reads its input twice, so it must be a regular file\n")

    @pytest.mark.parametrize("hash_name", sorted(COLLIDING_HASHES))
    def test_colliding_ids_give_the_same_counts(self, runner, tmp_path, monkeypatch, hash_name):
        p = tmp_path / "art.jsonl"
        mixed_artifact(p)
        expected = runner.invoke(main, ["validate", "--input", str(p)])
        monkeypatch.setattr(idindex, "_id_hash", COLLIDING_HASHES[hash_name])
        result = runner.invoke(main, ["validate", "--input", str(p)])
        assert (result.exit_code, result.output) == (0, expected.output)

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


# A third line that is an error of its own, after a second line that repeats
# the first line's id.
_AFTER_DUPLICATE = {
    "malformed": "not json",
    "unknown-type": '{"id":"r1","tokens":["t"],"labels":["B-WIDGET"],"source":"a"}',
}


@pytest.mark.parametrize("hash_name", ["real", *sorted(COLLIDING_HASHES)])
@pytest.mark.parametrize("third", sorted(_AFTER_DUPLICATE))
@pytest.mark.parametrize("command", ["prepare", "validate", "sample"])
def test_duplicate_is_reported_before_a_later_error(
    runner, tmp_path, monkeypatch, command, third, hash_name
):
    line = '{"id":"r0","tokens":["t"],"labels":["B-NAME"],"source":"a"}'
    (tmp_path / "a.jsonl").write_text(f"{line}\n{line}\n{_AFTER_DUPLICATE[third]}\n",
                                      encoding="utf-8")
    (tmp_path / "c.yaml").write_text(_SOURCE + "rare_label_threshold: 0\n", encoding="utf-8")
    argv = {
        "prepare": ["prepare", "--config", str(tmp_path / "c.yaml")],
        "validate": ["validate", "--input", str(tmp_path / "a.jsonl")],
        "sample": ["sample", "--input", str(tmp_path / "a.jsonl"), "--n", "1",
                   "--out", str(tmp_path / "x.jsonl")],
    }[command]
    if hash_name != "real":
        monkeypatch.setattr(idindex, "_id_hash", COLLIDING_HASHES[hash_name])
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.output == "Error: a.jsonl:2: duplicate record id 'r0'\n"
    if command == "prepare":  # and split after each line
        monkeypatch.setattr(workers, "cpus", lambda: 4)
        monkeypatch.setattr(workers, "SPLIT_MIN_BYTES", 0)
        split = runner.invoke(main, argv)
        assert (split.exit_code, split.output) == (result.exit_code, result.output)


@pytest.mark.parametrize("argv, per_record", [
    (["validate", "--input", "{art}"], 32),
    (["sample", "--input", "{art}", "--n", "100", "--out", "{out}"], 40),
], ids=["validate", "sample"])
def test_memory_per_input_record(runner, tmp_path, argv, per_record):
    """validate and sample keep a line's offset and id key, not its record or id.

    The traced peak grows by at most per_record bytes per input record from
    10,000 records to 30,000: by about 20 here, where the set of ids took
    about 200 for validate and the list of every Record about 700 for
    sample. A first, untraced run fills the caches every run shares, such
    as the label summaries, so that their size is not counted per record.
    """
    art, out = tmp_path / "art.jsonl", tmp_path / "sub.jsonl"
    argv = [a.format(art=art, out=out) for a in argv]

    def traced_peak(n: int) -> int:
        mixed_artifact(art, n)
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        return peak

    mixed_artifact(art, 10_000)
    assert runner.invoke(main, argv).exit_code == 0
    growth = (traced_peak(30_000) - traced_peak(10_000)) / 20_000
    assert growth <= per_record, f"{growth:.0f} bytes per record"


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


# Line 2 of each file holds a JSON value nested deeper than the decoder goes.
_TOO_DEEP = "[" * 1000 + "]" * 1000 + "\n"
_GOOD_LINE = '{"id":"r1","tokens":["x"],"labels":["B-NAME"],"source":"a"}\n'


@pytest.mark.parametrize("argv, text", [
    (["prepare", "--config", "{cfg}"], _GOOD_LINE + _TOO_DEEP),
    (["validate", "--input", "{f}"], _GOOD_LINE + _TOO_DEEP),
    (["score", "--gold", "{f}", "--pred", "{f}"], _GOOD_LINE + _TOO_DEEP),
    (["score", "--gold", "{f}", "--pred", "{f}", "--unordered"], _GOOD_LINE + _TOO_DEEP),
    (["compare", "--reports", "{f}"], "\n" + _TOO_DEEP),
], ids=["prepare", "validate", "score", "score-unordered", "compare-reports"])
def test_too_deeply_nested_json_is_located_data_error(runner, tmp_path, argv, text):
    f, cfg = tmp_path / "in.txt", tmp_path / "cfg.yaml"
    f.write_text(text, encoding="utf-8")
    cfg.write_text("sources:\n  - {name: a, path: in.txt}\n", encoding="utf-8")
    result = runner.invoke(main, [a.format(f=f, cfg=cfg) for a in argv])
    assert result.exit_code == 1
    assert result.output == "Error: in.txt:2: malformed JSON: nested too deeply\n"


@pytest.mark.parametrize("bad", ["X-A", "B-", "b-NAME"])
def test_malformed_label_reads_the_same_in_every_reader(runner, tmp_path, bad):
    art, cfg = tmp_path / "a.jsonl", tmp_path / "cfg.yaml"
    write_artifact(art, [("r1", ["O", "B-NAME"], "a")])
    art.write_text(art.read_text(encoding="utf-8").replace("B-NAME", bad), encoding="utf-8")
    cfg.write_text("sources:\n  - {name: a, path: a.jsonl}\n", encoding="utf-8")
    for argv in (["validate", "--input", art], ["sample", "--input", art, "--n", "1",
                                                "--out", tmp_path / "s.jsonl"],
                 ["prepare", "--config", cfg, "--out-dir", tmp_path / "out"],
                 ["score", "--gold", art, "--pred", art],
                 ["score", "--gold", art, "--pred", art, "--unordered"]):
        result = runner.invoke(main, [str(a) for a in argv])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: a.jsonl:1: record r1: malformed BIO label at position 1: {bad!r}\n")


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
