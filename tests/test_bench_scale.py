"""benchmarks/bench_scale.py runs every command and fails on a bad checkout.

The harness runs each command in a fresh process per checkout; here the repo
is given twice under two labels, at a size small enough that no command
starts a worker, so both labels must report the same outputs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time

from conftest import REPO

BENCH = REPO / "benchmarks" / "bench_scale.py"
COMMANDS = ("prepare", "score", "score-unordered", "validate", "sample")
RUN_FIELDS = {"wall_s", "peak_rss_mb", "workers", "workers_peak_mb", "total_peak_mb",
              "workers_pss_mb", "total_pss_mb", "children_maxrss_mb", "kernel", "checkout",
              "round"}


def bench(tmp_path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH), "--work", str(tmp_path / "work"),
         "--out", str(tmp_path / "bench.json"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_every_command_runs_on_two_labels(tmp_path):
    args = ["--checkout", f"one={REPO}", "--checkout", f"two={REPO}", "--size", "300:1"]
    for command in COMMANDS:
        args += ["--command", command]
    proc = bench(tmp_path, *args)
    assert proc.returncode == 0, proc.stderr

    doc = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert set(doc["checkouts"]) == {"one", "two"}
    assert doc["checkouts"]["one"] == doc["checkouts"]["two"]
    assert set(doc["checkouts"]["one"]) == {"git_commit", "src_lines", "src_sha256",
                                           "speedups_built"}
    entry = doc["sizes"]["300"]
    assert set(entry) == set(COMMANDS)
    for command in COMMANDS:
        runs = entry[command]["runs"]
        assert [run["checkout"] for run in runs] == ["one", "two"]
        for run in runs:
            assert set(run) == RUN_FIELDS
            assert run["workers"] == 0 and run["workers_peak_mb"] == run["workers_pss_mb"] == 0
            assert run["total_peak_mb"] == run["total_pss_mb"] == run["peak_rss_mb"] > 0
            assert run["kernel"].startswith("piiprep.")
        assert set(entry[command]["median"]) == {"one", "two"}
    assert set(entry["prepare"]["outputs"]) >= {"train.jsonl", "train.jsonl.manifest.json"}
    assert set(entry["score"]["outputs"]) == {"report"}
    assert entry["score-unordered"]["outputs"] == entry["score"]["outputs"]
    assert set(entry["validate"]["outputs"]) == {"stdout"}
    assert set(entry["sample"]["outputs"]) == {"stdout", "subset.jsonl",
                                               "subset.jsonl.manifest.json"}


def test_checkout_without_package_is_named(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = bench(tmp_path, "--checkout", f"bare={empty}", "--command", "score",
                 "--size", "10:1")
    assert proc.returncode == 2
    assert f"--checkout bare={empty}: no src/piiprep in {empty}" in proc.stderr
    assert not (tmp_path / "bench.json").exists()


def test_worker_peaks_finds_forked_workers():
    spec = importlib.util.spec_from_file_location("bench_scale", BENCH)
    bench_scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_scale)
    peaks = bench_scale.WorkerPeaks()
    pid = os.fork()
    if pid == 0:
        try:
            held = bytearray(64 << 20)
            held[::4096] = b"x" * len(held[::4096])
            time.sleep(0.3)
        finally:
            os._exit(0)
    time.sleep(0.4)
    os.waitpid(pid, 0)
    workers, peak_kb, pss_kb = peaks.close()
    assert workers == 1
    assert peak_kb >= 64 << 10 and pss_kb >= 64 << 10
