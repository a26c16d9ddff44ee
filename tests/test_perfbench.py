"""The benchmark's tracer still binds every piiprep name it wraps.

perfbench/spans.py wraps piiprep functions by name, from outside src/, so a
renamed or moved function makes `perfbench/run.py --trace 1` fail. Each
workload runs once here, traced, on about 200 generated records.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO

PERFBENCH = REPO / "perfbench"


@pytest.mark.parametrize("workload, make, counter", [
    ("score_ordered", "make_score_inputs", "scorer.pairs"),
    ("score_unordered", "make_score_inputs", "scorer.pairs"),
    ("prepare_mixed", "make_prepare_inputs", "pipeline.consolidate.records_out"),
])
def test_traced_workload_runs(tmp_path, monkeypatch, workload, make, counter):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    getattr(gen, make)(inputs, 1, 200)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--mode", "trace", "--workload", workload,
         "--inputs", str(inputs), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=REPO,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    assert trace["counts"].get(counter, 0) > 0
