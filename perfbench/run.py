#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``piiprep prepare`` and ``score``.

    python3 perfbench/run.py --workload score_ordered --seed 1 --seconds 30 --trace 0

Run from the repository root. The harness generates the workload's inputs
from the seed (cached under .bench_work/inputs), checks once that
``prepare`` on demo/config.yaml reproduces the committed demo/out/ bytes,
then runs the workload in a fresh child process, one run at a time, until
--seconds have passed. Each child imports piiprep from ./src and calls the
same public functions as the CLI. Every output is checked against an oracle
that shares no code with piiprep.

Each workload run is bracketed by runs of a fixed reference task in a fresh
child of the same kind (decode and span-count 5000 seeded pairs with the
oracle's own code). The host's speed swings by up to 2x over seconds to
minutes, and a fresh process next to the run slows and speeds up with it,
so the gated times are normalised: ``norm_wall_s`` is a run's wall time
times REF_NOMINAL_S over the mean of the two reference times around it.

With --trace 1 it also makes one traced run (every piiprep layer wrapped by
spans from perfbench/spans.py) and one tracemalloc run, and reports the
per-layer metrics instead of the end-to-end ones. The metric names come
from BENCHMARK.json. Everything is printed by name with its unit; the last
line of stdout is the JSON result, and the full report, with facts and
artifact digests, is written to .bench_work/report-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
from spans import ROOT, SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".bench_work"
# Input records (score) or lines (prepare). Small enough that a 30 s run holds
# 15-20 workload runs to take medians over on a noisy 2-core machine; prepare
# costs about twice as much per line as score.
SIZES = {"score_ordered": 25_000, "score_unordered": 25_000, "prepare_mixed": 12_500}
SETUP_SAMPLES = 15  # set-up-only runs per invocation, one after each workload run first
CACHED_INPUTS = 4
CHILD_TIMEOUT_S = 150
# The reference task's inputs never change, so its time measures only the host.
REF_SEED, REF_PAIRS = 0, 5000
# Normalised times read as seconds on a host where the reference task takes this
# long (about its median on the 2-vCPU Xeon VM the bounds were set on).
REF_NOMINAL_S = 0.25


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def generated(path: Path, make, seed: int, size: int) -> tuple[dict, float]:
    """Facts of the inputs make(dir, seed, size) wrote to path, made once and reused."""
    facts_path = path / "facts.json"
    gen_s = 0.0
    if not facts_path.exists():
        shutil.rmtree(path, ignore_errors=True)
        tmp = path.parent / f".tmp-{path.name}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t0 = time.perf_counter()
        facts = make(tmp, seed, size)
        gen_s = time.perf_counter() - t0
        (tmp / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
        tmp.rename(path)
    return json.loads(facts_path.read_text(encoding="utf-8")), gen_s


def inputs_for(workload: str, seed: int, size: int) -> tuple[Path, dict, float]:
    """Generated inputs for (workload kind, seed, size), made once and reused."""
    kind = "prepare" if workload == "prepare_mixed" else "score"
    root = WORK / "inputs"
    path = root / f"{kind}-s{seed}-n{size}"
    make = gen.make_prepare_inputs if kind == "prepare" else gen.make_score_inputs
    facts, gen_s = generated(path, make, seed, size)
    (path / "facts.json").touch()
    cached = sorted(root.glob("*-s*-n*"), key=lambda p: (p / "facts.json").stat().st_mtime
                    if (p / "facts.json").exists() else 0)
    for old in cached[:-CACHED_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return path, facts, gen_s


def run_child(mode: str, workload: str, inputs: Path, out: Path) -> dict | None:
    """Run child.py once; its parsed result, or None when it failed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", workload,
           "--inputs", str(inputs), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} run of {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} run of {workload} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_gate() -> list[str]:
    """prepare on demo/config.yaml must reproduce the committed demo/out/ bytes."""
    out = WORK / "golden"
    if run_child("plain", "prepare_mixed", REPO / "demo", out) is None:
        return ["prepare on demo/config.yaml failed"]
    want = sorted(p.name for p in (REPO / "demo" / "out").iterdir())
    got = sorted(p.name for p in out.iterdir())
    if got != want:
        return [f"golden files {got} != {want}"]
    return [f"{n} differs from demo/out/{n}" for n in want
            if (out / n).read_bytes() != (REPO / "demo" / "out" / n).read_bytes()]


class Reference:
    """Times the reference task in a fresh child and checks its counts."""

    def __init__(self) -> None:
        self.inputs = WORK / f"ref-s{REF_SEED}-n{REF_PAIRS}"
        facts, _ = generated(self.inputs, gen.make_score_inputs, REF_SEED, REF_PAIRS)
        self.expected = facts["expected_counts"]
        self.out = WORK / "run" / "ref"
        self.samples: list[float] = []

    def __call__(self) -> float | None:
        res = run_child("ref", "ref", self.inputs, self.out)
        if res is None:
            return None
        counts = json.loads((self.out / "ref_counts.json").read_text(encoding="utf-8"))
        if counts != self.expected:
            print("perfbench: the reference task counted wrong", file=sys.stderr)
            return None
        self.samples.append(res["wall_s"])
        return res["wall_s"]


class Checker:
    """Oracle for one workload's outputs, applied to every child run."""

    def __init__(self, workload: str, inputs: Path, facts: dict) -> None:
        self.workload = workload
        self.inputs = inputs
        self.facts = facts
        self.digests: dict[str, str] | None = None
        self.taxonomy = oracle.load_taxonomy_types(
            REPO / "src" / "piiprep" / "fixtures" / "taxonomy.tsv")

    def __call__(self, res: dict | None, out: Path) -> list[str]:
        if res is None:
            return ["child failed"]
        if self.workload != "prepare_mixed":
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            return oracle.check_score_report(report, self.facts)
        digests = oracle.artifact_digests(out, gen.SPLITS)
        if self.digests is not None:
            return [] if digests == self.digests else ["artifact digests changed between runs"]
        errors = oracle.check_prepare_outputs(out, gen.SPLITS, self.facts, self.taxonomy,
                                              gen.RARE_TYPE, digests)
        # The first verified run of a seed also fixes its digests for later invocations.
        known = self.inputs / "digests.json"
        if known.exists() and json.loads(known.read_text(encoding="utf-8")) != digests:
            errors.append("artifact digests differ from an earlier invocation with this seed")
        if not errors:
            self.digests = digests
            if not known.exists():
                known.write_text(json.dumps(digests, indent=1), encoding="utf-8")
        return errors


def layer_metrics(trace: dict, facts: dict, untraced_wall: float, heap: dict) -> dict:
    self_s, counts = trace["self_s"], trace["counts"]
    m: dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    for span, secs in self_s.items():
        if span != ROOT:
            m[SELF_TIME_METRICS[span]] += secs
    for key in ("biospan.extract_calls", "biospan.spans_out", "records.lines_read",
                "records.bytes_written", "scorer.pairs", "scorer.chunks", "scorer.index_entries",
                "ingest.lines", "manifest.bytes_hashed", "manifest.reread_records"):
        m[key] = counts.get(key, 0)
    for step in ("rebalance", "cap", "filter_rare", "split"):
        for side in ("records_in", "records_out"):
            m[f"pipeline.{step}.{side}"] = counts.get(f"pipeline.{step}.{side}", 0)
    m["pipeline.consolidate.records_out"] = counts.get("pipeline.consolidate.records_out", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m["ingest.kept_ratio"] = ratio(counts.get("ingest.kept", 0), m["ingest.lines"])
    m["pipeline.kept_ratio"] = ratio(m["pipeline.split.records_out"],
                                     m["pipeline.consolidate.records_out"])
    m["manifest.reread_ratio"] = ratio(m["manifest.reread_records"],
                                       counts.get("records.records_written", 0))
    wall = trace["total_s"][ROOT]
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = self_s[ROOT]
    m["trace.overhead_frac"] = wall / untraced_wall - 1
    m["heap.py_peak_mb"] = heap["heap_peak_bytes"] / 2**20
    m["heap.chunk_ceiling_mb"] = 10 * heap["chunk_heap_bytes"] / 2**20
    return m


def git_commit() -> str:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = REPO / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def src_lines() -> int:
    """Lines of piiprep source, leaving out the generated _speedups.c."""
    files = [p for p in (REPO / "src" / "piiprep").rglob("*") if p.suffix in (".py", ".pyx")]
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = args.workload

    spec_path = REPO / "BENCHMARK.json"
    if not (REPO / "src" / "piiprep" / "__init__.py").is_file():
        return fail(f"no piiprep sources under {REPO / 'src'}")
    if not (REPO / "demo" / "config.yaml").is_file() or not (REPO / "demo" / "out").is_dir():
        return fail("demo/config.yaml and demo/out/ are needed for the golden-bytes gate")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    inputs, facts, gen_s = inputs_for(w, args.seed, SIZES[w])
    errors = golden_gate()  # also compiles the package's bytecode before timing
    golden_ok = not errors
    check = Checker(w, inputs, facts)
    out = WORK / "run" / w

    runs: list[dict] = []
    norm_walls: list[float] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    attempted = failed = 0
    measured_s = 0.0
    ref = Reference()

    t0 = time.perf_counter()
    before = ref()
    if before is None:
        return fail("the reference task failed")
    while attempted == 0 or time.perf_counter() - t0 < args.seconds \
            or len(setups) < SETUP_SAMPLES:
        # One step: [workload run,] [set-up-only run,] reference task. Both runs
        # are normalised by the mean of the reference times just before and after.
        plain = attempted == 0 or time.perf_counter() - t0 < args.seconds
        if plain:
            attempted += 1
            res = run_child("plain", w, inputs, out)
        setup = None
        if len(setups) < SETUP_SAMPLES:
            setup = run_child("setup", w, inputs, WORK / "run" / f"{w}-setup")
            if setup is None:
                return fail("set-up run failed")
        after = ref()
        if after is None:
            return fail("the reference task failed")
        scale = REF_NOMINAL_S / ((before + after) / 2)
        before = after
        if setup is not None:
            raw_setups.append(setup["setup_s"])
            setups.append(setup["setup_s"] * scale)
        if not plain:
            continue
        problems = check(res, out)
        if res is not None:
            runs.append(res)
            norm_walls.append(res["wall_s"] * scale)
        if problems:
            failed += 1
            errors += problems
        measured_s = time.perf_counter() - t0
    if not runs:
        return fail(f"all {attempted} runs of {w} exited with an error")

    walls = [r["wall_s"] for r in runs]
    n_in = facts["records"]
    e2e = {
        "setup_s": statistics.median(setups),
        "norm_wall_s": statistics.median(norm_walls),
        "norm_records_per_s": statistics.median(n_in / x for x in norm_walls),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in runs),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_wall_s": statistics.median(walls),
        "raw_records_per_s": statistics.median(n_in / x for x in walls),
        "ref_s": statistics.median(ref.samples),
    }
    layers: dict[str, float] = {}
    trace_doc = None
    sums_ok = True
    if args.trace:
        results = {}
        for mode in ("trace", "heap"):
            attempted += 1
            mode_out = WORK / "run" / f"{w}-{mode}"
            results[mode] = res = run_child(mode, w, inputs, mode_out)
            problems = check(res, mode_out)
            if problems:
                failed += 1
                errors += problems
        if results["trace"] is None or results["heap"] is None:
            return fail("the traced or heap run exited with an error")
        trace_doc = json.loads((WORK / "run" / f"{w}-trace" / "trace.json").read_text())
        layers = layer_metrics(trace_doc, facts, e2e["raw_wall_s"], results["heap"])
        parts = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.wall_s")
        if abs(parts - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"]:
            errors.append(f"layer self times add up to {parts}, not {layers['trace.wall_s']}")
            sums_ok = False

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    every = {**e2e, "error_frac": failed / attempted, **layers}
    units.update({"error_frac": "ratio", "raw_setup_s": "s", "raw_wall_s": "s",
                  "raw_records_per_s": "1/s", "ref_s": "s"})
    report_facts = {
        "workload": w, "seed": args.seed, "input_records": n_in,
        "input_tokens": facts["tokens"], "input_bytes": facts["bytes"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "biospan.kernel": runs[0]["kernel"], "git_commit": git_commit(),
        "src_lines": src_lines(), "input_generation_s": gen_s,
        "measured_s": measured_s, "runs": len(runs), "setup_samples": len(setups),
        "golden_bytes_gate": "pass" if golden_ok else "FAIL",
    }
    print(f"perfbench {w} seed {args.seed}: {len(runs)} runs in {measured_s:.1f} s")
    for k, v in report_facts.items():
        print(f"  fact {k:<34} {v}")
    for k, v in every.items():
        print(f"  {k:<40} {v:>16.6g} {units.get(k, '')}")
    for e in errors:
        print(f"  ERROR {e}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in every]
    if missing:
        return fail(f"BENCHMARK.json names metrics this harness does not produce: {missing}")
    correct = golden_ok and sums_ok and failed == 0
    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{w}-{args.seed}-{args.trace}.json").write_text(json.dumps({
        "facts": report_facts, "correct": correct, "errors": errors,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in every.items()},
        "samples": {"raw_wall_s": walls, "norm_wall_s": norm_walls, "raw_setup_s": raw_setups,
                    "setup_s": setups, "ref_s": ref.samples},
        "digests": check.digests, "trace": trace_doc,
    }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": every[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
