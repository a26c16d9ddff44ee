#!/usr/bin/env python3
"""Wall time and peak memory of ordered ``score`` at 100k and 1M pairs.

Writes perfbench's score inputs (the records of perfbench/gen.py's
make_score_inputs, seed 1: gold.jsonl and pred.jsonl in the same order) once
per size, one line at a time, so generating 1M pairs holds no more than one
record. Then, for each round and each checkout given, it runs ``stream_score``
on them in a fresh process with that checkout's ``src`` on PYTHONPATH; the
checkout that goes first alternates from round to round. Each run reports:

- wall_s: stream_score plus finalize and the report's JSON, as perfbench
  times a score run;
- peak_rss_mb: the scoring process's own VmHWM (unlike ru_maxrss it leaves
  out memory the benchmark held at fork);
- workers_peak_mb: the sum over the worker processes scoring started of
  each one's VmHWM, read from /proc/<pid>/status every 10 ms while it runs
  (VmHWM only grows, so the last reading is its peak up to 10 ms before it
  exits); total_peak_mb is peak_rss_mb plus workers_peak_mb;
- children_maxrss_mb: RUSAGE_CHILDREN's ru_maxrss, for comparison only. It
  overstates a worker's peak: Linux carries the high-water mark of the
  memory the worker shared with the scoring process up to exec into it.

Every run must write the same report bytes, or the benchmark fails.

    python3 benchmarks/bench_score_scale.py --checkout parent=/path/to/parent \\
        --checkout change=. --size 100000:5 --size 1000000:5 --out BENCH.json

--size N:R runs R rounds at N pairs. Inputs are kept under --work between
invocations. The JSON written to --out holds every run, per-size medians per
checkout, the host facts and each checkout's source line count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench_prepare_scale import git_commit, host_facts, src_lines

REPO = Path(__file__).resolve().parent.parent
SEED = 1
SAMPLE_S = 0.01
KEYS = ("wall_s", "peak_rss_mb", "workers_peak_mb", "total_peak_mb", "children_maxrss_mb")


def vm_hwm_kb(pid: int | str) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            return next((int(line.split()[1]) for line in f if line.startswith("VmHWM:")), None)
    except OSError:
        return None


class WorkerPeaks:
    """Every process started through subprocess.Popen, with its last VmHWM reading."""

    def __init__(self) -> None:
        self.peaks: dict[int, int] = {}
        self.stop = threading.Event()
        peaks = self.peaks

        class Watched(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                peaks[self.pid] = 0

        subprocess.Popen = Watched
        self.thread = threading.Thread(target=self.sample, daemon=True)
        self.thread.start()

    def sample(self) -> None:
        while not self.stop.wait(SAMPLE_S):
            for pid in list(self.peaks):
                kb = vm_hwm_kb(pid)
                if kb is not None:
                    self.peaks[pid] = max(self.peaks[pid], kb)

    def close(self) -> tuple[int, int]:
        """(workers started, sum of their peaks in KiB)."""
        self.stop.set()
        self.thread.join()
        return len(self.peaks), sum(self.peaks.values())


def child(src: Path, inputs: Path) -> int:
    """One run, in this process: time ordered scoring and print one JSON line."""
    from piiprep.scorer import finalize, stream_score

    import piiprep

    if Path(piiprep.__file__).resolve().parent != src.resolve() / "piiprep":
        print(f"piiprep imported from {piiprep.__file__}, not {src}", file=sys.stderr)
        return 2
    workers = WorkerPeaks()
    t0 = time.perf_counter()
    result = stream_score(inputs / "gold.jsonl", inputs / "pred.jsonl")
    report = finalize(result.counters, records=result.records, chunks=result.chunks).to_json()
    wall_s = time.perf_counter() - t0
    n_workers, workers_kb = workers.close()
    peak_kb = vm_hwm_kb("self")
    print(json.dumps({
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "workers": n_workers,
        "workers_peak_mb": workers_kb / 1024,
        "total_peak_mb": (peak_kb + workers_kb) / 1024,
        "children_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "records": result.records,
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }))
    return 0


def inputs_for(work: Path, n_pairs: int) -> tuple[Path, dict]:
    """gold.jsonl and pred.jsonl for n_pairs, written once under work, one line at a time."""
    path = work / f"score-{n_pairs}"
    facts_path = path / "facts.json"
    if not facts_path.exists():
        sys.path.insert(0, str(REPO / "perfbench"))
        import gen

        path.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        rng = random.Random(f"score|{SEED}")  # make_score_inputs' draws, in its order
        tokens = 0
        with (path / "gold.jsonl").open("w", encoding="utf-8", newline="\n") as gf, \
                (path / "pred.jsonl").open("w", encoding="utf-8", newline="\n") as pf:
            for i in range(n_pairs):
                gold = gen._gold_labels(rng)
                pred = gen._perturbed(gold, rng)
                rid = f"doc-{i:07d}"
                toks = [gen._WORDS[(i + j) % len(gen._WORDS)] for j in range(len(gold))]
                tokens += len(gold)
                gf.write(gen._dump({"id": rid, "tokens": toks, "labels": gold,
                                    "source": "synthetic"}))
                pf.write(gen._dump({"id": rid, "labels": pred}))
        facts = {
            "records": n_pairs,
            "tokens": tokens,
            "gold_bytes": (path / "gold.jsonl").stat().st_size,
            "pred_bytes": (path / "pred.jsonl").stat().st_size,
            "generation_s": time.perf_counter() - t0,
        }
        facts_path.write_text(json.dumps(facts), encoding="utf-8")
    return path, json.loads(facts_path.read_text(encoding="utf-8"))


def run_once(checkout: Path, inputs: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout / "src"),
         str(inputs)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run of {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(*map(Path, sys.argv[2:4]))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                    help="a repository checkout to run; repeat for each side")
    ap.add_argument("--size", action="append", required=True, metavar="PAIRS:ROUNDS")
    ap.add_argument("--work", type=Path, default=REPO / ".bench_work" / "score_scale")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    checkouts = {}
    for item in args.checkout:
        label, _, directory = item.partition("=")
        checkouts[label] = Path(directory).resolve()
    doc = {
        "benchmark": "ordered score at scale (benchmarks/bench_score_scale.py)",
        "workload": f"perfbench/gen.py make_score_inputs records, seed {SEED}, same order",
        "host": dict(host_facts(), usable_cpus=len(os.sched_getaffinity(0))),
        "memory": "peak_rss_mb is the scoring process's VmHWM; workers_peak_mb sums each "
                  "worker's VmHWM, sampled from /proc every 10 ms while it runs; "
                  "children_maxrss_mb is RUSAGE_CHILDREN, which overstates a worker's peak "
                  "by the memory it shared with the scoring process up to exec",
        "checkouts": {label: {"git_commit": git_commit(path), "src_lines": src_lines(path)}
                      for label, path in checkouts.items()},
        "sizes": {},
    }
    for spec in args.size:
        n_pairs, _, rounds = spec.partition(":")
        n_pairs, rounds = int(n_pairs), int(rounds or 1)
        inputs, facts = inputs_for(args.work, n_pairs)
        runs = []
        order = list(checkouts)
        for r in range(rounds):
            for label in order if r % 2 == 0 else order[::-1]:
                res = run_once(checkouts[label], inputs)
                res.update(checkout=label, round=r)
                runs.append(res)
                print(f"{n_pairs} pairs, round {r}, {label}: {res['wall_s']:.2f} s, "
                      f"{res['peak_rss_mb']:.1f} MB + {res['workers']} workers "
                      f"{res['workers_peak_mb']:.1f} MB", flush=True)
        reports = {(run.pop("report_sha256"), run.pop("records")) for run in runs}
        if len(reports) != 1:
            print(f"runs at {n_pairs} pairs wrote different reports", file=sys.stderr)
            return 1
        digest, records = reports.pop()
        doc["sizes"][str(n_pairs)] = {
            "input_facts": facts,
            "records": records,
            "report_sha256": digest,
            "median": {label: {key: statistics.median(run[key] for run in runs
                                                      if run["checkout"] == label)
                               for key in KEYS}
                       for label in checkouts},
            "runs": runs,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
