#!/usr/bin/env python3
"""Wall time and peak memory of piiprep commands at 100k and 1M records.

For each size, each --command and each round, it runs the command once per
checkout given, each run in a fresh process with that checkout's ``src`` on
PYTHONPATH; the checkout that goes first alternates from round to round.
The inputs come from perfbench/gen.py (seed 1) and are made once per size
under --work, one line at a time:

- prepare: perfbench's prepare_mixed inputs at N lines (two BIO JSONL
  sources and one inline-tagged source, with a rebalance, a cap and the
  rare-label filter in the config); the run times ``run_prepare`` alone and
  digests every file it writes;
- score: the records of gen.make_score_inputs for N pairs, gold.jsonl and
  pred.jsonl in the same order; the run times ordered ``stream_score`` plus
  ``finalize`` and the report's JSON, as perfbench times a score run, and
  digests the report;
- score-unordered: the same, with pred-shuffled.jsonl, pred.jsonl's lines in
  a seeded random order, scored by ``stream_score(..., unordered=True)``;
- validate, sample: the train.jsonl that ``prepare`` writes from the
  prepare inputs at N lines, made once with the first checkout; the run
  times ``piiprep validate`` or ``piiprep sample --n 100`` through
  ``cli.main`` and digests its stdout and every file it writes.

Every run of a command at a size must give the same digests, or the
benchmark fails. Each run reports:

- wall_s: the timed call above;
- peak_rss_mb: the command's process's own VmHWM (unlike ru_maxrss it
  leaves out memory the benchmark held at fork);
- workers, workers_peak_mb: the worker processes the command started, found
  as the children listed in /proc/self/task/*/children every 10 ms while it
  runs, and the sum of each one's VmHWM, read from /proc/<pid>/status at the
  same times (VmHWM only grows, so the last reading is its peak up to 10 ms
  before it exits); total_peak_mb is peak_rss_mb plus workers_peak_mb. A
  forked worker's VmHWM counts the pages it shares with the command's
  process;
- workers_pss_mb: the sum of each worker's highest Pss, read from
  /proc/<pid>/smaps_rollup with VmHWM. Pss counts a page that k processes
  map as 1/k page in each, so a page a worker still shares with the
  command's process counts half in the worker, where VmHWM counts it whole;
  total_pss_mb is peak_rss_mb plus workers_pss_mb;
- children_maxrss_mb: RUSAGE_CHILDREN's ru_maxrss, for comparison only. A
  forked worker's ru_maxrss starts at the command process's resident size
  when it forked;
- kernel: the module of the ``biospan.extract_span_tuples`` it imported.

    git worktree add --detach /tmp/parent <commit>
    python3 benchmarks/bench_scale.py --checkout parent=/tmp/parent \\
        --checkout change=. --command prepare --command score \\
        --size 100000:5 --size 1000000:5 --out BENCH.json

Make each side a git work tree (``git worktree add --detach <dir>
<commit>``) so that its commit can be read; an export records
``git_commit: unknown``, and its ``src_sha256`` then identifies it.
--size N:R runs R rounds at N lines (pairs for score). The JSON written to
--out holds every run, per-size medians per command and checkout, the host
facts and, per checkout, its commit, source line count, source digest and
any built ``_speedups`` extension.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import hashlib
import importlib.machinery
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SEED = 1
SAMPLE_S = 0.01
KEYS = ("wall_s", "peak_rss_mb", "workers_peak_mb", "total_peak_mb", "workers_pss_mb",
        "total_pss_mb", "children_maxrss_mb")
EXTENSIONS = tuple(importlib.machinery.EXTENSION_SUFFIXES)


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# The inputs of each command: each makes them once under work and returns
# (path, facts); the validate and sample artifact is written by a prepare run
# of `checkout`.

def _gen():
    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    return gen


def prepare_inputs(work: Path, n_lines: int, checkout: Path) -> tuple[Path, dict]:
    """perfbench's prepare_mixed inputs at n_lines."""
    path = work / f"prepare-{n_lines}"
    facts_path = path / "facts.json"
    if not facts_path.exists():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        t0 = time.perf_counter()
        facts = _gen().make_prepare_inputs(path, SEED, n_lines)
        facts["generation_s"] = time.perf_counter() - t0
        facts_path.write_text(json.dumps(facts), encoding="utf-8")
    facts = json.loads(facts_path.read_text(encoding="utf-8"))
    return path, {k: facts[k] for k in ("records", "tokens", "bytes", "consolidated")}


def score_inputs(work: Path, n_pairs: int, checkout: Path) -> tuple[Path, dict]:
    """gold.jsonl and pred.jsonl for n_pairs, written one line at a time."""
    path = work / f"score-{n_pairs}"
    facts_path = path / "facts.json"
    if not facts_path.exists():
        gen = _gen()
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


def unordered_inputs(work: Path, n_pairs: int, checkout: Path) -> tuple[Path, dict]:
    """score_inputs, plus pred-shuffled.jsonl: pred.jsonl's lines in a seeded random order.

    It is copied one line at a time from a shuffled array of line offsets, so
    memory stays at 8 bytes a line.
    """
    path, facts = score_inputs(work, n_pairs, checkout)
    shuffled = path / "pred-shuffled.jsonl"
    if not shuffled.exists():
        offsets, offset = array("Q"), 0
        with (path / "pred.jsonl").open("rb") as f:
            for raw in f:
                offsets.append(offset)
                offset += len(raw)
        random.Random(f"shuffle|{SEED}").shuffle(offsets)
        part = path / "pred-shuffled.jsonl.part"
        with (path / "pred.jsonl").open("rb") as f, part.open("wb") as out:
            for offset in offsets:
                f.seek(offset)
                out.write(f.readline())
        part.replace(shuffled)
    return path, facts


def artifact_for(work: Path, n_lines: int, checkout: Path) -> tuple[Path, dict]:
    """The train.jsonl of a prepare run on n_lines generated lines."""
    inputs, _ = prepare_inputs(work, n_lines, checkout)
    out = work / f"artifact-{n_lines}"
    if not (out / "train.jsonl.manifest.json").exists():
        run_once(checkout, "prepare", inputs, out)
    manifest = json.loads((out / "train.jsonl.manifest.json").read_text(encoding="utf-8"))
    return out / "train.jsonl", {"input_lines": n_lines, "records": manifest["records"],
                                 "bytes": (out / "train.jsonl").stat().st_size}


# The timed call of each command. Each runs in the child: it does its setup
# untimed and returns the timed call, which returns the printed or returned
# text to digest beside the files written to out.

def time_prepare(inputs: Path, out: Path):
    from piiprep.pipeline import PipelineConfig, run_prepare

    config = PipelineConfig.from_file(inputs / "config.yaml")
    config.output_dir = out
    config.load_space()

    def call() -> dict[str, str]:
        run_prepare(config)
        return {}
    return call


def time_score(unordered: bool, inputs: Path, out: Path):
    from piiprep.scorer import finalize, stream_score

    pred = inputs / ("pred-shuffled.jsonl" if unordered else "pred.jsonl")

    def call() -> dict[str, str]:
        result = stream_score(inputs / "gold.jsonl", pred, unordered=unordered)
        report = finalize(result.counters, records=result.records, chunks=result.chunks)
        return {"report": report.to_json()}
    return call


def time_cli(argv: tuple[str, ...], inputs: Path, out: Path):
    from piiprep.cli import main

    args = [a.format(inputs=inputs, out=out) for a in argv]

    def call() -> dict[str, str]:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            main(args, standalone_mode=False)
        return {"stdout": printed.getvalue()}
    return call


VALIDATE = ("validate", "--input", "{inputs}")
SAMPLE = ("sample", "--input", "{inputs}", "--n", "100", "--seed", "42",
          "--out", "{out}/subset.jsonl")
COMMANDS = {  # name: (inputs, timed call)
    "prepare": (prepare_inputs, time_prepare),
    "score": (score_inputs, functools.partial(time_score, False)),
    "score-unordered": (unordered_inputs, functools.partial(time_score, True)),
    "validate": (artifact_for, functools.partial(time_cli, VALIDATE)),
    "sample": (artifact_for, functools.partial(time_cli, SAMPLE)),
}


def proc_kb(pid: int | str, field: str = "VmHWM", file: str = "status") -> int | None:
    """The field (in KiB) of /proc/<pid>/<file>, None if it cannot be read."""
    try:
        with open(f"/proc/{pid}/{file}", encoding="ascii") as f:
            return next((int(line.split()[1]) for line in f if line.startswith(field + ":")),
                        None)
    except OSError:
        return None


class WorkerPeaks:
    """Every child process of this process seen while it runs, with its last
    VmHWM reading and its highest Pss reading.

    Children are found in /proc/self/task/*/children at every reading, so
    forked workers are found whichever thread forks them; a child that lives
    less than SAMPLE_S may be missed.
    """

    def __init__(self) -> None:
        self.peaks: dict[int, int] = {}
        self.pss: dict[int, int] = {}
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.sample, daemon=True)
        self.thread.start()

    def sample(self) -> None:
        while not self.stop.wait(SAMPLE_S):
            for path in glob.glob("/proc/self/task/*/children"):
                try:
                    with open(path, encoding="ascii") as f:
                        pids = f.read().split()
                except OSError:
                    continue
                for pid in map(int, pids):
                    self.peaks.setdefault(pid, 0)
                    self.pss.setdefault(pid, 0)
            for pid in list(self.peaks):
                kb = proc_kb(pid)
                if kb is not None:
                    self.peaks[pid] = max(self.peaks[pid], kb)
                kb = proc_kb(pid, "Pss", "smaps_rollup")
                if kb is not None:
                    self.pss[pid] = max(self.pss[pid], kb)

    def close(self) -> tuple[int, int, int]:
        """(workers started, sum of their VmHWM peaks, sum of their Pss peaks), in KiB."""
        self.stop.set()
        self.thread.join()
        return len(self.peaks), sum(self.peaks.values()), sum(self.pss.values())


def child(src: str, command: str, inputs: str, out: str) -> int:
    """One run, in this process: time the command and print one JSON line."""
    import piiprep
    from piiprep.biospan import extract_span_tuples

    if Path(piiprep.__file__).resolve().parent != Path(src).resolve() / "piiprep":
        print(f"piiprep imported from {piiprep.__file__}, not {src}", file=sys.stderr)
        return 2
    out = Path(out)
    call = COMMANDS[command][1](Path(inputs), out)
    workers = WorkerPeaks()
    t0 = time.perf_counter()
    texts = call()
    wall_s = time.perf_counter() - t0
    n_workers, workers_kb, workers_pss_kb = workers.close()
    peak_kb = proc_kb("self")
    outputs = {p.name: sha256_of(p) for p in sorted(out.iterdir())}
    outputs.update((name, hashlib.sha256(text.encode("utf-8")).hexdigest())
                   for name, text in texts.items())
    print(json.dumps({
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "workers": n_workers,
        "workers_peak_mb": workers_kb / 1024,
        "total_peak_mb": (peak_kb + workers_kb) / 1024,
        "workers_pss_mb": workers_pss_kb / 1024,
        "total_pss_mb": (peak_kb + workers_pss_kb) / 1024,
        "children_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "kernel": extract_span_tuples.__module__,
        "outputs": outputs,
    }))
    return 0


CHILD = "import sys, bench_scale; sys.exit(bench_scale.child(*sys.argv[1:]))"


def run_once(checkout: Path, command: str, inputs: Path, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    # The run imports this file rather than running it as a script: compiled
    # as __main__, it added about 1 MB to every run's peak RSS.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), command, str(inputs), str(out)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{command} run of {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout_facts(checkout: Path) -> dict:
    """The commit, if checkout is a git work tree, and what its src/piiprep holds."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    top, _, commit = proc.stdout.strip().partition("\n")
    pkg = checkout / "src" / "piiprep"
    files = sorted(p.relative_to(pkg).as_posix() for p in pkg.rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts and not p.name.endswith(EXTENSIONS))
    digest = hashlib.sha256()
    for name in files:
        data = (pkg / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return {
        "git_commit": commit if proc.returncode == 0 and Path(top) == checkout else "unknown",
        # the .py and .pyx lines, leaving out the generated _speedups.c, as perfbench counts
        "src_lines": sum(len((pkg / name).read_text(encoding="utf-8").splitlines())
                         for name in files if name.endswith((".py", ".pyx"))),
        "src_sha256": digest.hexdigest(),
        "speedups_built": sorted(p.name for p in pkg.glob("_speedups*")
                                 if p.name.endswith(EXTENSIONS)),
    }


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "kernel": platform.release(),
             "machine": platform.machine()}
    for path, key, name in (("/proc/cpuinfo", "model name", "cpu"),
                            ("/proc/meminfo", "MemTotal", "mem_total")):
        try:
            with open(path, encoding="ascii", errors="replace") as f:
                facts[name] = next(line.split(":", 1)[1].strip() for line in f
                                   if line.startswith(key))
        except (OSError, StopIteration):
            pass
    return facts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                    help="a repository checkout to run; repeat for each side")
    ap.add_argument("--command", action="append", required=True, choices=COMMANDS,
                    help="a command to time; repeat for each")
    ap.add_argument("--size", action="append", required=True, metavar="N:ROUNDS")
    ap.add_argument("--work", type=Path, default=REPO / ".bench_work" / "scale")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    checkouts = {}
    for item in args.checkout:
        label, sep, directory = item.partition("=")
        path = Path(directory).resolve()
        if not (sep and label) or label in checkouts:
            ap.error(f"--checkout {item}: expected LABEL=DIR with a new LABEL")
        if not (path / "src" / "piiprep").is_dir():
            ap.error(f"--checkout {item}: no src/piiprep in {path}")
        checkouts[label] = path
    commands = list(dict.fromkeys(args.command))
    doc = {
        "benchmark": "piiprep commands at scale (benchmarks/bench_scale.py)",
        "workload": f"perfbench/gen.py, seed {SEED}: make_prepare_inputs for prepare; "
                    "make_score_inputs records in the same order for score, the predictions "
                    "shuffled for score-unordered; the train.jsonl "
                    "prepare writes from the prepare inputs for validate and sample",
        "commands": {"validate": " ".join(VALIDATE), "sample": " ".join(SAMPLE)},
        "host": host_facts(),
        "memory": "peak_rss_mb is the command's process's VmHWM; workers_peak_mb sums each "
                  "worker's VmHWM, the workers found in /proc/self/task/*/children and "
                  "sampled from /proc every 10 ms while they run; "
                  "workers_pss_mb sums each worker's highest Pss, sampled alike, which counts "
                  "a page shared by k processes as 1/k in each; "
                  "children_maxrss_mb is RUSAGE_CHILDREN, which for a forked worker starts "
                  "at the command process's resident size when it forked",
        "checkouts": {label: checkout_facts(path) for label, path in checkouts.items()},
        "sizes": {},
    }
    order = list(checkouts)
    for spec in args.size:
        n, _, rounds = spec.partition(":")
        n, rounds = int(n), int(rounds or 1)
        entry = doc["sizes"][str(n)] = {}
        for command in commands:
            make_inputs = COMMANDS[command][0]
            inputs, facts = make_inputs(args.work, n, checkouts[order[0]])
            runs = []
            for r in range(rounds):
                for label in order if r % 2 == 0 else order[::-1]:
                    res = run_once(checkouts[label], command, inputs, args.work / "out")
                    res.update(checkout=label, round=r)
                    runs.append(res)
                    print(f"{n} {command}, round {r}, {label}: {res['wall_s']:.2f} s, "
                          f"{res['peak_rss_mb']:.1f} MB + {res['workers']} workers "
                          f"{res['workers_peak_mb']:.1f} MB (Pss {res['workers_pss_mb']:.1f})",
                          flush=True)
            outputs = {json.dumps(run.pop("outputs"), sort_keys=True) for run in runs}
            if len(outputs) != 1:
                print(f"{command} runs at {n} gave different outputs", file=sys.stderr)
                return 1
            entry[command] = {
                "input_facts": facts,
                "outputs": json.loads(outputs.pop()),
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
