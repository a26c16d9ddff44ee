#!/usr/bin/env python3
"""Wall time and peak memory of ``prepare`` at 100k and 1M input lines.

Generates perfbench's prepare_mixed inputs (perfbench/gen.py, seed 1: two
BIO JSONL sources and one inline-tagged source, with a rebalance, a cap and
the rare-label filter in the config) once per size. Then, for each round and
each checkout given, it runs ``run_prepare`` on them in a fresh process with
that checkout's ``src`` on PYTHONPATH; the checkout that goes first alternates
from round to round. Each run reports the wall time of run_prepare alone and
the process's peak RSS (VmHWM, which unlike ru_maxrss leaves out memory the
parent held at fork). Every run must write the same bytes, checked by the
SHA-256 of each output file, or the benchmark fails.

    python3 benchmarks/bench_prepare_scale.py --checkout parent=/path/to/parent \\
        --checkout change=. --size 100000:3 --size 1000000:1 --out BENCH.json

--size N:R runs R rounds at N lines. Inputs are kept under --work between
invocations. The JSON written to --out holds every run, per-size medians per
checkout, the host facts and each checkout's source line count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 1


def child(src: Path, inputs: Path, out: Path) -> int:
    """One run, in this process: time run_prepare and print one JSON line."""
    from piiprep.pipeline import PipelineConfig, run_prepare

    import piiprep

    if Path(piiprep.__file__).resolve().parent != src.resolve() / "piiprep":
        print(f"piiprep imported from {piiprep.__file__}, not {src}", file=sys.stderr)
        return 2
    config = PipelineConfig.from_file(inputs / "config.yaml")
    config.output_dir = out
    config.load_space()
    t0 = time.perf_counter()
    result = run_prepare(config)
    wall_s = time.perf_counter() - t0
    with open("/proc/self/status", encoding="ascii") as f:
        hwm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    digests = {p.name: sha256_of(p) for p in sorted(out.iterdir())}
    print(json.dumps({
        "wall_s": wall_s,
        "peak_rss_mb": hwm_kb / 1024,
        "consolidated": sum(c["kept"] for c in result.consolidation.values()),
        "outputs": digests,
    }))
    return 0


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def src_lines(checkout: Path) -> int:
    """Lines of piiprep source, leaving out the generated _speedups.c (as perfbench counts)."""
    files = [p for p in (checkout / "src" / "piiprep").rglob("*") if p.suffix in (".py", ".pyx")]
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def git_commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "kernel": platform.release(), "machine": platform.machine()}
    for path, key, name in (("/proc/cpuinfo", "model name", "cpu"),
                            ("/proc/meminfo", "MemTotal", "mem_total")):
        try:
            with open(path, encoding="ascii", errors="replace") as f:
                facts[name] = next(line.split(":", 1)[1].strip() for line in f
                                   if line.startswith(key))
        except (OSError, StopIteration):
            pass
    return facts


def inputs_for(work: Path, n_lines: int) -> tuple[Path, dict]:
    """perfbench's prepare_mixed inputs at n_lines, generated once under work."""
    path = work / f"prepare-{n_lines}"
    facts_path = path / "facts.json"
    if not facts_path.exists():
        sys.path.insert(0, str(REPO / "perfbench"))
        import gen

        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        t0 = time.perf_counter()
        facts = gen.make_prepare_inputs(path, SEED, n_lines)
        facts["generation_s"] = time.perf_counter() - t0
        facts_path.write_text(json.dumps(facts), encoding="utf-8")
    return path, json.loads(facts_path.read_text(encoding="utf-8"))


def run_once(checkout: Path, inputs: Path, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout / "src"),
         str(inputs), str(out)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run of {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(*map(Path, sys.argv[2:5]))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                    help="a repository checkout to run; repeat for each side")
    ap.add_argument("--size", action="append", required=True, metavar="LINES:ROUNDS")
    ap.add_argument("--work", type=Path, default=REPO / ".bench_work" / "scale")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    checkouts = {}
    for item in args.checkout:
        label, _, directory = item.partition("=")
        checkouts[label] = Path(directory).resolve()
    doc = {
        "benchmark": "prepare at scale (benchmarks/bench_prepare_scale.py)",
        "workload": f"perfbench/gen.py make_prepare_inputs, seed {SEED}",
        "host": host_facts(),
        "checkouts": {label: {"git_commit": git_commit(path), "src_lines": src_lines(path)}
                      for label, path in checkouts.items()},
        "sizes": {},
    }
    for spec in args.size:
        n_lines, _, rounds = spec.partition(":")
        n_lines, rounds = int(n_lines), int(rounds or 1)
        inputs, facts = inputs_for(args.work, n_lines)
        runs = []
        order = list(checkouts)
        for r in range(rounds):
            for label in order if r % 2 == 0 else order[::-1]:
                res = run_once(checkouts[label], inputs, args.work / "out")
                res.update(checkout=label, round=r)
                runs.append(res)
                print(f"{n_lines} lines, round {r}, {label}: {res['wall_s']:.2f} s, "
                      f"{res['peak_rss_mb']:.1f} MB", flush=True)
        outputs = {json.dumps(run.pop("outputs"), sort_keys=True) for run in runs}
        if len(outputs) != 1:
            print(f"runs at {n_lines} lines wrote different bytes", file=sys.stderr)
            return 1
        doc["sizes"][str(n_lines)] = {
            "input_facts": {k: facts[k] for k in ("records", "tokens", "bytes", "consolidated")},
            "outputs": json.loads(outputs.pop()),
            "median": {label: {key: statistics.median(run[key] for run in runs
                                                      if run["checkout"] == label)
                               for key in ("wall_s", "peak_rss_mb")}
                       for label in checkouts},
            "runs": runs,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
