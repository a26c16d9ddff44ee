#!/usr/bin/env python3
"""Wall time and peak memory of ``validate`` and ``sample --n 100`` at 100k and 1M lines.

The artifact is the ``train.jsonl`` that ``prepare`` writes from
perfbench's prepare_mixed inputs (perfbench/gen.py, seed 1), generated and
prepared once per size with the inputs of bench_prepare_scale.py. Then, for
each round, each command and each checkout given, it runs the command on that
artifact in a fresh process with that checkout's ``src`` on PYTHONPATH; the
checkout that goes first alternates from round to round. Each run reports
the wall time of the command alone and the process's peak RSS (VmHWM).
Every run of a command must give the same output, checked by the SHA-256 of
validate's printed counts and of sample's subset and manifest, or the
benchmark fails.

    python3 benchmarks/bench_artifact_scale.py --checkout parent=/path/to/parent \\
        --checkout change=. --size 100000:3 --size 1000000:2 --out BENCH.json

--size N:R runs R rounds at N input lines. Inputs are kept under --work
between invocations. The JSON written to --out holds every run, per-size
medians per command and checkout, the host facts and each checkout's source
line count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_prepare_scale as prepare_bench  # noqa: E402

REPO = prepare_bench.REPO
COMMANDS = {
    "validate": ["validate", "--input", "{artifact}"],
    "sample": ["sample", "--input", "{artifact}", "--n", "100", "--seed", "42",
               "--out", "{out}/subset.jsonl"],
}


def child(src: Path, command: str, artifact: Path, out: Path) -> int:
    """One run, in this process: time the command and print one JSON line."""
    from piiprep.cli import main

    import piiprep

    if Path(piiprep.__file__).resolve().parent != src.resolve() / "piiprep":
        print(f"piiprep imported from {piiprep.__file__}, not {src}", file=sys.stderr)
        return 2
    argv = [a.format(artifact=artifact, out=out) for a in COMMANDS[command]]
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        main(argv, standalone_mode=False)
    wall_s = time.perf_counter() - t0
    with open("/proc/self/status", encoding="ascii") as f:
        hwm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    outputs = {p.name: prepare_bench.sha256_of(p) for p in sorted(out.iterdir())}
    if command == "validate":
        outputs["stdout"] = hashlib.sha256(printed.getvalue().encode("utf-8")).hexdigest()
    print(json.dumps({"wall_s": wall_s, "peak_rss_mb": hwm_kb / 1024, "outputs": outputs}))
    return 0


def artifact_for(work: Path, n_lines: int, checkout: Path) -> tuple[Path, dict]:
    """The train.jsonl of a prepare run on n_lines generated lines, made once under work."""
    inputs, facts = prepare_bench.inputs_for(work, n_lines)
    out = work / f"artifact-{n_lines}"
    if not (out / "train.jsonl.manifest.json").exists():
        prepare_bench.run_once(checkout, inputs, out)
    manifest = json.loads((out / "train.jsonl.manifest.json").read_text(encoding="utf-8"))
    return out / "train.jsonl", {"input_lines": n_lines, "records": manifest["records"],
                                 "bytes": (out / "train.jsonl").stat().st_size}


def run_once(checkout: Path, command: str, artifact: Path, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout / "src"),
         command, str(artifact), str(out)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{command} run of {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        src, command, artifact, out = sys.argv[2:6]
        return child(Path(src), command, Path(artifact), Path(out))
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
        "benchmark": "validate and sample at scale (benchmarks/bench_artifact_scale.py)",
        "workload": f"train.jsonl of prepare on perfbench/gen.py make_prepare_inputs, "
                    f"seed {prepare_bench.SEED}",
        "commands": {name: " ".join(argv) for name, argv in COMMANDS.items()},
        "host": prepare_bench.host_facts(),
        "checkouts": {label: {"git_commit": prepare_bench.git_commit(path),
                              "src_lines": prepare_bench.src_lines(path)}
                      for label, path in checkouts.items()},
        "sizes": {},
    }
    for spec in args.size:
        n_lines, _, rounds = spec.partition(":")
        n_lines, rounds = int(n_lines), int(rounds or 1)
        artifact, facts = artifact_for(args.work, n_lines, next(iter(checkouts.values())))
        entry = doc["sizes"][str(n_lines)] = {"artifact": facts}
        order = list(checkouts)
        for command in COMMANDS:
            runs = []
            for r in range(rounds):
                for label in order if r % 2 == 0 else order[::-1]:
                    res = run_once(checkouts[label], command, artifact, args.work / "out")
                    res.update(checkout=label, round=r)
                    runs.append(res)
                    print(f"{n_lines} lines, {command}, round {r}, {label}: "
                          f"{res['wall_s']:.2f} s, {res['peak_rss_mb']:.1f} MB", flush=True)
            outputs = {json.dumps(run.pop("outputs"), sort_keys=True) for run in runs}
            if len(outputs) != 1:
                print(f"{command} runs at {n_lines} lines gave different outputs",
                      file=sys.stderr)
                return 1
            entry[command] = {
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
