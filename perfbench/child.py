"""Run one workload once, in its own process, and print one JSON line.

Started by run.py with the checkout's ``src`` on PYTHONPATH. Modes:

- plain: time set-up and the workload; report ru_maxrss.
- trace: the same, with every piiprep layer wrapped by spans.install.
- heap: the workload under tracemalloc, plus acceptance criterion 12's
  ceiling (10x the traced heap of one parsed 5000-line chunk).
- setup: set-up only, so run.py can sample set-up time more often.
- ref: the reference task (see run.py), on the reference inputs: decode
  gold.jsonl and pred.jsonl and count spans with oracle.count_pair; imports
  no piiprep code.

    python3 perfbench/child.py --mode plain --workload score_ordered --inputs DIR --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

CHUNK = 5000
SRC = Path(__file__).resolve().parent.parent / "src"


def chunk_heap_bytes(path: Path) -> int:
    """Traced heap of one parsed chunk: ids plus label lists (criterion 12)."""
    tracemalloc.start()
    with path.open("r", encoding="utf-8") as f:
        chunk = []
        for _ in range(CHUNK):
            line = f.readline()
            if not line:
                break
            obj = json.loads(line)
            chunk.append((obj["id"], obj["labels"]))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark, in KiB.

    VmHWM belongs to the address space made at exec, so unlike ru_maxrss
    (which Linux carries across exec) it leaves out the harness's own memory
    inherited at fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_task(inputs: Path, out: Path) -> float:
    """Time of the reference task; its counts go to out/ref_counts.json."""
    import oracle

    t0 = perf_counter()
    counts: dict[str, list[int]] = {}
    with (inputs / "gold.jsonl").open(encoding="utf-8") as gf, \
            (inputs / "pred.jsonl").open(encoding="utf-8") as pf:
        for gline, pline in zip(gf, pf):
            oracle.add_counts(counts, oracle.count_pair(json.loads(gline)["labels"],
                                                        json.loads(pline)["labels"]))
    (out / "ref_counts.json").write_text(json.dumps(dict(sorted(counts.items()))),
                                         encoding="utf-8")
    return perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "trace", "heap", "setup", "ref"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    inputs, out = args.inputs, args.out
    if args.mode == "ref":
        print(json.dumps({"wall_s": reference_task(inputs, out)}))
        return 0

    # Set-up: imports, config parse and taxonomy load, up to the first record.
    t0 = perf_counter()
    if args.workload == "prepare_mixed":
        from piiprep import pipeline

        config = pipeline.PipelineConfig.from_file(inputs / "config.yaml")
        config.output_dir = out
        config.load_space()

        def run() -> None:
            pipeline.run_prepare(config)

        first_input = inputs / "sources" / "ai4privacy.jsonl"
    else:
        from piiprep import scorer

        unordered = args.workload == "score_unordered"
        pred = inputs / ("pred_shuffled.jsonl" if unordered else "pred.jsonl")

        def run() -> None:
            result = scorer.stream_score(inputs / "gold.jsonl", pred, unordered=unordered)
            report = scorer.finalize(result.counters, records=result.records, chunks=result.chunks)
            (out / "report.json").write_text(report.to_json(), encoding="utf-8")

        first_input = inputs / "gold.jsonl"
    setup_s = perf_counter() - t0

    import piiprep
    from piiprep.biospan import active_kernel

    if Path(piiprep.__file__).resolve().parent != SRC / "piiprep":
        print(f"piiprep imported from {piiprep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    res: dict = {"setup_s": setup_s, "kernel": active_kernel()}
    if args.mode == "setup":
        print(json.dumps(res))
        return 0
    if args.mode == "plain":
        t1 = perf_counter()
        run()
        res["wall_s"] = perf_counter() - t1
    elif args.mode == "trace":
        import spans

        tr = spans.Tracer()
        spans.install(tr)
        tr.span(spans.ROOT, run)
        res["wall_s"] = tr.total_s(spans.ROOT)
        tr.dump(str(out / "trace.json"))
    else:
        res["chunk_heap_bytes"] = chunk_heap_bytes(first_input)
        tracemalloc.start()
        t1 = perf_counter()
        run()
        res["wall_s"] = perf_counter() - t1
        res["heap_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    res["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
