"""Per-layer spans recorded from outside the program.

``install`` replaces the public functions of each piiprep module, in every
namespace that calls them, with wrappers that record a span per call. Spans
are kept in memory as per-name aggregates (calls, total and self time, plus
self time per parent), where self time is the span's duration minus the
time covered by its child spans. A layer's metrics are read off these
aggregates when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

# Span name -> the per-layer metric its self time is added to. Every span
# the wrappers record is listed, so the metrics plus the root's own time
# (trace.unattributed_s) add up to the traced wall time.
SELF_TIME_METRICS = {
    "biospan.extract": "biospan.extract_s",
    "biospan.orphans": "biospan.orphans_s",
    "records.json_decode": "records.json_decode_s",
    "records.parse": "records.parse_s",
    "records.encode": "records.encode_s",
    "records.write": "records.write_s",
    "records.read": "records.read_s",
    "scorer.stream": "scorer.stream_self_s",
    "scorer.add_pair": "scorer.add_pair_self_s",
    "scorer.report": "scorer.report_s",
    "ingest.record": "ingest.record_s",
    "pipeline.run": "pipeline.run_self_s",
    "pipeline.consolidate": "pipeline.consolidate_self_s",
    "pipeline.rebalance": "pipeline.rebalance_s",
    "pipeline.cap": "pipeline.cap_s",
    "pipeline.filter_rare": "pipeline.filter_rare_s",
    "pipeline.split": "pipeline.split_s",
    "manifest.write": "manifest.write_self_s",
    "manifest.build": "manifest.write_self_s",
    "manifest.sha256": "manifest.sha256_s",
    "labelspace.load": "labelspace.load_s",
}
ROOT = "workload"


class Tracer:
    """Span aggregates plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, child seconds]
        self._agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self._edges: dict[tuple[str, str], float] = {}  # (parent, name) -> self s
        self.counts: dict[str, float] = {}

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            own = dt - frame[1]
            agg = self._agg.get(name)
            if agg is None:
                agg = self._agg[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += own
            edge = (stack[-1][0] if stack else "", name)
            self._edges[edge] = self._edges.get(edge, 0.0) + own
            if stack:
                stack[-1][1] += dt

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call; after(args, result) counts."""
        span = self.span

        if after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = span(name, fn, *args, **kwargs)
                after(args, result)
                return result

        return wrapper

    def wrap_iter(self, name: str, fn, per_item: str):
        """Wrap a generator function: each next() is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            done = object()
            while True:
                item = self.span(name, next, it, done)
                if item is done:
                    return
                self.add(per_item)
                yield item

        return wrapper

    def total_s(self, name: str) -> float:
        return self._agg[name][1]

    def dump(self, path: str) -> None:
        doc = {
            "calls": {k: v[0] for k, v in self._agg.items()},
            "total_s": {k: v[1] for k, v in self._agg.items()},
            "self_s": {k: v[2] for k, v in self._agg.items()},
            "edges": {f"{p}>{c}": v for (p, c), v in self._edges.items()},
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)


class _JsonProxy:
    """Stands in for a module's ``json`` name; only ``loads`` is traced."""

    def __init__(self, loads) -> None:
        self.loads = loads

    def __getattr__(self, name: str):
        return getattr(json, name)


def install(tr: Tracer) -> None:
    """Wrap the public functions of each piiprep layer in every calling namespace."""
    from piiprep import fixtures, manifest, pipeline, records, scorer

    def patch(modules, attr, name, after=None):
        for mod in modules:
            setattr(mod, attr, tr.wrap(name, getattr(mod, attr), after))

    def decoded(args, result):
        tr.add("records.lines_read")

    def scorer_decoded(args, result):
        # Label sequences decoded but not yet scored; add_pair releases two.
        tr.add("records.lines_read")
        tr.add("scorer._held")
        tr.peak("scorer.index_entries", tr.counts["scorer._held"])

    def scored(args, result):
        tr.add("scorer.pairs")
        tr.add("scorer._held", -2)

    records.json = _JsonProxy(tr.wrap("records.json_decode", json.loads, decoded))
    pipeline.json = _JsonProxy(tr.wrap("records.json_decode", json.loads, decoded))
    scorer.json = _JsonProxy(tr.wrap("records.json_decode", json.loads, scorer_decoded))

    def extracted(args, result):
        counts["biospan.extract_calls"] += 1
        counts["biospan.spans_out"] += len(result)

    counts = tr.counts
    counts.update({"biospan.extract_calls": 0, "biospan.spans_out": 0})
    patch([scorer, manifest, pipeline], "extract_span_tuples", "biospan.extract", extracted)
    patch([manifest], "count_orphan_continuations", "biospan.orphans")

    patch([pipeline, records], "parse_record_line", "records.parse")
    patch([records], "record_to_line", "records.encode")
    patch([pipeline], "write_records", "records.write",
          lambda a, r: (tr.add("records.records_written", r),
                        tr.add("records.bytes_written", os.path.getsize(a[0]))))
    manifest.read_records = tr.wrap_iter("records.read", manifest.read_records,
                                         "manifest.reread_records")

    scorer.TypeCounters.add_pair = tr.wrap("scorer.add_pair", scorer.TypeCounters.add_pair, scored)
    patch([scorer], "stream_score", "scorer.stream",
          lambda a, r: tr.add("scorer.chunks", r.chunks))
    patch([scorer], "finalize", "scorer.report")
    scorer.MetricsReport.to_json = tr.wrap("scorer.report", scorer.MetricsReport.to_json)

    patch([pipeline], "ingest_record", "ingest.record",
          lambda a, r: (tr.add("ingest.lines"), tr.add("ingest.kept", r is not None)))

    def step(label, out_len):
        def after(args, result):
            tr.add(f"pipeline.{label}.records_in", len(args[0]))
            tr.add(f"pipeline.{label}.records_out", out_len(result))
        return after

    patch([pipeline], "run_prepare", "pipeline.run")
    patch([pipeline], "consolidate", "pipeline.consolidate",
          lambda a, r: tr.add("pipeline.consolidate.records_out", len(r[0])))
    patch([pipeline], "rebalance_source", "pipeline.rebalance", step("rebalance", len))
    patch([pipeline], "cap_source", "pipeline.cap", step("cap", len))
    patch([pipeline], "filter_rare_labels", "pipeline.filter_rare",
          step("filter_rare", lambda r: len(r[0])))
    patch([pipeline], "stratified_split", "pipeline.split",
          step("split", lambda r: sum(len(v) for v in r.values())))
    patch([pipeline], "write_manifest", "manifest.write")
    patch([manifest], "build_manifest", "manifest.build")
    patch([manifest], "sha256_file", "manifest.sha256",
          lambda a, r: tr.add("manifest.bytes_hashed", os.path.getsize(a[0])))
    patch([pipeline, fixtures], "load_taxonomy", "labelspace.load")
