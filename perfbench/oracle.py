"""Output oracles, written without any piiprep code.

Span semantics are re-derived here from the documented rules: B-X opens a
span; I-X continues a running span of type X and otherwise opens one; O
and the end of the sequence close the running span.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def spans_of(labels: list[str]) -> set[tuple[int, int, str]]:
    """Half-open (start, end, type) spans of a BIO sequence."""
    out = set()
    start, cur = 0, None
    for i, lab in enumerate(labels):
        typ = None if lab == "O" else lab[2:]
        continues = typ is not None and lab[0] == "I" and typ == cur
        if cur is not None and not continues:
            out.add((start, i, cur))
            cur = None
        if typ is not None and not continues:
            start, cur = i, typ
    if cur is not None:
        out.add((start, len(labels), cur))
    return out


def count_pair(gold: list[str], pred: list[str]) -> dict[str, list[int]]:
    """Per-type [true positives, predicted, gold] for one aligned pair."""
    g, p = spans_of(gold), spans_of(pred)
    counts: dict[str, list[int]] = {}
    for s in g:
        counts.setdefault(s[2], [0, 0, 0])[2] += 1
    for s in p:
        c = counts.setdefault(s[2], [0, 0, 0])
        c[1] += 1
        c[0] += s in g
    return counts


def add_counts(total: dict[str, list[int]], pair: dict[str, list[int]]) -> None:
    """Add one pair's per-type [tp, pred, gold] counts into total."""
    for typ, counts in pair.items():
        bucket = total.setdefault(typ, [0, 0, 0])
        for k in range(3):
            bucket[k] += counts[k]


def check_score_report(report: dict, facts: dict) -> list[str]:
    """Compare a score report's per-type counts and totals with the expectation."""
    errors = []
    if report.get("records") != facts["records"]:
        errors.append(f"records {report.get('records')} != {facts['records']}")
    got = {t: [v["tp"], v["predicted"], v["support"]] for t, v in report["per_type"].items()}
    want = facts["expected_counts"]
    for typ in sorted(set(got) | set(want)):
        if got.get(typ) != want.get(typ):
            errors.append(f"{typ} [tp, pred, gold] {got.get(typ)} != {want.get(typ)}")
    tp, pred, gold = (sum(c[k] for c in facts["expected_counts"].values()) for k in range(3))
    p, r = tp / pred, tp / gold
    if abs(report["micro"]["f1"] - 2 * p * r / (p + r)) > 1e-12:
        errors.append(f"micro F1 {report['micro']['f1']} != {2 * p * r / (p + r)}")
    return errors


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(out_dir: Path, splits) -> dict[str, str]:
    """SHA-256 of every artifact and manifest written by prepare."""
    names = [f"{s}.jsonl{ext}" for s in splits for ext in ("", ".manifest.json")]
    return {n: sha256_of(out_dir / n) for n in names}


def check_prepare_outputs(out_dir: Path, splits, facts: dict, taxonomy: set[str],
                          rare_type: str, digests: dict[str, str]) -> list[str]:
    """Full content check of one prepare run's splits and manifests."""
    errors = []
    ids: set[str] = set()
    per_source_total: dict[str, int] = {}
    split_counts: dict[str, dict[str, int]] = {}
    for name in splits:
        path = out_dir / f"{name}.jsonl"
        manifest = json.loads((out_dir / f"{name}.jsonl.manifest.json").read_text(encoding="utf-8"))
        if manifest["sha256"] != digests[f"{name}.jsonl"]:
            errors.append(f"{name}: manifest sha256 does not match the file")
        per_source: dict[str, int] = {}
        n = 0
        with path.open(encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                n += 1
                if rec["id"] in ids:
                    errors.append(f"{name}: duplicate id {rec['id']}")
                ids.add(rec["id"])
                per_source[rec["source"]] = per_source.get(rec["source"], 0) + 1
                for _, _, typ in spans_of(rec["labels"]):
                    if typ not in taxonomy or typ == rare_type:
                        errors.append(f"{name}: record {rec['id']} has span type {typ}")
        if manifest["records"] != n or manifest["per_source_records"] != dict(sorted(per_source.items())):
            errors.append(f"{name}: manifest counts do not match the artifact")
        split_counts[name] = per_source
        for s, c in per_source.items():
            per_source_total[s] = per_source_total.get(s, 0) + c
    if per_source_total != facts["expected_per_source"]:
        errors.append(f"per-source totals {per_source_total} != {facts['expected_per_source']}")
    for name, frac in splits.items():
        for s, total in facts["expected_per_source"].items():
            share = total * float(frac)
            if not int(share) <= split_counts[name].get(s, 0) <= int(share) + 1:
                errors.append(f"{name}/{s}: {split_counts[name].get(s, 0)} records, want ~{share:.1f}")
    return errors[:20]


def load_taxonomy_types(path: Path) -> set[str]:
    """Entity type names of a TYPE<TAB>GROUP taxonomy file."""
    types = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            types.add(line.split("\t")[0].strip().upper())
    return types
