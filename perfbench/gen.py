"""Seeded input generation for the benchmark workloads.

Nothing here imports piiprep: the program under test only ever sees the
files written by this module. Each generator also returns the values the
oracle needs, computed from the generation itself.

Score inputs follow the distribution of ``make_corpus``/``perturb`` in
``benchmarks/bench_span_kernel.py`` (5-60 tokens, 55% O, spans of 1-4
tokens over eight types, 8% of labels flipped in the predictions) but are
produced here so that editing that script never changes benchmark inputs.
Prepare inputs mirror the three demo sources of ``scripts/make_demo_corpus.py``
scaled up: two BIO JSONL sources and one inline-tagged source with one in
ten lines span-free, plus three planted BLOOD_TYPE mentions for the
rare-label filter to remove.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from oracle import add_counts, count_pair

SCORE_TYPES = ["NAME", "EMAIL", "IBAN", "CITY", "DATE", "URL", "SSN", "AMOUNT"]
_WORDS = ["the", "invoice", "for", "account", "was", "sent", "to", "Lisbon",
          "on", "Friday", "by", "Marcus", "Okafor", "at", "relay.example",
          "reference", "4471", "and", "paid", "in", "EUR", "."]


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def _gold_labels(rng: random.Random) -> list[str]:
    length = rng.randint(5, 60)
    labels: list[str] = []
    while len(labels) < length:
        if rng.random() < 0.55:
            labels.append("O")
        else:
            typ = rng.choice(SCORE_TYPES)
            width = min(rng.randint(1, 4), length - len(labels))
            labels.append("B-" + typ)
            labels.extend(["I-" + typ] * (width - 1))
    return labels


def _perturbed(labels: list[str], rng: random.Random) -> list[str]:
    out = list(labels)
    for i, lab in enumerate(out):
        if rng.random() < 0.08:
            out[i] = "O" if lab != "O" else "B-" + rng.choice(SCORE_TYPES)
    return out


def make_score_inputs(out_dir: Path, seed: int, n_records: int) -> dict:
    """Write gold.jsonl, pred.jsonl (same order) and pred_shuffled.jsonl.

    Returns input facts plus the expected per-type [tp, pred, gold] counts.
    """
    rng = random.Random(f"score|{seed}")
    expected: dict[str, list[int]] = {}
    pred_lines: list[str] = []
    tokens = 0
    with (out_dir / "gold.jsonl").open("w", encoding="utf-8", newline="\n") as gf:
        for i in range(n_records):
            gold = _gold_labels(rng)
            pred = _perturbed(gold, rng)
            rid = f"doc-{i:07d}"
            toks = [_WORDS[(i + j) % len(_WORDS)] for j in range(len(gold))]
            tokens += len(gold)
            gf.write(_dump({"id": rid, "tokens": toks, "labels": gold, "source": "synthetic"}))
            pred_lines.append(_dump({"id": rid, "labels": pred}))
            add_counts(expected, count_pair(gold, pred))
    (out_dir / "pred.jsonl").write_text("".join(pred_lines), encoding="utf-8")
    rng.shuffle(pred_lines)
    (out_dir / "pred_shuffled.jsonl").write_text("".join(pred_lines), encoding="utf-8")
    return {
        "records": n_records,
        "tokens": tokens,
        "bytes": sum((out_dir / f).stat().st_size for f in ("gold.jsonl", "pred.jsonl")),
        "expected_counts": dict(sorted(expected.items())),
    }


# --- prepare_mixed -------------------------------------------------------

_FIRST = ["Ana", "Marcus", "Yuki", "Priya", "Tomas", "Leila", "Owen", "Greta"]
_LAST = ["Silva", "Okafor", "Lindqvist", "Tanaka", "Moreau", "Novak", "Reyes"]
_CITIES = ["Lisbon", "Osaka", "Tallinn", "Porto", "Bergen", "Gdansk", "Turin"]
_COUNTRIES = ["Portugal", "Japan", "Estonia", "Norway", "Poland"]
_COMPANIES = ["Vantor Logistics", "Briar Mutual", "Kestrel Labs"]
_BANKS = ["Meridian Savings", "Crestline Bank", "Harbour Trust"]
_DOMAINS = ["metro-mail.example", "postbox.example", "relay.example"]
_MONTHS = ["January", "March", "May", "July", "September", "November"]
_PLAIN = [
    "The quarterly review meeting moved to the large room upstairs .",
    "Nothing in this message requires follow-up from the records team .",
    "Minutes from the standup were filed under general correspondence .",
]


def _date(rng: random.Random) -> str:
    return f"{rng.choice(_MONTHS)} {rng.randint(1, 28)}, {rng.randint(2018, 2024)}"


def _privacy(rng: random.Random, i: int) -> list[tuple[str, str | None]]:
    first, last = rng.choice(_FIRST), rng.choice(_LAST)
    k = i % 4
    if k == 0:
        return [("Contact", None), (f"{first} {last}", "NAME"), ("at", None),
                (f"{first.lower()}@{rng.choice(_DOMAINS)}", "EMAIL"), ("or call", None),
                (f"+{rng.randint(30, 49)} {rng.randint(600, 799)} {rng.randint(100, 999)}",
                 "PHONE_NUMBER"), (".", None)]
    if k == 1:
        return [(f"{first} {last}", "PERSON"), ("works for", None),
                (rng.choice(_COMPANIES), "COMPANY_NAME"), ("in", None),
                (rng.choice(_CITIES), "CITY"), (",", None),
                (rng.choice(_COUNTRIES), "COUNTRY"), (".", None)]
    if k == 2:
        return [("User", None), (f"{first.lower()}{rng.randint(10, 97)}", "USERNAME"),
                ("logged in from", None),
                (f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                 "IP_ADDRESS"), ("on", None), (_date(rng), "DATE_TIME"), (".", None)]
    return [("Applicant", None), (first, "FIRST_NAME"), (last, "LAST_NAME"),
            (", age", None), (str(rng.randint(19, 78)), "AGE"), (", born", None),
            (_date(rng), "DATE_OF_BIRTH"), (".", None)]


def _finance(rng: random.Random, i: int) -> list[tuple[str, str | None]]:
    amount = f"{rng.randint(20, 9500)}.{rng.randint(0, 99):02d}"
    if i % 2 == 0:
        return [("Transfer", None), (amount, "AMOUNT"), (rng.choice(["EUR", "NOK"]), "CURRENCY"),
                ("to", None), (f"PT{rng.randint(10, 99)} {rng.randint(1000, 9999)} "
                               f"{rng.randint(10000, 99999)}", "IBAN"),
                ("held at", None), (rng.choice(_BANKS), "FINANCIAL_ENTITY"), (".", None)]
    return [("Card ending", None), (str(rng.randint(1000, 9999)), "CREDIT_CARD_NUMBER"),
            ("for account", None), (str(rng.randint(10_000_000, 99_999_999)), "ACCOUNT_NUMBER"),
            ("was charged", None), (amount, "AMOUNT"), ("on", None), (_date(rng), "DATE"),
            (".", None)]


def _nemotron(rng: random.Random, i: int) -> list[tuple[str, str | None]]:
    full = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
    if i % 2 == 0:
        return [("Invoice for", None), (full, "NAME"), ("due", None), (_date(rng), "DATE"),
                ("; queries to", None), (f"billing@{rng.choice(_DOMAINS)}", "EMAIL"),
                (".", None)]
    return [("Employee", None), (f"E-{rng.randint(10000, 99999)}", "EMPLOYEE_ID"),
            ("(", None), (full, "NAME"), (") moved to", None),
            (rng.choice(_COMPANIES), "ORG"), ("in", None), (rng.choice(_CITIES), "CITY"),
            (".", None)]


def _to_bio(pieces: list[tuple[str, str | None]]) -> tuple[list[str], list[str]]:
    tokens: list[str] = []
    labels: list[str] = []
    for text, typ in pieces:
        for j, part in enumerate(text.split()):
            tokens.append(part)
            labels.append("O" if typ is None else ("B-" if j == 0 else "I-") + typ)
    return tokens, labels


def _to_tagged(pieces: list[tuple[str, str | None]]) -> str:
    return " ".join(text if typ is None else f"<{typ}>{text}</{typ}>" for text, typ in pieces)


RARE_TYPE = "BLOOD_TYPE"
REBALANCE_FRACTION = "0.10"
SPLITS = {"train": "0.8", "val": "0.1", "test": "0.1"}


def make_prepare_inputs(out_dir: Path, seed: int, n_lines: int) -> dict:
    """Write three sources plus config.yaml sized to n_lines input lines.

    Returns input facts plus the expected per-source record counts after
    consolidate, rebalance and cap, which the oracle checks the splits against.
    """
    rng = random.Random(f"prepare|{seed}")
    n_priv, n_fin = n_lines * 60 // 100, n_lines * 25 // 100
    n_nem = n_lines - n_priv - n_fin
    planted = {n_priv // 6, n_priv // 2, 5 * n_priv // 6}
    src = out_dir / "sources"
    src.mkdir()
    tokens = 0
    for name, n, make in (("ai4privacy", n_priv, _privacy), ("gretel_finance", n_fin, _finance)):
        with (src / f"{name}.jsonl").open("w", encoding="utf-8", newline="\n") as f:
            for i in range(n):
                pieces = make(rng, i)
                if name == "ai4privacy" and i in planted:
                    pieces = [("Donor", None), (f"{rng.choice(_FIRST)} {rng.choice(_LAST)}", "NAME"),
                              ("is", None), (rng.choice(["O-negative", "AB-positive"]), RARE_TYPE),
                              (".", None)]
                toks, labels = _to_bio(pieces)
                tokens += len(toks)
                f.write(_dump({"id": f"{name}-{i + 1:07d}", "tokens": toks,
                               "labels": labels, "source": name}))
    nem_kept = 0
    with (src / "nemotron.xml").open("w", encoding="utf-8", newline="\n") as f:
        for i in range(n_nem):
            if i % 10 == 7:
                line = _PLAIN[i % len(_PLAIN)]
            else:
                line = _to_tagged(_nemotron(rng, i))
                nem_kept += 1
            tokens += len(line.split())
            f.write(line + "\n")

    cap = n_fin * 4 // 5
    config = (
        "sources:\n"
        "  - {name: ai4privacy, path: sources/ai4privacy.jsonl, format: jsonl}\n"
        "  - {name: gretel_finance, path: sources/gretel_finance.jsonl, format: jsonl}\n"
        "  - {name: nemotron, path: sources/nemotron.xml, format: xml}\n"
        f"seed: {seed}\n"
        "output_dir: out\n"
        "split_fractions: {" + ", ".join(f"{k}: {v}" for k, v in SPLITS.items()) + "}\n"
        f"rebalance: {{source: nemotron, target_fraction: {REBALANCE_FRACTION}}}\n"
        f"caps: {{gretel_finance: {cap}}}\n"
        "rare_label_threshold: 5\n"
    )
    (out_dir / "config.yaml").write_text(config, encoding="utf-8")

    # Rebalance keeps k of nemotron with k / (others + k) = fraction, before caps.
    f = Fraction(REBALANCE_FRACTION)
    k = round(f * (n_priv + n_fin) / (1 - f))
    expected = {"ai4privacy": n_priv, "gretel_finance": min(n_fin, cap),
                "nemotron": min(nem_kept, k)}
    return {
        "records": n_lines,
        "tokens": tokens,
        "bytes": sum(p.stat().st_size for p in src.iterdir()),
        "consolidated": n_priv + n_fin + nem_kept,
        "expected_per_source": expected,
    }
