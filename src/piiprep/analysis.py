"""Entity-level comparison of two tagging systems.

Works over a per-entity results table (entity, coarse group, gold support,
one F1 column per system). Produces support-weighted group F1s, per-group
and overall winner counts, and ranked advantage tables for either system.
Deltas are always stored as F1(A) - F1(B); the favour-B view ranks by
magnitude but keeps the sign, so a reader can always tell who won.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from piiprep.errors import AnalysisError
from piiprep.jsonl import read_text

__all__ = [
    "EntityRow",
    "GroupRow",
    "AdvantageRow",
    "WinnerCounts",
    "SystemEntry",
    "SystemSummary",
    "AnalysisReport",
    "load_entity_rows",
    "group_weighted_f1",
    "group_table",
    "winner_counts",
    "top_advantage",
    "analyze",
    "emit_report",
    "load_system_table",
    "compare_systems",
    "emit_comparison",
]

_F1_PRECISION = 4  # published per-entity scores carry four decimals


@dataclass
class EntityRow:
    entity: str
    group: str
    support: int
    f1: dict[str, float]

    def score(self, system: str) -> float:
        try:
            return self.f1[system]
        except KeyError:
            raise AnalysisError(f"row {self.entity}: no F1 column for system {system!r}") from None


def _csv_rows(path: Path) -> tuple[list[str] | None, Iterator[tuple[int, dict[str, str]]]]:
    """A CSV file's header, or None, and its data rows as (line, {column: cell}).

    Newlines are read as in a file opened with newline="". Blank lines are
    skipped, as csv.DictReader skips them; a row whose cell count is not the
    header's fails at the line it ends on.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next((cells for cells in reader if cells), None)

    def rows() -> Iterator[tuple[int, dict[str, str]]]:
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise AnalysisError(
                    f"{path.name}:{reader.line_num}: "
                    f"expected {len(header)} fields, got {len(cells)}"
                )
            yield reader.line_num, dict(zip(header, cells))

    return header, rows()


def _score(cell: str) -> float:
    """An F1, precision or recall cell as a float; NaN and infinities are errors."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"score must be a finite number, got {cell!r}")
    return value


def load_entity_rows(path: str | Path) -> list[EntityRow]:
    """Read an entity,group,support,f1_<system>... CSV into rows.

    F1 cells are rounded to four decimals on ingest so that comparisons and
    deltas behave identically however many digits the file carries.
    """
    path = Path(path)
    header, reader = _csv_rows(path)
    if header is None:
        raise AnalysisError(f"{path.name}: empty file")
    systems = [c[3:] for c in header if c.startswith("f1_")]
    required = {"entity", "group", "support"}
    if not required <= set(header) or not systems:
        raise AnalysisError(
            f"{path.name}: need columns entity,group,support and at least one f1_<system>"
        )
    rows: list[EntityRow] = []
    seen: set[str] = set()
    for i, rec in reader:
        entity = rec["entity"].strip()
        if entity in seen:
            raise AnalysisError(f"{path.name}:{i}: duplicate entity {entity!r}")
        seen.add(entity)
        try:
            support = int(rec["support"])
            f1 = {s: round(_score(rec[f"f1_{s}"]), _F1_PRECISION) for s in systems}
        except ValueError as e:
            raise AnalysisError(f"{path.name}:{i}: {e}") from None
        if support < 0:
            raise AnalysisError(f"{path.name}:{i}: negative support")
        rows.append(EntityRow(entity=entity, group=rec["group"].strip(), support=support, f1=f1))
    if not rows:
        raise AnalysisError(f"{path.name}: no data rows")
    return rows


def group_weighted_f1(rows: list[EntityRow], system: str) -> dict[str, float]:
    """Support-weighted mean F1 per coarse group for one system."""
    num: dict[str, float] = {}
    den: dict[str, int] = {}
    for row in rows:
        num[row.group] = num.get(row.group, 0.0) + row.support * row.score(system)
        den[row.group] = den.get(row.group, 0) + row.support
    out = {}
    for g in num:
        if den[g] == 0:
            raise AnalysisError(f"group {g}: zero total support, weighted mean undefined")
        out[g] = num[g] / den[g]
    return out


@dataclass
class GroupRow:
    group: str
    support: int
    f1_a: float
    f1_b: float
    delta: float
    wins_a: int
    wins_b: int
    ties: int
    entities: int


@dataclass
class WinnerCounts:
    wins_a: int
    wins_b: int
    ties: int
    per_group: dict[str, tuple[int, int, int]] = field(default_factory=dict)


def winner_counts(rows: list[EntityRow], system_a: str, system_b: str) -> WinnerCounts:
    """Strict per-entity comparison: higher F1 wins, equal F1 is a tie."""
    wa = wb = ties = 0
    per_group: dict[str, list[int]] = {}
    for row in rows:
        fa, fb = row.score(system_a), row.score(system_b)
        g = per_group.setdefault(row.group, [0, 0, 0])
        if fa > fb:
            wa += 1
            g[0] += 1
        elif fb > fa:
            wb += 1
            g[1] += 1
        else:
            ties += 1
            g[2] += 1
    return WinnerCounts(
        wins_a=wa,
        wins_b=wb,
        ties=ties,
        per_group={g: tuple(v) for g, v in per_group.items()},
    )


def group_table(rows: list[EntityRow], system_a: str, system_b: str) -> list[GroupRow]:
    """Per-group summary, ordered by support descending then group name."""
    wf_a = group_weighted_f1(rows, system_a)
    wf_b = group_weighted_f1(rows, system_b)
    wins = winner_counts(rows, system_a, system_b).per_group
    support: dict[str, int] = {}
    members: dict[str, int] = {}
    for row in rows:
        support[row.group] = support.get(row.group, 0) + row.support
        members[row.group] = members.get(row.group, 0) + 1
    out = [
        GroupRow(
            group=g,
            support=support[g],
            f1_a=wf_a[g],
            f1_b=wf_b[g],
            delta=wf_a[g] - wf_b[g],
            wins_a=wins[g][0],
            wins_b=wins[g][1],
            ties=wins[g][2],
            entities=members[g],
        )
        for g in support
    ]
    out.sort(key=lambda r: (-r.support, r.group))
    return out


@dataclass
class AdvantageRow:
    entity: str
    group: str
    support: int
    f1_a: float
    f1_b: float
    delta: float  # always F1(A) - F1(B), whichever side is favoured


def top_advantage(
    rows: list[EntityRow],
    system_a: str,
    system_b: str,
    *,
    n: int = 10,
    favour: str = "a",
) -> list[AdvantageRow]:
    """The n entities where the favoured system gains most over the other.

    Ranking key is the delta in the favoured direction; ties break by larger
    support, then entity name. Rows where the favoured system is behind still
    appear when n exceeds the number of favourable entities, keeping the
    ranking total.
    """
    if favour not in ("a", "b"):
        raise AnalysisError(f"favour must be 'a' or 'b', got {favour!r}")
    sign = 1.0 if favour == "a" else -1.0
    ranked = sorted(
        rows,
        key=lambda r: (-sign * (r.score(system_a) - r.score(system_b)), -r.support, r.entity),
    )
    return [
        AdvantageRow(
            entity=r.entity,
            group=r.group,
            support=r.support,
            f1_a=r.score(system_a),
            f1_b=r.score(system_b),
            delta=r.score(system_a) - r.score(system_b),
        )
        for r in ranked[:n]
    ]


@dataclass
class AnalysisReport:
    system_a: str
    system_b: str
    entity_count: int
    groups: list[GroupRow]
    winners: WinnerCounts
    top_a: list[AdvantageRow]
    top_b: list[AdvantageRow]


def analyze(
    rows: list[EntityRow],
    system_a: str,
    system_b: str,
    *,
    top_n: int = 10,
) -> AnalysisReport:
    """Full comparison bundle for two systems over one entity table."""
    if system_a == system_b:
        raise AnalysisError("cannot compare a system against itself")
    return AnalysisReport(
        system_a=system_a,
        system_b=system_b,
        entity_count=len(rows),
        groups=group_table(rows, system_a, system_b),
        winners=winner_counts(rows, system_a, system_b),
        top_a=top_advantage(rows, system_a, system_b, n=top_n, favour="a"),
        top_b=top_advantage(rows, system_a, system_b, n=top_n, favour="b"),
    )


def _report_dict(report: AnalysisReport) -> dict:
    return {
        "system_a": report.system_a,
        "system_b": report.system_b,
        "entities": report.entity_count,
        "groups": [vars(g) for g in report.groups],
        "winners": {
            "wins_a": report.winners.wins_a,
            "wins_b": report.winners.wins_b,
            "ties": report.winners.ties,
        },
        "top_a": [vars(r) for r in report.top_a],
        "top_b": [vars(r) for r in report.top_b],
    }


def _advantage_md(rows: list[AdvantageRow], a: str, b: str) -> list[str]:
    lines = [
        f"| Rank | Entity | Group | Support | F1 {a} | F1 {b} | Delta |",
        "|---:|---|---|---:|---:|---:|---:|",
    ]
    for i, r in enumerate(rows, 1):
        lines.append(
            f"| {i} | {r.entity} | {r.group} | {r.support} | "
            f"{r.f1_a:.4f} | {r.f1_b:.4f} | {r.delta:+.4f} |"
        )
    return lines


def emit_report(report: AnalysisReport, fmt: str = "markdown") -> str:
    """Render an analysis report as markdown, csv or json."""
    if fmt in ("md", "markdown"):
        a, b = report.system_a, report.system_b
        w = report.winners
        lines = [
            f"# System comparison: {a} vs {b}",
            "",
            f"{report.entity_count} entity types. Delta is F1 {a} minus F1 {b}.",
            f"Overall wins: {a} {w.wins_a}, {b} {w.wins_b}, ties {w.ties}.",
            "",
            "## Coarse groups",
            "",
            f"| Group | Support | F1 {a} | F1 {b} | Delta | Wins {a} | Wins {b} |",
            "|---|---:|---:|---:|---:|---:|---:|",
        ]
        for g in report.groups:
            lines.append(
                f"| {g.group} | {g.support} | {g.f1_a:.4f} | {g.f1_b:.4f} | "
                f"{g.delta:+.4f} | {g.wins_a} | {g.wins_b} |"
            )
        lines += ["", f"## Largest {a} advantages", ""]
        lines += _advantage_md(report.top_a, a, b)
        lines += ["", f"## Largest {b} advantages", ""]
        lines += _advantage_md(report.top_b, a, b)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["group,support,f1_a,f1_b,delta,wins_a,wins_b"]
        for g in report.groups:
            lines.append(
                f"{g.group},{g.support},{g.f1_a:.4f},{g.f1_b:.4f},"
                f"{g.delta:+.4f},{g.wins_a},{g.wins_b}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(_report_dict(report), indent=2, ensure_ascii=False) + "\n"
    raise AnalysisError(f"unknown report format {fmt!r} (expected markdown, csv or json)")


@dataclass
class SystemEntry:
    system: str
    category: str
    f1: float
    precision: float
    recall: float


@dataclass
class SystemSummary:
    system: str
    category: str
    f1: float
    precision: float
    recall: float
    rank: int
    f1_delta_vs_top: float
    best_f1: bool
    best_precision: bool
    best_recall: bool


def load_system_table(path: str | Path) -> list[SystemEntry]:
    """Read a system,category,f1,precision,recall CSV."""
    path = Path(path)
    out: list[SystemEntry] = []
    header, reader = _csv_rows(path)
    need = {"system", "category", "f1", "precision", "recall"}
    if header is None or not need <= set(header):
        raise AnalysisError(f"{path.name}: need columns {sorted(need)}")
    for i, rec in reader:
        try:
            out.append(
                SystemEntry(
                    system=rec["system"].strip(),
                    category=rec["category"].strip(),
                    f1=_score(rec["f1"]),
                    precision=_score(rec["precision"]),
                    recall=_score(rec["recall"]),
                )
            )
        except ValueError as e:
            raise AnalysisError(f"{path.name}:{i}: {e}") from None
    if not out:
        raise AnalysisError(f"{path.name}: no data rows")
    return out


def compare_systems(entries: list[SystemEntry]) -> list[SystemSummary]:
    """Rank systems by micro F1 (descending; exact ties fall back to name)."""
    names = [e.system for e in entries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise AnalysisError(f"duplicate system name(s): {dupes}")
    if not entries:
        raise AnalysisError("no systems to compare")
    ranked = sorted(entries, key=lambda e: (-e.f1, e.system))
    top_f1 = ranked[0].f1
    best_p = max(e.precision for e in entries)
    best_r = max(e.recall for e in entries)
    return [
        SystemSummary(
            system=e.system,
            category=e.category,
            f1=e.f1,
            precision=e.precision,
            recall=e.recall,
            rank=i,
            f1_delta_vs_top=e.f1 - top_f1,
            best_f1=e.f1 == top_f1,
            best_precision=e.precision == best_p,
            best_recall=e.recall == best_r,
        )
        for i, e in enumerate(ranked, 1)
    ]


def emit_comparison(summaries: list[SystemSummary], fmt: str = "markdown") -> str:
    """Render a ranked system table as markdown, csv or json."""
    if fmt in ("md", "markdown"):
        lines = [
            "| Rank | System | Category | F1 | P | R | vs top |",
            "|---:|---|---|---:|---:|---:|---:|",
        ]
        for s in summaries:
            mark = " *" if s.best_f1 else ""
            lines.append(
                f"| {s.rank} | {s.system}{mark} | {s.category} | {s.f1:.4f} | "
                f"{s.precision:.4f} | {s.recall:.4f} | {s.f1_delta_vs_top:+.4f} |"
            )
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["rank,system,category,f1,precision,recall,f1_delta_vs_top"]
        for s in summaries:
            lines.append(
                f"{s.rank},{s.system},{s.category},{s.f1:.4f},"
                f"{s.precision:.4f},{s.recall:.4f},{s.f1_delta_vs_top:+.4f}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([vars(s) for s in summaries], indent=2, ensure_ascii=False) + "\n"
    raise AnalysisError(f"unknown report format {fmt!r} (expected markdown, csv or json)")
