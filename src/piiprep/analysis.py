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
from typing import Iterable, Iterator, Mapping

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
    "group_table",
    "winner_counts",
    "top_advantage",
    "analyze",
    "emit_report",
    "load_system_table",
    "compare_systems",
    "emit_comparison",
    "TYPE_COLUMNS",
    "render_table",
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
    header's fails at the line it ends on, and so does a repeated column name.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next((cells for cells in reader if cells), None)
    for i, name in enumerate(header or ()):
        if name in header[:i]:
            raise AnalysisError(f"{path.name}:{reader.line_num}: duplicate column {name!r}")

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


# A table column: its key, which names the row's value and is the CSV header,
# its markdown header and the format spec of its cells ("" for text).
Column = tuple[str, str, str]

# score --csv's per-type table; a row is {"type": ..., "group": ..., **vars(metrics)}.
TYPE_COLUMNS: list[Column] = [
    ("type", "Type", ""), ("group", "Group", ""), ("support", "Support", "d"),
    ("precision", "P", ".6f"), ("recall", "R", ".6f"), ("f1", "F1", ".6f"),
]


def render_table(columns: list[Column], rows: Iterable[Mapping], fmt: str) -> str:
    """A table as CSV, which csv.reader reads back, or as markdown.

    Markdown left-aligns text columns, right-aligns the others and escapes
    | as \\| in headers and cells.
    """
    cells = ([format(row[key], spec) for key, _, spec in columns] for row in rows)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(key for key, _, _ in columns)
        writer.writerows(cells)
        return out.getvalue()
    if fmt not in ("md", "markdown"):
        raise AnalysisError(f"unknown report format {fmt!r} (expected markdown, csv or json)")

    def line(texts: Iterable[str]) -> str:
        return "| " + " | ".join(t.replace("|", "\\|") for t in texts) + " |\n"

    rule = "|" + "|".join("---:" if spec else "---" for _, _, spec in columns) + "|\n"
    return line(header for _, header, _ in columns) + rule + "".join(map(line, cells))


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
    """Per-group summary, ordered by support descending then group name.

    F1s are support-weighted means; wins and ties are winner_counts' per group.
    """
    groups: dict[str, GroupRow] = {}
    for row in rows:
        g = groups.get(row.group)
        if g is None:
            g = groups[row.group] = GroupRow(row.group, 0, 0.0, 0.0, 0.0, 0, 0, 0, 0)
        g.support += row.support
        g.f1_a += row.support * row.score(system_a)  # support-weighted sums until divided below
        g.f1_b += row.support * row.score(system_b)
    wins = winner_counts(rows, system_a, system_b).per_group
    for g in groups.values():
        if g.support == 0:
            raise AnalysisError(f"group {g.group}: zero total support, weighted mean undefined")
        g.f1_a /= g.support
        g.f1_b /= g.support
        g.delta = g.f1_a - g.f1_b
        g.wins_a, g.wins_b, g.ties = wins[g.group]
        g.entities = sum(wins[g.group])
    return sorted(groups.values(), key=lambda g: (-g.support, g.group))


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


def emit_report(report: AnalysisReport, fmt: str = "markdown") -> str:
    """Render an analysis report as markdown, csv (the group table) or json."""
    if fmt == "json":
        return json.dumps(_report_dict(report), indent=2, ensure_ascii=False) + "\n"
    a, b = report.system_a, report.system_b
    # The columns that the group table and the advantage tables share.
    scores: list[Column] = [
        ("support", "Support", "d"), ("f1_a", f"F1 {a}", ".4f"), ("f1_b", f"F1 {b}", ".4f"),
        ("delta", "Delta", "+.4f"),
    ]
    wins = [("wins_a", f"Wins {a}", "d"), ("wins_b", f"Wins {b}", "d")]
    groups = render_table([("group", "Group", ""), *scores, *wins], map(vars, report.groups), fmt)
    if fmt == "csv":
        return groups
    advantage = [("rank", "Rank", "d"), ("entity", "Entity", ""), ("group", "Group", ""), *scores]
    w = report.winners
    lines = [
        f"# System comparison: {a} vs {b}",
        "",
        f"{report.entity_count} entity types. Delta is F1 {a} minus F1 {b}.",
        f"Overall wins: {a} {w.wins_a}, {b} {w.wins_b}, ties {w.ties}.",
        "",
        "## Coarse groups",
        "",
        groups,
    ]
    for side, top in ((a, report.top_a), (b, report.top_b)):
        ranked = ({"rank": i, **vars(r)} for i, r in enumerate(top, 1))
        lines += [f"## Largest {side} advantages", "", render_table(advantage, ranked, fmt)]
    return "\n".join(lines)


@dataclass
class SystemEntry:
    system: str
    category: str
    f1: float
    precision: float
    recall: float


@dataclass
class SystemSummary(SystemEntry):
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
    """Rank systems by micro F1 as printed, to four decimals (descending; ties by name).

    The best-F1 mark and the delta to the top use it too, so compare's own CSV reads back as is.
    """
    names = [e.system for e in entries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise AnalysisError(f"duplicate system name(s): {dupes}")
    if not entries:
        raise AnalysisError("no systems to compare")
    printed = {e.system: round(e.f1, _F1_PRECISION) for e in entries}
    ranked = sorted(entries, key=lambda e: (-printed[e.system], e.system))
    top_f1 = printed[ranked[0].system]
    best_p = max(e.precision for e in entries)
    best_r = max(e.recall for e in entries)
    return [
        SystemSummary(
            **vars(e),
            rank=i,
            f1_delta_vs_top=printed[e.system] - top_f1,
            best_f1=printed[e.system] == top_f1,
            best_precision=e.precision == best_p,
            best_recall=e.recall == best_r,
        )
        for i, e in enumerate(ranked, 1)
    ]


_SYSTEM_COLUMNS: list[Column] = [
    ("rank", "Rank", "d"), ("system", "System", ""), ("category", "Category", ""),
    ("f1", "F1", ".4f"), ("precision", "P", ".4f"), ("recall", "R", ".4f"),
    ("f1_delta_vs_top", "vs top", "+.4f"),
]


def emit_comparison(summaries: list[SystemSummary], fmt: str = "markdown") -> str:
    """Render a ranked system table as markdown, csv or json."""
    rows = [vars(s) for s in summaries]
    if fmt == "json":
        return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"
    if fmt != "csv":  # markdown marks the best F1 in the system's cell
        rows = [{**r, "system": f"{r['system']} *"} if r["best_f1"] else r for r in rows]
    return render_table(_SYSTEM_COLUMNS, rows, fmt)
