import json
from pathlib import Path

import pytest

from piiprep.analysis import (
    EntityRow,
    analyze,
    compare_systems,
    emit_comparison,
    emit_report,
    group_table,
    load_entity_rows,
    load_system_table,
    top_advantage,
    winner_counts,
    SystemEntry,
)
from piiprep.errors import AnalysisError
from piiprep.fixtures import system_results_path, entity_results_path


def row(entity, group, support, fa, fb) -> EntityRow:
    return EntityRow(entity=entity, group=group, support=support, f1={"a": fa, "b": fb})


SMALL = [
    row("ONE", "G1", 100, 0.9, 0.5),
    row("TWO", "G1", 300, 0.6, 0.7),
    row("THREE", "G2", 50, 0.8, 0.8),
    row("FOUR", "G2", 150, 0.2, 0.9),
]


class TestLoadEntityRows:
    def write(self, tmp_path: Path, body: str) -> Path:
        p = tmp_path / "rows.csv"
        p.write_text(body, encoding="utf-8")
        return p

    def test_reads_systems_from_headers(self, tmp_path):
        p = self.write(tmp_path, (
            "entity,group,support,f1_x,f1_y\n"
            "NAME,PERSON_GROUP,10,0.5,0.25\n"
        ))
        rows = load_entity_rows(p)
        assert rows[0].f1 == {"x": 0.5, "y": 0.25}

    def test_rounds_to_four_decimals(self, tmp_path):
        p = self.write(tmp_path, (
            "entity,group,support,f1_x\n"
            "NAME,PERSON_GROUP,10,0.123456\n"
        ))
        assert load_entity_rows(p)[0].f1["x"] == 0.1235

    def test_duplicate_entity_rejected(self, tmp_path):
        p = self.write(tmp_path, (
            "entity,group,support,f1_x\n"
            "NAME,G,1,0.5\nNAME,G,2,0.6\n"
        ))
        with pytest.raises(AnalysisError, match="duplicate"):
            load_entity_rows(p)

    def test_missing_f1_column_rejected(self, tmp_path):
        p = self.write(tmp_path, "entity,group,support\nNAME,G,1\n")
        with pytest.raises(AnalysisError, match="f1_"):
            load_entity_rows(p)

    def test_negative_support_rejected(self, tmp_path):
        p = self.write(tmp_path, "entity,group,support,f1_x\nNAME,G,-1,0.5\n")
        with pytest.raises(AnalysisError, match="negative"):
            load_entity_rows(p)

    def test_headers_only_rejected(self, tmp_path):
        p = self.write(tmp_path, "entity,group,support,f1_x\n")
        with pytest.raises(AnalysisError, match="no data"):
            load_entity_rows(p)

    def test_unknown_system_lookup_fails_loudly(self):
        with pytest.raises(AnalysisError, match="no F1 column"):
            SMALL[0].score("zeta")


class TestGroupMath:
    def test_weighted_mean_by_hand(self):
        g1, g2 = group_table(SMALL, "a", "b")
        assert g1.f1_a == pytest.approx((100 * 0.9 + 300 * 0.6) / 400)
        assert g2.f1_a == pytest.approx((50 * 0.8 + 150 * 0.2) / 200)
        assert g2.f1_b == pytest.approx((50 * 0.8 + 150 * 0.9) / 200)

    def test_zero_support_group_rejected(self):
        rows = [row("X", "G", 0, 0.5, 0.5)]
        with pytest.raises(AnalysisError, match="zero total support"):
            group_table(rows, "a", "b")

    def test_group_wins_match_winner_counts(self):
        per_group = winner_counts(SMALL, "a", "b").per_group
        for g in group_table(SMALL, "a", "b"):
            assert (g.wins_a, g.wins_b, g.ties) == per_group[g.group]

    def test_winner_counts_strict(self):
        w = winner_counts(SMALL, "a", "b")
        assert (w.wins_a, w.wins_b, w.ties) == (1, 2, 1)
        assert w.per_group["G1"] == (1, 1, 0)
        assert w.per_group["G2"] == (0, 1, 1)

    def test_group_table_sorted_by_support(self):
        table = group_table(SMALL, "a", "b")
        assert [g.group for g in table] == ["G1", "G2"]
        assert table[0].support == 400
        assert table[0].entities == 2
        assert table[0].delta == pytest.approx(table[0].f1_a - table[0].f1_b)


class TestTopAdvantage:
    def test_favour_a_ranks_by_positive_delta(self):
        top = top_advantage(SMALL, "a", "b", n=2, favour="a")
        assert [r.entity for r in top] == ["ONE", "THREE"]
        assert top[0].delta == pytest.approx(0.4)

    def test_favour_b_keeps_sign_of_delta(self):
        top = top_advantage(SMALL, "a", "b", n=1, favour="b")
        assert top[0].entity == "FOUR"
        assert top[0].delta == pytest.approx(-0.7)

    def test_delta_tie_breaks_by_support_then_name(self):
        rows = [
            row("BETA", "G", 10, 0.6, 0.5),
            row("ALFA", "G", 10, 0.6, 0.5),
            row("HEAVY", "G", 90, 0.7, 0.6),
        ]
        top = top_advantage(rows, "a", "b", n=3, favour="a")
        assert [r.entity for r in top] == ["HEAVY", "ALFA", "BETA"]

    def test_n_beyond_favourable_rows_fills_from_the_other_side(self):
        top = top_advantage(SMALL, "a", "b", n=4, favour="a")
        assert len(top) == 4
        assert top[-1].delta < 0

    def test_bad_favour_rejected(self):
        with pytest.raises(AnalysisError):
            top_advantage(SMALL, "a", "b", favour="c")


class TestAnalyze:
    def test_self_comparison_rejected(self):
        with pytest.raises(AnalysisError, match="itself"):
            analyze(SMALL, "a", "a")

    def test_report_bundle_holds_together(self):
        rep = analyze(SMALL, "a", "b", top_n=2)
        assert rep.entity_count == 4
        assert len(rep.top_a) == 2
        assert len(rep.top_b) == 2
        assert rep.winners.wins_a + rep.winners.wins_b + rep.winners.ties == 4

    def test_markdown_has_summary_and_tables(self):
        text = emit_report(analyze(SMALL, "a", "b"), "markdown")
        assert "# System comparison: a vs b" in text
        assert "Overall wins: a 1, b 2, ties 1." in text
        assert "| G1 | 400 |" in text

    def test_csv_header_is_stable(self):
        text = emit_report(analyze(SMALL, "a", "b"), "csv")
        assert text.splitlines()[0] == "group,support,f1_a,f1_b,delta,wins_a,wins_b"

    def test_json_round_trips(self):
        obj = json.loads(emit_report(analyze(SMALL, "a", "b"), "json"))
        assert obj["winners"] == {"wins_a": 1, "wins_b": 2, "ties": 1}
        assert len(obj["groups"]) == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(AnalysisError, match="format"):
            emit_report(analyze(SMALL, "a", "b"), "xml")


class TestPackagedEntityTable:
    def test_shape(self):
        rows = load_entity_rows(entity_results_path())
        assert len(rows) == 82
        assert {s for r in rows for s in r.f1} == {"direct", "sch"}

    def test_overall_winner_counts(self):
        rows = load_entity_rows(entity_results_path())
        w = winner_counts(rows, "direct", "sch")
        assert (w.wins_a, w.wins_b, w.ties) == (54, 28, 0)

    def test_biggest_advantages_each_way(self):
        rows = load_entity_rows(entity_results_path())
        top_d = top_advantage(rows, "direct", "sch", n=1, favour="a")
        top_s = top_advantage(rows, "direct", "sch", n=1, favour="b")
        assert top_d[0].entity == "CRYPTO_ADDRESS"
        assert top_d[0].delta == pytest.approx(0.8629, abs=1e-9)
        assert top_s[0].entity == "HTTP_COOKIE"
        assert top_s[0].delta == pytest.approx(-0.3940, abs=1e-9)

    def test_group_ranking_starts_with_largest(self):
        rows = load_entity_rows(entity_results_path())
        table = group_table(rows, "direct", "sch")
        assert table[0].group == "FINANCIAL_NER"
        assert table[0].support == 58821


class TestCompareSystems:
    ENTRIES = [
        SystemEntry("slow", "old", 0.2, 0.3, 0.15),
        SystemEntry("fast", "new", 0.6, 0.5, 0.75),
        SystemEntry("mid", "new", 0.4, 0.9, 0.26),
    ]

    def test_ranking_and_delta(self):
        out = compare_systems(self.ENTRIES)
        assert [s.system for s in out] == ["fast", "mid", "slow"]
        assert out[0].rank == 1
        assert out[0].f1_delta_vs_top == 0.0
        assert out[2].f1_delta_vs_top == pytest.approx(-0.4)

    def test_best_flags(self):
        out = compare_systems(self.ENTRIES)
        by_name = {s.system: s for s in out}
        assert by_name["fast"].best_f1 and by_name["fast"].best_recall
        assert by_name["mid"].best_precision
        assert not by_name["slow"].best_f1

    def test_ranks_on_the_printed_f1(self):
        # Equal to four decimals, so a tie broken by name, as a reader of the
        # printed table would rank them; the full values would put b first.
        out = compare_systems([
            SystemEntry("b", "x", 0.61234, 0.5, 0.5),
            SystemEntry("a", "x", 0.61231, 0.5, 0.5),
        ])
        assert [s.system for s in out] == ["a", "b"]
        assert [s.f1_delta_vs_top for s in out] == [0.0, 0.0]
        assert all(s.best_f1 for s in out)

    def test_duplicates_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            compare_systems([self.ENTRIES[0], self.ENTRIES[0]])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            compare_systems([])

    def test_markdown_marks_best_f1(self):
        text = emit_comparison(compare_systems(self.ENTRIES), "markdown")
        assert "fast *" in text

    def test_csv_header(self):
        text = emit_comparison(compare_systems(self.ENTRIES), "csv")
        assert text.splitlines()[0] == (
            "rank,system,category,f1,precision,recall,f1_delta_vs_top"
        )

    def test_packaged_results_table_ranks_direct_first(self):
        out = compare_systems(load_system_table(system_results_path()))
        assert out[0].system == "Direct DeBERTa"
        assert out[0].f1 == 0.6476
        assert out[1].system == "SC+H"
        assert len(out) == 11


class TestLoadSystemTable:
    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("system,f1\nx,0.5\n", encoding="utf-8")
        with pytest.raises(AnalysisError, match="need columns"):
            load_system_table(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "system,category,f1,precision,recall\nx,c,high,0.5,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(AnalysisError, match="t.csv:2"):
            load_system_table(p)
