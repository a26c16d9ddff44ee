"""The piiprep command line.

Exit codes: 0 success, 1 data error (bad records, labels, alignment), 2 usage
error (unknown flags, bad option values), 3 I/O error (unreadable paths).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import click

from piiprep import __version__
from piiprep.analysis import (
    analyze as analyze_rows,
    compare_systems,
    emit_comparison,
    emit_report,
    load_entity_rows,
    load_system_table,
    render_table,
    SystemEntry,
    TYPE_COLUMNS,
)
from piiprep.errors import AnalysisError, RecordError, ToolkitError
from piiprep.jsonl import check_encodable, read_text
from piiprep.labelspace import load_taxonomy
from piiprep.manifest import sha256_file, tally, write_manifest
from piiprep.pipeline import PipelineConfig, run_prepare, sample_subset
from piiprep.records import EncodedRecord, read_records, write_records
from piiprep.scorer import MetricsReport, finalize, stream_score


def guarded(fn):
    """Map toolkit errors to exit 1 and I/O failures to exit 3."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ToolkitError as e:
            raise click.ClickException(str(e)) from None
        except OSError as e:
            exc = click.ClickException(str(e))
            exc.exit_code = 3
            raise exc from None

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="piiprep")
def main() -> None:
    """Corpus preparation and span-level evaluation for PII tagging."""


@main.command()
@click.option("--config", "config_path", required=True, help="Pipeline config (YAML).")
@click.option("--out-dir", default=None, help="Override the configured output directory.")
@click.option("--seed", type=int, default=None, help="Override the configured seed.")
@guarded
def prepare(config_path: str, out_dir: str | None, seed: int | None) -> None:
    """Consolidate sources, rebalance, cap, filter and split a corpus."""
    config = PipelineConfig.from_file(config_path)
    if out_dir is not None:
        config.output_dir = Path(out_dir)
    if seed is not None:
        config.seed = seed
    result = run_prepare(config)
    for name, counters in result.consolidation.items():
        click.echo(
            f"[prepare] {name}: kept {counters['kept']}, dropped {counters['dropped']} "
            f"span-free, {counters['errors']} errors"
        )
    for step, counts in result.steps:
        summary = ", ".join(f"{k} {v}" for k, v in counts.items())
        click.echo(f"[prepare] after {step}: {summary}")
    if result.removed_types:
        click.echo(f"[prepare] removed rare types: {', '.join(result.removed_types)}")
    for name, path in result.split_paths.items():
        click.echo(f"[prepare] wrote {path} ({result.manifests[name].records} records)")


@main.command()
@click.option("--input", "input_path", required=True, help="Artifact to sample from.")
@click.option("--n", "n", type=int, required=True, help="Subset size.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, help="Where to write the subset.")
@guarded
def sample(input_path: str, n: int, seed: int, out_path: str) -> None:
    """Draw a source-proportional random subset of an artifact."""
    if n <= 0:
        raise click.UsageError(f"--n must be positive, got {n}")
    records = list(read_records(input_path))
    subset = [EncodedRecord(rec) for rec in sample_subset(records, n, seed)]
    sha256 = hashlib.sha256()
    write_records(out_path, subset, sha256)
    manifest = write_manifest(out_path, subset, sha256=sha256.hexdigest(), seed=seed)
    click.echo(f"[sample] wrote {out_path} ({manifest.records} records, sha256 {manifest.sha256[:12]}...)")


@main.command()
@click.option("--input", "input_path", required=True, help="Artifact to check.")
@click.option("--taxonomy", "taxonomy_path", default=None,
              help="Taxonomy file; defaults to the built-in canonical one.")
@click.option("--strict", is_flag=True, help="Fail (exit 1) when orphan continuations exist.")
@guarded
def validate(input_path: str, taxonomy_path: str | None, strict: bool) -> None:
    """Check artifact schema and labels (by prepare's taxonomy check); report counts and orphans."""
    space = load_taxonomy(taxonomy_path)

    def checked(records):
        # read_records rejects blank lines, so the record number is the line number.
        for lineno, rec in enumerate(records, 1):
            unknown = space.unknown_type(rec.labels)
            if unknown is not None:
                raise RecordError(
                    f"{Path(input_path).name}:{lineno}: record {rec.id}: "
                    f"entity type {unknown!r} not in taxonomy"
                )
            yield rec

    summary = tally(checked(read_records(input_path)))
    # Report the per-source dict under "sources", in that key's place.
    summary["sources"] = summary.pop("per_source_records")
    click.echo(json.dumps(summary, indent=2, ensure_ascii=False))
    n_orphans = summary["orphan_continuations"]
    if strict and n_orphans:
        raise click.ClickException(f"{n_orphans} orphan continuation(s) under --strict")


def _utf8_option(ctx, param, value: str | None) -> str | None:
    """The option's value, or a usage error when the report could not hold it."""
    if value is not None:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise click.BadParameter(f"{value!r} is not valid UTF-8") from None
    return value


@main.command()
@click.option("--gold", "gold_path", required=True, help="Gold artifact (JSONL).")
@click.option("--pred", "pred_path", required=True, help="Predictions (JSONL with id+labels).")
@click.option("--chunk-size", type=int, default=5000, show_default=True,
              help="Records per chunk in the report's chunks count; scoring reads one line at a time.")
@click.option("--out", "out_path", default=None, help="Report JSON path (default: stdout).")
@click.option("--csv", "csv_path", default=None, help="Also write a per-type CSV here.")
@click.option("--taxonomy", "taxonomy_path", default=None,
              help="Taxonomy for the CSV's group column; defaults to the built-in canonical one.")
@click.option("--unordered", is_flag=True, help="Align by id instead of requiring same order.")
@click.option("--system", "system", default=None, callback=_utf8_option,
              help="System name stored in the report.")
@click.option("--category", default=None, callback=_utf8_option,
              help="System category stored in the report.")
@guarded
def score(
    gold_path: str,
    pred_path: str,
    chunk_size: int,
    out_path: str | None,
    csv_path: str | None,
    taxonomy_path: str | None,
    unordered: bool,
    system: str | None,
    category: str | None,
) -> None:
    """Span-level exact-match scoring of predictions against gold."""
    if chunk_size < 1:
        raise click.UsageError(f"--chunk-size must be >= 1, got {chunk_size}")
    space = load_taxonomy(taxonomy_path)
    result = stream_score(gold_path, pred_path, chunk_size=chunk_size, unordered=unordered)
    report = finalize(
        result.counters,
        records=result.records,
        chunks=result.chunks,
        system=system,
        category=category,
    )
    text = report.to_json()
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(
            f"[score] {report.records} records, micro F1 {report.micro_f1:.4f} -> {out_path}"
        )
    else:
        click.echo(text, nl=False)
    if csv_path:
        rows = (
            {"type": t, "group": space.coarse_map.get(t, ""), **vars(m)}
            for t, m in sorted(report.per_type.items())
        )
        Path(csv_path).write_text(render_table(TYPE_COLUMNS, rows, "csv"), encoding="utf-8")


def _read_report(path: Path) -> MetricsReport:
    """A score report written by `piiprep score`, or a located data error."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise AnalysisError(f"{path.name}:{e.lineno}: malformed JSON: {e.msg}") from None
    if not isinstance(obj, dict):
        raise AnalysisError(f"{path.name}: a score report must be a JSON object")
    try:
        report = MetricsReport.from_dict(obj)
    except KeyError as e:
        raise AnalysisError(f"{path.name}: score report has no {e.args[0]!r}") from None
    except (AttributeError, TypeError):
        raise AnalysisError(f"{path.name}: malformed score report") from None
    micro = (report.micro_precision, report.micro_recall, report.micro_f1)
    if not all(type(v) in (int, float) and math.isfinite(v) for v in micro):
        raise AnalysisError(f"{path.name}: micro scores must be numbers")
    for key in ("system", "category"):
        if not isinstance(getattr(report, key), (str, type(None))):
            raise AnalysisError(f"{path.name}: {key} must be a string")
    check_encodable([(f"{path.name}: system", report.system),
                     (f"{path.name}: category", report.category)])
    return report


@main.command()
@click.option("--table", "table_path", default=None,
              help="CSV of systems (system,category,f1,precision,recall).")
@click.option("--reports", "report_paths", multiple=True,
              help="Score-report JSON files; may repeat.")
@click.option("--format", "fmt", default="markdown",
              type=click.Choice(["markdown", "md", "csv", "json"]))
@click.option("--out", "out_path", default=None, help="Output path (default: stdout).")
@guarded
def compare(table_path: str | None, report_paths: tuple[str, ...], fmt: str, out_path: str | None) -> None:
    """Rank systems by micro F1 across score reports or a results table."""
    entries: list[SystemEntry] = []
    if table_path:
        entries.extend(load_system_table(table_path))
    for rp in report_paths:
        report = _read_report(Path(rp))
        entries.append(
            SystemEntry(
                system=report.system or Path(rp).stem,
                category=report.category or "uncategorised",
                f1=report.micro_f1,
                precision=report.micro_precision,
                recall=report.micro_recall,
            )
        )
    if not entries:
        raise click.UsageError("nothing to compare: pass --table and/or --reports")
    text = emit_comparison(compare_systems(entries), fmt)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"[compare] wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--rows", "rows_path", required=True,
              help="Per-entity CSV (entity,group,support,f1_<system>...).")
@click.option("--a", "system_a", required=True, help="First system (the A side).")
@click.option("--b", "system_b", required=True, help="Second system (the B side).")
@click.option("--top", "top_n", type=int, default=10, show_default=True,
              help="Rows per advantage table.")
@click.option("--format", "fmt", default="markdown",
              type=click.Choice(["markdown", "md", "csv", "json"]))
@click.option("--out", "out_path", default=None, help="Output path (default: stdout).")
@guarded
def analyze(
    rows_path: str,
    system_a: str,
    system_b: str,
    top_n: int,
    fmt: str,
    out_path: str | None,
) -> None:
    """Compare two systems entity by entity: groups, winners, advantages."""
    if top_n < 1:
        raise click.UsageError(f"--top must be >= 1, got {top_n}")
    rows = load_entity_rows(rows_path)
    report = analyze_rows(rows, system_a, system_b, top_n=top_n)
    text = emit_report(report, fmt)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"[analyze] wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command(name="hash")
@click.argument("files", nargs=-1, required=True)
@guarded
def hash_cmd(files: tuple[str, ...]) -> None:
    """Print the SHA-256 of each file, artifact-manifest style."""
    for f in files:
        click.echo(f"{sha256_file(f)}  {f}")


if __name__ == "__main__":
    sys.exit(main())
