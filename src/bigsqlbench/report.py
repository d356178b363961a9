"""Report assembly: metric tables, per-query detail, and plot-data series.

Three table shapes cover the usual reading order: accuracy with a latency
breakdown, efficiency normalized to the best model, and cost-efficiency with
expected cost per valid query.  Normalized columns always pin the best model
at exactly 1.00; sort orders follow the table's own headline metric.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from statistics import fmean, pstdev
from typing import Any, Iterable

from .agent import STAGES
from .metrics import (
    NormalizationError,
    SuiteMetrics,
    aggregate,
    cvq,
    normalize_to_best,
    vces_per_query,
    ves_per_query,
    ves_star_per_query,
)
from .runner import EpisodeResult

FOUR_STAGES = ("list", "schema", "check", "run")

REPORT_FORMATS = ("json", "csv", "markdown", "plotdata")


def _by_model(episodes: Iterable[EpisodeResult]) -> dict[str, list[EpisodeResult]]:
    grouped: dict[str, list[EpisodeResult]] = {}
    for ep in episodes:
        grouped.setdefault(ep.model, []).append(ep)
    return grouped


def _suite_metrics(episodes: list[EpisodeResult]) -> SuiteMetrics:
    records = [ep.record for ep in episodes]
    pairs = [(ep.golden_sql, ep.generated_sql) for ep in episodes]
    return aggregate(records, pairs)


def _safe_normalize(
    values: dict[str, float], higher_is_better: bool
) -> dict[str, float]:
    try:
        return normalize_to_best(values, higher_is_better)
    except NormalizationError:
        return {model: math.nan for model in values}


def build_report(episodes: list[EpisodeResult]) -> dict[str, Any]:
    """Assemble every table and plot series from pooled episode results."""
    if not episodes:
        raise ValueError("cannot build a report from zero episodes")
    grouped = _by_model(episodes)
    suite = {model: _suite_metrics(eps) for model, eps in grouped.items()}

    e2e_mean = {m: fmean(ep.record.t_e2e for ep in eps) for m, eps in grouped.items()}
    e2e_std = {m: pstdev([ep.record.t_e2e for ep in eps]) for m, eps in grouped.items()}
    stage_pct = {
        m: {
            s: fmean(ep.stage_percentages.get(s, 0.0) for ep in eps)
            for s in STAGES
        }
        for m, eps in grouped.items()
    }
    stage_secs = {
        m: {s: fmean(ep.stage_seconds.get(s, 0.0) for ep in eps) for s in STAGES}
        for m, eps in grouped.items()
    }
    stage_cost = {
        m: {s: fmean(ep.stage_cost.get(s, 0.0) for ep in eps) for s in STAGES}
        for m, eps in grouped.items()
    }

    table1 = [
        {
            "model": m,
            "ex": suite[m].p_hat,
            "ea": suite[m].ea,
            "e2e_mean": e2e_mean[m],
            "e2e_std": e2e_std[m],
            "pct": {s: stage_pct[m][s] for s in STAGES},
        }
        for m in grouped
    ]
    table1.sort(key=lambda row: (-row["e2e_mean"], row["model"]))

    ves_norm = _safe_normalize({m: suite[m].ves for m in grouped}, True)
    ves_star_norm = _safe_normalize({m: suite[m].ves_star for m in grouped}, True)
    time_variation = {
        s: _safe_normalize({m: stage_secs[m][s] for m in grouped}, False)
        for s in FOUR_STAGES
    }
    table2 = [
        {
            "model": m,
            "ves": suite[m].ves,
            "ves_star": suite[m].ves_star,
            "ves_norm": ves_norm[m],
            "ves_star_norm": ves_star_norm[m],
            "time_variation": {s: time_variation[s][m] for s in FOUR_STAGES},
        }
        for m in grouped
    ]
    table2.sort(key=lambda row: (-row["ves_star"], row["model"]))

    vces_norm = _safe_normalize({m: suite[m].vces for m in grouped}, True)
    cost_variation = {
        s: _safe_normalize({m: stage_cost[m][s] for m in grouped}, False)
        for s in FOUR_STAGES
    }
    table3 = [
        {
            "model": m,
            "vces": suite[m].vces,
            "vces_norm": vces_norm[m],
            "cvq": suite[m].cvq,
            "cost_variation": {s: cost_variation[s][m] for s in FOUR_STAGES},
        }
        for m in grouped
    ]
    table3.sort(key=lambda row: (-row["vces"], row["model"]))

    per_query = _per_query_rows(episodes)
    plot_time, plot_cost = _plot_series(episodes)

    return {
        "models": sorted(grouped),
        "suite_metrics": {m: suite[m].to_json_dict() for m in sorted(grouped)},
        "table1": table1,
        "table2": table2,
        "table3": table3,
        "per_query": per_query,
        "plotdata_time": plot_time,
        "plotdata_cost": plot_cost,
    }


def _per_query_rows(episodes: list[EpisodeResult]) -> list[dict[str, Any]]:
    grouped: dict[tuple[str, str], list[EpisodeResult]] = {}
    for ep in episodes:
        grouped.setdefault((ep.case_id, ep.model), []).append(ep)
    rows = []
    for (case_id, model), eps in sorted(grouped.items()):
        records = [ep.record for ep in eps]
        ex = [r.indicator for r in records]
        ves = [ves_per_query(r) for r in records]
        ves_star = [ves_star_per_query(r) for r in records]
        vces = [vces_per_query(r) for r in records]
        p_hat = fmean(ex)
        rows.append(
            {
                "case_id": case_id,
                "model": model,
                "n": len(records),
                "ex_mean": p_hat,
                "ex_std": pstdev(ex),
                "ves_mean": fmean(ves),
                "ves_std": pstdev(ves),
                "ves_star_mean": fmean(ves_star),
                "ves_star_std": pstdev(ves_star),
                "vces_mean": fmean(vces),
                "vces_std": pstdev(vces),
                "cvq": cvq(fmean(r.c_e2e for r in records), p_hat),
            }
        )
    return rows


def _plot_series(
    episodes: list[EpisodeResult],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    grouped: dict[tuple[str, float], list[EpisodeResult]] = {}
    for ep in episodes:
        grouped.setdefault((ep.model, ep.scale_factor), []).append(ep)
    time_rows, cost_rows = [], []
    for (model, sf), eps in sorted(grouped.items()):
        time_rows.append(
            {
                "model": model,
                "scale_factor": sf,
                **{s: fmean(ep.stage_seconds.get(s, 0.0) for ep in eps)
                   for s in STAGES},
            }
        )
        cost_rows.append(
            {
                "model": model,
                "scale_factor": sf,
                **{s: fmean(ep.stage_cost.get(s, 0.0) for ep in eps)
                   for s in STAGES},
            }
        )
    return time_rows, cost_rows


# --- rendering -----------------------------------------------------------------


def _fmt4(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "--"
    return f"{value:.4f}"


def _fmt2(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "--"
    return f"{value:.2f}"


def _fmt_x(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "--"
    return f"{value:.2f}x"


def _fmt_seconds(value: float) -> str:
    # 4 significant digits so sub-second replay episodes stay readable
    return f"{value:.4g}"


def render_markdown(report: dict[str, Any]) -> str:
    lines = ["# Evaluation report", ""]

    lines.append("## Accuracy and end-to-end time breakdown")
    lines.append("")
    lines.append(
        "| Model | EX | EA | E2E mean (s) | E2E std | % list | % schema "
        "| % check | % run | % finalize |"
    )
    lines.append("|---|---|---|---|---|---|---|---|---|---|")
    for row in report["table1"]:
        pct = row["pct"]
        lines.append(
            f"| {row['model']} | {_fmt2(row['ex'])} | {_fmt2(row['ea'])} "
            f"| {_fmt_seconds(row['e2e_mean'])} | {_fmt_seconds(row['e2e_std'])} "
            f"| {_fmt2(pct['list'])} | {_fmt2(pct['schema'])} "
            f"| {_fmt2(pct['check'])} | {_fmt2(pct['run'])} "
            f"| {_fmt2(pct['finalize'])} |"
        )
    lines.append("")

    lines.append("## Efficiency normalized to the best model")
    lines.append("")
    lines.append(
        "| Model | VES (norm) | VES* (norm) | list | schema | check | run |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for row in report["table2"]:
        tv = row["time_variation"]
        lines.append(
            f"| {row['model']} | {_fmt2(row['ves_norm'])} "
            f"| {_fmt2(row['ves_star_norm'])} "
            f"| {_fmt_x(tv['list'])} | {_fmt_x(tv['schema'])} "
            f"| {_fmt_x(tv['check'])} | {_fmt_x(tv['run'])} |"
        )
    lines.append("")

    lines.append("## Cost efficiency")
    lines.append("")
    lines.append(
        "| Model | VCES (norm, $^-1) | CVQ ($) | list | schema | check | run |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for row in report["table3"]:
        cv = row["cost_variation"]
        lines.append(
            f"| {row['model']} | {_fmt2(row['vces_norm'])} | {_fmt4(row['cvq'])} "
            f"| {_fmt_x(cv['list'])} | {_fmt_x(cv['schema'])} "
            f"| {_fmt_x(cv['check'])} | {_fmt_x(cv['run'])} |"
        )
    lines.append("")

    lines.append("## Per-query detail (mean +/- std)")
    lines.append("")
    lines.append("| Case | Model | EX | VES | VES* | VCES | CVQ ($) |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in report["per_query"]:
        lines.append(
            f"| {row['case_id']} | {row['model']} "
            f"| {_fmt2(row['ex_mean'])} +/- {_fmt2(row['ex_std'])} "
            f"| {_fmt4(row['ves_mean'])} +/- {_fmt4(row['ves_std'])} "
            f"| {_fmt4(row['ves_star_mean'])} +/- {_fmt4(row['ves_star_std'])} "
            f"| {_fmt4(row['vces_mean'])} +/- {_fmt4(row['vces_std'])} "
            f"| {_fmt4(row['cvq'])} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_records_csv(episodes: list[EpisodeResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "model", "case_id", "repetition", "scale_factor", "indicator",
            "exact", "precision", "t_gold", "t_gen", "t_e2e", "c_e2e", "outcome",
        ]
    )
    for ep in episodes:
        r = ep.record
        writer.writerow(
            [
                ep.model, ep.case_id, ep.repetition, ep.scale_factor,
                r.indicator, int(r.exact), f"{r.precision:.6f}",
                f"{r.t_gold:.6f}", f"{r.t_gen:.6f}", f"{r.t_e2e:.6f}",
                f"{r.c_e2e:.8f}", ep.outcome,
            ]
        )
    return buf.getvalue()


def _render_plot_csv(rows: list[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["model", "scale_factor", *STAGES])
    for row in rows:
        writer.writerow(
            [row["model"], row["scale_factor"]]
            + [f"{row[s]:.6f}" for s in STAGES]
        )
    return buf.getvalue()


def render_report(
    episodes: list[EpisodeResult],
    formats: Iterable[str],
    out_dir: str | Path,
) -> list[Path]:
    """Write the requested report artifacts; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(episodes)
    written: list[Path] = []
    for fmt in formats:
        if fmt == "json":
            path = out / "report.json"
            path.write_text(json.dumps(report, indent=2))
            written.append(path)
        elif fmt == "csv":
            path = out / "records.csv"
            path.write_text(render_records_csv(episodes))
            written.append(path)
        elif fmt == "markdown":
            path = out / "report.md"
            path.write_text(render_markdown(report))
            written.append(path)
        elif fmt == "plotdata":
            time_path = out / "plotdata_time.csv"
            time_path.write_text(_render_plot_csv(report["plotdata_time"]))
            cost_path = out / "plotdata_cost.csv"
            cost_path.write_text(_render_plot_csv(report["plotdata_cost"]))
            written.extend([time_path, cost_path])
        else:
            raise ValueError(f"unknown report format: {fmt!r}")
    return written
