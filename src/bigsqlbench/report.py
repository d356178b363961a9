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
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable

from .metrics import (
    STAGES,
    EpisodeResult,
    NormalizationError,
    aggregate,
    cvq,
    mean,
    normalize_to_best,
    std,
    vces_per_query,
    ves_per_query,
    ves_star_per_query,
)

FOUR_STAGES = ("list", "schema", "check", "run")


def _group(episodes: list[EpisodeResult], key: Callable) -> dict[Any, list]:
    """The episodes by `key(episode)`, in first-seen order."""
    grouped: dict[Any, list[EpisodeResult]] = {}
    for ep in episodes:
        grouped.setdefault(key(ep), []).append(ep)
    return grouped


def _stage_means(eps: list[EpisodeResult], attribute: str) -> dict[str, float]:
    """Mean of one per-stage field (seconds or cost) over eps."""
    return {s: mean(getattr(ep, attribute).get(s, 0.0) for ep in eps) for s in STAGES}


def _stage_shares(eps: list[EpisodeResult]) -> dict[str, float]:
    """Mean over eps of each stage's percentage of the episode's stage
    seconds; an episode whose stages took no time adds 0."""
    totals = [sum(ep.stage_seconds.values()) for ep in eps]
    return {
        s: mean(100.0 * ep.stage_seconds.get(s, 0.0) / total if total > 0 else 0.0
                for ep, total in zip(eps, totals))
        for s in STAGES
    }


def _safe_normalize(
    values: dict[str, float | None], higher_is_better: bool
) -> dict[str, float | None]:
    defined = {model: value for model, value in values.items() if value is not None}
    try:
        normalized = normalize_to_best(defined, higher_is_better)
    except NormalizationError:
        normalized = {model: math.nan for model in defined}
    return {model: normalized.get(model) for model in values}


def build_report(episodes: list[EpisodeResult]) -> dict[str, Any]:
    """Assemble every table and plot series from pooled episode results."""
    if not episodes:
        raise ValueError("cannot build a report from zero episodes")
    grouped = _group(episodes, lambda ep: ep.model)
    suite = {model: aggregate(eps) for model, eps in grouped.items()}

    stage_secs = {m: _stage_means(eps, "stage_seconds") for m, eps in grouped.items()}
    stage_cost = {m: _stage_means(eps, "stage_cost") for m, eps in grouped.items()}

    table1 = [
        {
            "model": m,
            "ex": suite[m].p_hat,
            "ea": suite[m].ea,
            "e2e_mean": mean(ep.t_e2e for ep in eps),
            "e2e_std": std([ep.t_e2e for ep in eps]),
            "pct": _stage_shares(eps),
        }
        for m, eps in grouped.items()
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
    # an undefined VCES sorts last
    table3.sort(key=lambda row: (row["vces"] is None, -(row["vces"] or 0), row["model"]))

    per_query = _per_query_rows(episodes)
    plot_time, plot_cost = _plot_series(episodes)

    return {
        "models": sorted(grouped),
        "suite_metrics": {m: asdict(suite[m]) for m in sorted(grouped)},
        "table1": table1,
        "table2": table2,
        "table3": table3,
        "per_query": per_query,
        "plotdata_time": plot_time,
        "plotdata_cost": plot_cost,
    }


def _per_query_rows(episodes: list[EpisodeResult]) -> list[dict[str, Any]]:
    metrics = (
        ("ex", lambda ep: ep.indicator), ("ves", ves_per_query),
        ("ves_star", ves_star_per_query), ("vces", vces_per_query),
    )
    rows = []
    by_query = _group(episodes, lambda ep: (ep.case_id, ep.model))
    for (case_id, model), eps in sorted(by_query.items()):
        row: dict[str, Any] = {"case_id": case_id, "model": model, "n": len(eps)}
        for name, metric in metrics:
            # a VCES undefined for one run is undefined for the query
            values = [metric(ep) for ep in eps]
            defined = None not in values
            row[f"{name}_mean"] = mean(values) if defined else None
            row[f"{name}_std"] = std(values) if defined else None
        row["cvq"] = cvq(mean(ep.c_e2e for ep in eps), row["ex_mean"])
        rows.append(row)
    return rows


def _plot_series(
    episodes: list[EpisodeResult],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    time_rows, cost_rows = [], []
    by_scale = _group(episodes, lambda ep: (ep.model, ep.scale_factor))
    for (model, sf), eps in sorted(by_scale.items()):
        key = {"model": model, "scale_factor": sf}
        time_rows.append({**key, **_stage_means(eps, "stage_seconds")})
        cost_rows.append({**key, **_stage_means(eps, "stage_cost")})
    return time_rows, cost_rows


# --- rendering -----------------------------------------------------------------


def _fmt(value: float | None, template: str = "{:.2f}") -> str:
    """A table cell; an undefined value (None, NaN or infinite) renders as `--`."""
    if value is None or not math.isfinite(value):
        return "--"
    return template.format(value)


def _table(title: str, header: list[str], rows: Iterable[list[str]]) -> list[str]:
    """A markdown section: title, header, one line per row, blank line."""
    return [
        f"## {title}", "",
        "| " + " | ".join(header) + " |", "|---" * len(header) + "|",
        *("| " + " | ".join(row) + " |" for row in rows), "",
    ]


def render_markdown(report: dict[str, Any]) -> str:
    fine, times = "{:.4f}", "{:.2f}x"
    # 4 significant digits so sub-second replay episodes stay readable
    seconds = "{:.4g}"

    def mean_std(row: dict[str, Any], name: str, template: str = fine) -> str:
        mean, std = row[f"{name}_mean"], row[f"{name}_std"]
        return f"{_fmt(mean, template)} +/- {_fmt(std, template)}"

    return "\n".join([
        "# Evaluation report", "",
        *_table(
            "Accuracy and end-to-end time breakdown",
            ["Model", "EX", "EA", "E2E mean (s)", "E2E std",
             *(f"% {s}" for s in STAGES)],
            ([row["model"], _fmt(row["ex"]), _fmt(row["ea"]),
              _fmt(row["e2e_mean"], seconds), _fmt(row["e2e_std"], seconds),
              *(_fmt(row["pct"][s]) for s in STAGES)]
             for row in report["table1"]),
        ),
        *_table(
            "Efficiency normalized to the best model",
            ["Model", "VES (norm)", "VES* (norm)", *FOUR_STAGES],
            ([row["model"], _fmt(row["ves_norm"]), _fmt(row["ves_star_norm"]),
              *(_fmt(row["time_variation"][s], times) for s in FOUR_STAGES)]
             for row in report["table2"]),
        ),
        *_table(
            "Cost efficiency",
            ["Model", "VCES (norm, $^-1)", "CVQ ($)", *FOUR_STAGES],
            ([row["model"], _fmt(row["vces_norm"]), _fmt(row["cvq"], fine),
              *(_fmt(row["cost_variation"][s], times) for s in FOUR_STAGES)]
             for row in report["table3"]),
        ),
        *_table(
            "Per-query detail (mean +/- std)",
            ["Case", "Model", "EX", "VES", "VES*", "VCES", "CVQ ($)"],
            ([row["case_id"], row["model"], mean_std(row, "ex", "{:.2f}"),
              mean_std(row, "ves"), mean_std(row, "ves_star"),
              mean_std(row, "vces"), _fmt(row["cvq"], fine)]
             for row in report["per_query"]),
        ),
    ])


def _csv(header: list[str], rows: Iterable[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_records_csv(episodes: list[EpisodeResult]) -> str:
    rows = [
        [
            ep.model, ep.case_id, ep.repetition, ep.scale_factor,
            ep.indicator, int(ep.exact), f"{ep.precision:.6f}",
            f"{ep.t_gold:.6f}", f"{ep.t_gen:.6f}", f"{ep.t_e2e:.6f}",
            f"{ep.c_e2e:.8f}", ep.outcome,
        ]
        for ep in episodes
    ]
    header = [
        "model", "case_id", "repetition", "scale_factor", "indicator",
        "exact", "precision", "t_gold", "t_gen", "t_e2e", "c_e2e", "outcome",
    ]
    return _csv(header, rows)


def _render_plot_csv(rows: list[dict[str, Any]]) -> str:
    return _csv(
        ["model", "scale_factor", *STAGES],
        ([row["model"], row["scale_factor"], *(f"{row[s]:.6f}" for s in STAGES)]
         for row in rows),
    )


# each format's files from (report, episodes); `cli.REPORT_FORMATS` lists the keys
_RENDERERS = {
    "json": lambda report, episodes: {"report.json": json.dumps(report, indent=2)},
    "csv": lambda report, episodes: {"records.csv": render_records_csv(episodes)},
    "markdown": lambda report, episodes: {"report.md": render_markdown(report)},
    "plotdata": lambda report, episodes: {
        "plotdata_time.csv": _render_plot_csv(report["plotdata_time"]),
        "plotdata_cost.csv": _render_plot_csv(report["plotdata_cost"]),
    },
}


def render_report(
    episodes: list[EpisodeResult], formats: Iterable[str], out_dir: str | Path
) -> list[Path]:
    """Write the requested report artifacts; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(episodes)
    written: list[Path] = []
    for fmt in formats:
        if fmt not in _RENDERERS:
            raise ValueError(f"unknown report format: {fmt!r}")
        for name, text in _RENDERERS[fmt](report, episodes).items():
            path = out / name
            path.write_text(text)
            written.append(path)
    return written
