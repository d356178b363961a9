"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every metric is computed from the spans a traced `bigsqlbench` process wrote
(see tracing.py).  A layer whose hook target has gone away, or whose span
attributes no longer fit the target, reads as unmeasured (value None).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import stats
from tracing import LAYERS, Span


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # which end-to-end metric it should move, on which workload


WH = "warehouse-rows"
PER_LAYER = (
    LayerMetric("suite.generate_s", "s", "lower", f"setup_s on {WH}"),
    LayerMetric("suite.load_calls", "count", "lower", "run_s on warehouse-rows"),
    LayerMetric("suite.load_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("suite.golden_calls", "count", "lower", "run_s on warehouse-rows"),
    LayerMetric("suite.golden_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("engine.open_calls", "count", "lower",
                f"run_s, episodes_per_s on {WH}, mini-replay"),
    LayerMetric("engine.open_s", "s", "lower",
                f"run_s, episodes_per_s on {WH}, mini-replay"),
    LayerMetric("engine.opens_per_db", "ratio", "lower",
                f"run_s, episodes_per_s on {WH}, mini-replay (ideal 1)"),
    LayerMetric("engine.rows_loaded", "count", "lower",
                f"run_s, episodes_per_s on {WH}, mini-replay"),
    LayerMetric("engine.execute_calls", "count", "lower", "run_s on warehouse-rows"),
    LayerMetric("engine.execute_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("engine.rows_returned", "count", "lower", "run_s on warehouse-rows"),
    LayerMetric("engine.explain_calls", "count", "lower", "run_s on warehouse-rows"),
    LayerMetric("engine.explain_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("llmclient.script_loads", "count", "lower",
                "episodes_per_s, episode_mean_ms on mini-replay"),
    LayerMetric("llmclient.script_load_s", "s", "lower",
                "episodes_per_s, episode_mean_ms on mini-replay"),
    LayerMetric("llmclient.complete_calls", "count", "lower",
                "episodes_per_s, episode_mean_ms on mini-replay"),
    LayerMetric("llmclient.complete_s", "s", "lower",
                "episodes_per_s, episode_mean_ms on mini-replay"),
    LayerMetric("agent.episodes", "count", "higher", "episode_mean_ms on mini-replay"),
    LayerMetric("agent.iterations", "count", "lower", "episode_mean_ms on mini-replay"),
    LayerMetric("agent.run_s", "s", "lower", "episode_mean_ms on mini-replay"),
    LayerMetric("agent.self_s", "s", "lower", "episode_mean_ms on mini-replay"),
    LayerMetric("agent.overhead_share", "ratio", "lower",
                "episode_mean_ms on mini-replay"),
    LayerMetric("resultset.containment_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("resultset.exact_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("resultset.precision_s", "s", "lower", "run_s on warehouse-rows"),
    LayerMetric("resultset.rows_compared", "count", "lower", "run_s on warehouse-rows"),
    LayerMetric("costmodel.compose_s", "s", "lower", "episodes_per_s on mini-replay"),
    LayerMetric("runner.execute_plan_s", "s", "lower",
                "run_s on warehouse-rows, mini-replay"),
    LayerMetric("runner.self_s", "s", "lower", "run_s on warehouse-rows, mini-replay"),
    LayerMetric("runner.trace_serialize_s", "s", "lower",
                "run_s, output_mib on warehouse-rows, mini-replay"),
    LayerMetric("runner.trace_bytes", "bytes", "lower",
                "output_mib on warehouse-rows, mini-replay"),
    LayerMetric("runner.records_bytes", "bytes", "lower",
                "output_mib on warehouse-rows, mini-replay"),
    LayerMetric("runner.worker_busy_share", "ratio", "higher",
                "episodes_per_s on mini-replay (2 workers)"),
    LayerMetric("metrics.aggregate_s", "s", "lower", "report_s on every workload"),
    LayerMetric("metrics.ves_gold_median", "ratio", "higher",
                "none: fidelity diagnostic, ideal 1"),
    LayerMetric("report.load_records_s", "s", "lower", "report_s on mini-replay"),
    LayerMetric("report.build_s", "s", "lower", "report_s on mini-replay"),
    LayerMetric("report.render_s", "s", "lower", "report_s on mini-replay"),
    LayerMetric("cli.import_s", "s", "lower", "cli_start_s on every workload"),
    LayerMetric("trace.run_s", "s", "lower", "none: traced run_s"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "none: traced run_s minus the untraced run_s just before it"),
)


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _calls(spans: list[Span], name: str) -> float:
    return float(len(_named(spans, name)))


def _total(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in _named(spans, name))


def _attr(spans: list[Span], name: str, key: str) -> float:
    # a span whose attributes failed has none; its layer reads as unmeasured
    return float(sum(s.attrs.get(key, 0) for s in _named(spans, name)))


def _self(spans: list[Span], *names: str) -> float:
    own = stats.self_times(spans)
    return sum(own[s.span_id] for s in spans if s.name in names)


def _opens_per_db(spans: list[Span]) -> float:
    opens = _named(spans, "engine.open")
    dbs = {s.attrs.get("db") for s in opens}
    return len(opens) / len(dbs) if dbs else 0.0


def _busy_share(spans: list[Span], workers: int) -> float:
    episodes = _named(spans, "runner.episode")
    if not episodes:
        return 0.0
    window = max(s.end for s in episodes) - min(s.start for s in episodes)
    return sum(s.duration for s in episodes) / (workers * window)


def _overhead_share(spans: list[Span]) -> float:
    run = _total(spans, "agent.run")
    return _self(spans, "agent.run") / run if run else 0.0


# metrics computed from the traced `run` process alone
RUN_METRICS: dict[str, Callable[[list[Span], int], float]] = {
    "suite.load_calls": lambda sp, w: _calls(sp, "suite.load"),
    "suite.load_s": lambda sp, w: _total(sp, "suite.load"),
    "suite.golden_calls": lambda sp, w: _calls(sp, "suite.golden"),
    "suite.golden_s": lambda sp, w: _total(sp, "suite.golden"),
    "engine.open_calls": lambda sp, w: _calls(sp, "engine.open"),
    "engine.open_s": lambda sp, w: _total(sp, "engine.open"),
    "engine.opens_per_db": lambda sp, w: _opens_per_db(sp),
    "engine.rows_loaded": lambda sp, w: _attr(sp, "engine.open", "rows"),
    "engine.execute_calls": lambda sp, w: _calls(sp, "engine.execute"),
    "engine.execute_s": lambda sp, w: _total(sp, "engine.execute"),
    "engine.rows_returned": lambda sp, w: _attr(sp, "engine.execute", "rows"),
    "engine.explain_calls": lambda sp, w: _calls(sp, "engine.explain"),
    "engine.explain_s": lambda sp, w: _total(sp, "engine.explain"),
    "llmclient.script_loads": lambda sp, w: _calls(sp, "llmclient.script_load"),
    "llmclient.script_load_s": lambda sp, w: _total(sp, "llmclient.script_load"),
    "llmclient.complete_calls": lambda sp, w: _calls(sp, "llmclient.complete"),
    "llmclient.complete_s": lambda sp, w: _total(sp, "llmclient.complete"),
    "agent.episodes": lambda sp, w: _calls(sp, "agent.run"),
    "agent.iterations": lambda sp, w: _attr(sp, "agent.run", "iterations"),
    "agent.run_s": lambda sp, w: _total(sp, "agent.run"),
    "agent.self_s": lambda sp, w: _self(sp, "agent.run"),
    "agent.overhead_share": lambda sp, w: _overhead_share(sp),
    "resultset.containment_s": lambda sp, w: _total(sp, "resultset.containment"),
    "resultset.exact_s": lambda sp, w: _total(sp, "resultset.exact"),
    "resultset.precision_s": lambda sp, w: _total(sp, "resultset.precision"),
    "resultset.rows_compared": lambda sp, w: _attr(sp, "resultset.containment", "rows"),
    "costmodel.compose_s": lambda sp, w: _total(sp, "costmodel.compose"),
    "runner.execute_plan_s": lambda sp, w: _total(sp, "runner.execute_plan"),
    "runner.self_s": lambda sp, w: _self(sp, "runner.execute_plan", "runner.episode"),
    "runner.trace_serialize_s": lambda sp, w: _total(sp, "runner.trace_serialize"),
    "runner.trace_bytes": lambda sp, w: _attr(sp, "runner.trace_serialize", "bytes"),
    "runner.worker_busy_share": _busy_share,
}

# metrics computed from the traced `report` process
REPORT_METRICS: dict[str, Callable[[list[Span]], float]] = {
    "metrics.aggregate_s": lambda sp: _total(sp, "metrics.aggregate"),
    "report.load_records_s": lambda sp: _total(sp, "report.load_records"),
    "report.build_s": lambda sp: _total(sp, "report.build"),
    "report.render_s": lambda sp: _self(sp, "report.render"),
}


def unmeasured_layers(traces: list[dict[str, Any]]) -> set[str]:
    """Layers with a missing hook target or spans whose attributes failed."""
    gone = {layer for t in traces for layer in t["unmeasured"]}
    gone |= {s.layer for t in traces for s in t["spans"] if "attrs_error" in s.attrs}
    return gone


def module_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per module over one traced process, in LAYERS order."""
    own = stats.self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.span_id]
    return totals


def load_trace(raw: dict[str, Any]) -> dict[str, Any]:
    return {**raw, "spans": [Span.from_json(s) for s in raw["spans"]]}
