"""Evaluation harness for text-to-SQL agents on analytical engines.

Runs ReAct-style agent episodes over benchmark suites, records per-stage
time and token usage, composes dollar costs, and computes validity and
efficiency metrics with row-containment and column-precision semantics.
"""

from .resultset import (
    Column,
    ResultTable,
    column_precision,
    containment_indicator,
    normalize_column_name,
    tables_equal_exact,
)
from .metrics import (
    MetricRecord,
    SuiteMetrics,
    aggregate,
    cvq,
    exact_match,
    normalize_to_best,
    ves_per_query,
    ves_star_per_query,
    vces_per_query,
)
from .costmodel import (
    CostLedger,
    EnginePricing,
    PricingConfig,
    PricingEntry,
    compose_ledger,
    engine_cost,
    llm_cost,
)
from .agent import AgentConfig, AgentTrace, run_agent, stage_breakdown
from .engine import EngineConfig, EmbeddedEngine, Sessions
from .llmclient import HttpBackend, ReplayBackend
from .suite import (
    QueryCase,
    generate_scaled_data,
    load_suite,
    materialize_golden,
    warehouse_schema,
)
from .runner import RunPlan, execute_plan
from .report import build_report, render_report

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "AgentTrace",
    "Column",
    "CostLedger",
    "EmbeddedEngine",
    "EngineConfig",
    "EnginePricing",
    "HttpBackend",
    "MetricRecord",
    "PricingConfig",
    "PricingEntry",
    "QueryCase",
    "ReplayBackend",
    "ResultTable",
    "RunPlan",
    "Sessions",
    "SuiteMetrics",
    "aggregate",
    "build_report",
    "column_precision",
    "compose_ledger",
    "containment_indicator",
    "cvq",
    "engine_cost",
    "exact_match",
    "execute_plan",
    "generate_scaled_data",
    "llm_cost",
    "load_suite",
    "materialize_golden",
    "normalize_column_name",
    "normalize_to_best",
    "render_report",
    "run_agent",
    "stage_breakdown",
    "tables_equal_exact",
    "ves_per_query",
    "ves_star_per_query",
    "vces_per_query",
    "warehouse_schema",
]
