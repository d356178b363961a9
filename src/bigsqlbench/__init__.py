"""Evaluation harness for text-to-SQL agents on analytical engines.

Runs ReAct-style agent episodes over benchmark suites, records per-stage
time and token usage, composes dollar costs, and computes validity and
efficiency metrics with row-containment and column-precision semantics.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "agent": ("AgentConfig", "AgentTrace", "run_agent", "stage_breakdown"),
    "costmodel": (
        "EnginePricing", "PricingConfig", "PricingEntry", "compose_ledger",
        "engine_cost", "llm_cost",
    ),
    "engine": ("EmbeddedEngine", "EngineConfig", "Sessions"),
    "llmclient": ("HttpBackend", "ReplayBackend"),
    "metrics": (
        "EpisodeResult", "SuiteMetrics", "aggregate", "cvq", "exact_match",
        "normalize_to_best", "ves_per_query", "ves_star_per_query",
        "vces_per_query",
    ),
    "report": ("build_report", "render_report"),
    "resultset": (
        "Column", "ResultTable", "column_precision", "containment_indicator",
        "normalize_column_name", "tables_equal_exact",
    ),
    "runner": ("RunPlan", "execute_plan"),
    "suite": (
        "QueryCase", "generate_scaled_data", "load_suite", "materialize_golden",
        "warehouse_schema",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
