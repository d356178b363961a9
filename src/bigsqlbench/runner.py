"""Plan execution: runs the (model x case x repetition x scale) matrix.

Every cell produces an episode trace log and a metric record; failures are
recorded with their cause, never dropped.  A spend ceiling stops new
episodes once accumulated cost reaches it, since a full matrix against paid
APIs gets expensive fast.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .agent import (
    AgentConfig,
    AgentTrace,
    run_agent,
    stage_breakdown,
    trace_to_jsonl,
)
from .costmodel import CostLedger, PricingConfig, compose_ledger
from .engine import EmbeddedEngine, EngineConfig
from .llmclient import HttpBackend, LlmBackend, ReplayBackend, SamplingConfig
from .metrics import MetricRecord
from .resultset import (
    UndefinedPrecisionError,
    column_precision,
    containment_indicator,
    tables_equal_exact,
)
from .suite import (
    GoldenMaterializationError,
    QueryCase,
    format_sf,
    load_suite,
    materialize_golden,
)

logger = logging.getLogger(__name__)


class PlanValidationError(ValueError):
    """Pre-flight validation failed; nothing was executed or spent."""


@dataclass
class BackendSpec:
    """One model endpoint (or replay stand-in) participating in a run."""

    name: str
    kind: str
    model_id: str
    scripts_dir: Path | None = None
    endpoint: str | None = None
    api_key_env: str | None = None
    supports_tools: bool = False
    rate_limit_per_sec: float | None = None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)


@dataclass
class RunPlan:
    """Everything one evaluation run needs, loadable from a JSON file."""

    suite: Path
    backends: list[BackendSpec]
    pricing: PricingConfig
    output_dir: Path
    repetitions: int = 1
    scale_factors: list[float] = field(default_factory=lambda: [1.0])
    concurrency: int = 4
    seed: int = 0
    max_spend_usd: float | None = None
    agent: AgentConfig = field(default_factory=AgentConfig)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunPlan":
        plan_path = Path(path)
        base = plan_path.parent
        data = json.loads(plan_path.read_text())

        def resolve(p: str) -> Path:
            candidate = Path(p)
            return candidate if candidate.is_absolute() else (base / candidate)

        backends = []
        for raw in data.get("backends", []):
            sampling_raw = raw.get("sampling", {})
            backends.append(
                BackendSpec(
                    name=raw.get("name") or raw["model_id"],
                    kind=raw["kind"],
                    model_id=raw["model_id"],
                    scripts_dir=(
                        resolve(raw["scripts_dir"]) if raw.get("scripts_dir") else None
                    ),
                    endpoint=raw.get("endpoint"),
                    api_key_env=raw.get("api_key_env"),
                    supports_tools=bool(raw.get("supports_tools", False)),
                    rate_limit_per_sec=raw.get("rate_limit_per_sec"),
                    sampling=SamplingConfig(
                        temperature=sampling_raw.get("temperature", 0.0),
                        top_p=sampling_raw.get("top_p", 1.0),
                        max_tokens=sampling_raw.get("max_tokens", 4096),
                    ),
                )
            )
        agent_raw = data.get("agent", {})
        agent = AgentConfig(
            max_iterations=int(agent_raw.get("max_iterations", 15)),
            sample_rows=int(agent_raw.get("sample_rows", 3)),
            terminate_after_first_run=bool(
                agent_raw.get("terminate_after_first_run", True)
            ),
        )
        return cls(
            suite=resolve(data["suite"]),
            backends=backends,
            pricing=PricingConfig.from_json_file(resolve(data["pricing"])),
            output_dir=resolve(data.get("output_dir", "out")),
            repetitions=int(data.get("repetitions", 1)),
            scale_factors=[float(sf) for sf in data.get("scale_factors", [1.0])],
            concurrency=int(data.get("concurrency", 4)),
            seed=int(data.get("seed", 0)),
            max_spend_usd=(
                float(data["max_spend_usd"]) if data.get("max_spend_usd") else None
            ),
            agent=agent,
        )


@dataclass
class EpisodeResult:
    """One matrix cell: its metric record plus everything reports need."""

    model: str
    case_id: str
    repetition: int
    scale_factor: float
    record: MetricRecord
    outcome: str
    golden_sql: str
    generated_sql: str
    stage_seconds: dict[str, float]
    stage_percentages: dict[str, float]
    stage_cost: dict[str, float]
    trace_path: str | None = None
    error: str | None = None
    estimated_usage: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "case_id": self.case_id,
            "repetition": self.repetition,
            "scale_factor": self.scale_factor,
            "indicator": self.record.indicator,
            "exact": self.record.exact,
            "precision": self.record.precision,
            "t_gold": self.record.t_gold,
            "t_gen": self.record.t_gen,
            "t_e2e": self.record.t_e2e,
            "c_e2e": self.record.c_e2e,
            "outcome": self.outcome,
            "golden_sql": self.golden_sql,
            "generated_sql": self.generated_sql,
            "stage_seconds": self.stage_seconds,
            "stage_percentages": self.stage_percentages,
            "stage_cost": self.stage_cost,
            "trace_path": self.trace_path,
            "error": self.error,
            "estimated_usage": self.estimated_usage,
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "EpisodeResult":
        record = MetricRecord(
            case_id=data["case_id"],
            run_id=data["repetition"],
            indicator=data["indicator"],
            precision=data["precision"],
            t_gold=data["t_gold"],
            t_gen=data["t_gen"],
            t_e2e=data["t_e2e"],
            c_e2e=data["c_e2e"],
            exact=data["exact"],
        )
        return cls(
            model=data["model"],
            case_id=data["case_id"],
            repetition=data["repetition"],
            scale_factor=data["scale_factor"],
            record=record,
            outcome=data["outcome"],
            golden_sql=data["golden_sql"],
            generated_sql=data["generated_sql"],
            stage_seconds=data["stage_seconds"],
            stage_percentages=data["stage_percentages"],
            stage_cost=data["stage_cost"],
            trace_path=data.get("trace_path"),
            error=data.get("error"),
            estimated_usage=bool(data.get("estimated_usage", False)),
        )


@dataclass
class RunOutput:
    episodes: list[EpisodeResult]
    skipped: list[dict[str, Any]]
    unusable_cases: list[dict[str, str]]
    records_path: Path


class _RateLimiter:
    """Token bucket; acquire() blocks until a call credit is available."""

    def __init__(self, rate_per_sec: float):
        self.rate = rate_per_sec
        self.capacity = max(1.0, rate_per_sec)
        self.tokens = self.capacity
        self.updated = time.monotonic()
        self.lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self.lock:
                now = time.monotonic()
                self.tokens = min(
                    self.capacity, self.tokens + (now - self.updated) * self.rate
                )
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                needed = (1.0 - self.tokens) / self.rate
            time.sleep(needed)


class _ThrottledBackend(LlmBackend):
    def __init__(self, inner: LlmBackend, limiter: _RateLimiter):
        self.inner = inner
        self.limiter = limiter
        self.kind = inner.kind
        self.model_id = inner.model_id

    def complete(self, messages, tool_schemas=None):
        self.limiter.acquire()
        return self.inner.complete(messages, tool_schemas)


def validate_plan(plan: RunPlan) -> list[str]:
    """Pre-flight checks; returns human-readable problems (empty == valid)."""
    problems: list[str] = []
    if plan.repetitions < 1:
        problems.append("repetitions must be >= 1")
    if not plan.scale_factors:
        problems.append("scale_factors must be non-empty")
    if not plan.backends:
        problems.append("plan declares no backends")
    for spec in plan.backends:
        if spec.model_id not in plan.pricing.models:
            problems.append(f"backend {spec.name!r} has no pricing entry")
        if spec.kind == "replay" and (
            spec.scripts_dir is None or not spec.scripts_dir.is_dir()
        ):
            problems.append(f"backend {spec.name!r}: replay scripts_dir missing")
        if spec.kind == "http-api" and not spec.endpoint:
            problems.append(f"backend {spec.name!r}: http-api requires an endpoint")
        if spec.kind not in ("replay", "http-api"):
            problems.append(f"backend {spec.name!r}: unknown kind {spec.kind!r}")
    if plan.pricing.engine.mode == "per-byte-scanned":
        # the embedded engine never reports bytes scanned, so this mode would
        # bill every query $0
        problems.append(
            "engine pricing 'per-byte-scanned' needs an engine that reports "
            "bytes scanned; the embedded engine reports none"
        )
    try:
        cases = load_suite(plan.suite, scale_factor=plan.scale_factors[0])
        if not any(c.usable for c in cases):
            problems.append("suite has no usable cases")
    except Exception as exc:
        problems.append(f"suite failed to load: {exc}")
    return problems


@dataclass(frozen=True)
class _EpisodeSpec:
    backend: BackendSpec
    case: QueryCase
    repetition: int
    scale_factor: float
    golden_t: float


def execute_plan(plan: RunPlan) -> RunOutput:
    """Run the full matrix and write episode logs plus records.json."""
    problems = validate_plan(plan)
    if problems:
        raise PlanValidationError("; ".join(problems))

    plan.output_dir.mkdir(parents=True, exist_ok=True)
    goldens_dir = plan.output_dir / "goldens"

    specs: list[_EpisodeSpec] = []
    unusable: list[dict[str, str]] = []
    for sf in plan.scale_factors:
        cases = load_suite(plan.suite, scale_factor=sf)
        for case in cases:
            if not case.usable:
                unusable.append(
                    {"case_id": case.case_id, "scale_factor": format_sf(sf),
                     "error": case.error or ""}
                )
                continue
            with EmbeddedEngine(
                EngineConfig(data_dir=case.data_dir, database=case.database)
            ) as engine:
                try:
                    _, t_gold = materialize_golden(
                        case, engine, cache_dir=goldens_dir, scale_factor=sf
                    )
                except GoldenMaterializationError as exc:
                    unusable.append(
                        {"case_id": case.case_id, "scale_factor": format_sf(sf),
                         "error": str(exc)}
                    )
                    continue
            for backend in plan.backends:
                for rep in range(plan.repetitions):
                    specs.append(_EpisodeSpec(backend, case, rep, sf, t_gold))

    limiters = {
        spec.name: _RateLimiter(spec.rate_limit_per_sec)
        for spec in plan.backends
        if spec.rate_limit_per_sec
    }

    episodes: list[EpisodeResult] = []
    skipped: list[dict[str, Any]] = []
    spent = 0.0
    idx = 0
    pending: dict[Any, _EpisodeSpec] = {}
    with ThreadPoolExecutor(max_workers=max(1, plan.concurrency)) as executor:
        while idx < len(specs) or pending:
            while (
                idx < len(specs)
                and len(pending) < max(1, plan.concurrency)
                and (plan.max_spend_usd is None or spent < plan.max_spend_usd)
            ):
                future = executor.submit(_run_episode, plan, specs[idx], limiters)
                pending[future] = specs[idx]
                idx += 1
            if not pending:
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                result = future.result()
                spent += result.record.c_e2e
                episodes.append(result)
                del pending[future]
    for spec in specs[idx:]:
        skipped.append(
            {
                "model": spec.backend.name,
                "case_id": spec.case.case_id,
                "repetition": spec.repetition,
                "scale_factor": spec.scale_factor,
                "reason": f"budget ceiling ${plan.max_spend_usd} reached",
            }
        )

    episodes.sort(key=lambda e: (e.model, e.scale_factor, e.case_id, e.repetition))
    records_path = plan.output_dir / "records.json"
    records_path.write_text(
        json.dumps(
            {
                "seed": plan.seed,
                "episodes": [e.to_json_dict() for e in episodes],
                "skipped": skipped,
                "unusable_cases": unusable,
                # fsum: the running `spent` depends on completion order
                "total_spend_usd": math.fsum(e.record.c_e2e for e in episodes),
            },
            indent=2,
        )
    )
    return RunOutput(
        episodes=episodes,
        skipped=skipped,
        unusable_cases=unusable,
        records_path=records_path,
    )


def _make_backend(
    spec: BackendSpec, case_id: str, limiters: dict[str, _RateLimiter]
) -> LlmBackend:
    if spec.kind == "replay":
        assert spec.scripts_dir is not None
        backend: LlmBackend = ReplayBackend.from_path(
            spec.scripts_dir / f"{case_id}.jsonl", model_id=spec.model_id
        )
    else:
        backend = HttpBackend(
            endpoint=spec.endpoint or "",
            model_id=spec.model_id,
            api_key_env=spec.api_key_env,
            sampling=spec.sampling,
            supports_tools=spec.supports_tools,
        )
    limiter = limiters.get(spec.name)
    if limiter is not None:
        backend = _ThrottledBackend(backend, limiter)
    return backend


def _run_episode(
    plan: RunPlan, spec: _EpisodeSpec, limiters: dict[str, _RateLimiter]
) -> EpisodeResult:
    case = spec.case
    backend_spec = spec.backend
    pricing_entry = plan.pricing.lookup(backend_spec.model_id)
    llm = _make_backend(backend_spec, case.case_id, limiters)

    trace = AgentTrace(question=case.nl_question, model_id=backend_spec.model_id)
    ledger = CostLedger()
    error: str | None = None
    try:
        with EmbeddedEngine(
            EngineConfig(data_dir=case.data_dir, database=case.database)
        ) as engine:
            trace = run_agent(case.nl_question, plan.agent, llm, engine)
        ledger = compose_ledger(trace, pricing_entry, plan.pricing.engine)
    except Exception as exc:  # harness fault: record it, never drop the cell
        error = f"harness error: {exc}"

    return _episode_result(plan, spec, trace, ledger, error)


def _episode_result(
    plan: RunPlan,
    spec: _EpisodeSpec,
    trace: AgentTrace,
    ledger: CostLedger,
    error: str | None,
) -> EpisodeResult:
    case = spec.case
    golden = case.golden_result
    generated = trace.final_result
    indicator = 0
    precision = 0.0
    exact = False
    if golden is not None and generated is not None:
        try:
            indicator = containment_indicator(golden, generated, ordered=case.ordered)
            try:
                precision = column_precision(golden, generated)
            except UndefinedPrecisionError:
                precision = 0.0
            exact = tables_equal_exact(golden, generated, ordered=case.ordered)
        except Exception as exc:  # harness fault: blame this cell, keep the run going
            logger.warning(
                "result comparison failed for %s/%s rep %d",
                spec.backend.name, case.case_id, spec.repetition, exc_info=True,
            )
            indicator, precision, exact = 0, 0.0, False
            error = error or f"harness error: {exc}"

    t_gen = trace.generated_runtime
    t_e2e = max(trace.e2e_seconds, t_gen)
    record = MetricRecord(
        case_id=case.case_id,
        run_id=spec.repetition,
        indicator=indicator,
        precision=precision,
        t_gold=spec.golden_t,
        t_gen=t_gen,
        t_e2e=t_e2e,
        c_e2e=ledger.total,
        exact=exact,
    )
    breakdown = stage_breakdown(trace)
    stage_cost = {name: entry.total for name, entry in ledger.stages.items()}

    trace_path = None
    trace_file = (
        plan.output_dir
        / "traces"
        / spec.backend.name
        / f"sf{format_sf(spec.scale_factor)}"
        / f"{case.case_id}_r{spec.repetition}.jsonl"
    )
    try:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(trace_to_jsonl(trace))
        trace_path = str(trace_file)
    except OSError as exc:
        logger.warning("could not write episode trace %s: %s", trace_file, exc)

    return EpisodeResult(
        model=spec.backend.name,
        case_id=case.case_id,
        repetition=spec.repetition,
        scale_factor=spec.scale_factor,
        record=record,
        outcome=trace.outcome if error is None else "harness-error",
        golden_sql=case.golden_sql,
        generated_sql=trace.final_sql or "",
        stage_seconds=dict(breakdown.seconds),
        stage_percentages=dict(breakdown.percentages),
        stage_cost=stage_cost,
        trace_path=trace_path,
        error=error or trace.error,
        estimated_usage=trace.uses_estimated_tokens,
    )


def load_records(path: str | Path) -> list[EpisodeResult]:
    """Read back the episode results written by execute_plan."""
    data = json.loads(Path(path).read_text())
    return [EpisodeResult.from_json_dict(raw) for raw in data["episodes"]]
