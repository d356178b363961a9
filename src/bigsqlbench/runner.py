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
from dataclasses import dataclass, field, fields
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
    ResultTable,
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
                    rate_limit_per_sec=(
                        float(raw["rate_limit_per_sec"])
                        if raw.get("rate_limit_per_sec") is not None
                        else None
                    ),
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
                float(data["max_spend_usd"])
                if data.get("max_spend_usd") is not None
                else None
            ),
            agent=agent,
        )


@dataclass
class EpisodeResult:
    """One matrix cell: its metric values plus everything reports need.

    The init fields are the records.json entry, in this order; `record` is
    the metric record built from them once.
    """

    model: str
    case_id: str
    repetition: int
    scale_factor: float
    indicator: int
    exact: bool
    precision: float
    t_gold: float
    t_gen: float
    t_e2e: float
    c_e2e: float
    outcome: str
    golden_sql: str
    generated_sql: str
    stage_seconds: dict[str, float]
    stage_percentages: dict[str, float]
    stage_cost: dict[str, float]
    trace_path: str | None = None
    error: str | None = None
    estimated_usage: bool = False
    record: MetricRecord = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.record = MetricRecord(
            case_id=self.case_id,
            run_id=self.repetition,
            indicator=self.indicator,
            precision=self.precision,
            t_gold=self.t_gold,
            t_gen=self.t_gen,
            t_e2e=self.t_e2e,
            c_e2e=self.c_e2e,
            exact=self.exact,
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "EpisodeResult":
        names = [f.name for f in fields(cls) if f.init]
        return cls(**{name: data[name] for name in names if name in data})


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
        if spec.kind == "http-api":
            if not spec.endpoint:
                problems.append(f"backend {spec.name!r}: http-api requires an endpoint")
            elif not spec.endpoint.lower().startswith(("http://", "https://")):
                problems.append(
                    f"backend {spec.name!r}: http-api endpoint {spec.endpoint!r} "
                    "needs an http:// or https:// scheme"
                )
        if spec.kind not in ("replay", "http-api"):
            problems.append(f"backend {spec.name!r}: unknown kind {spec.kind!r}")
        # `not > 0` also rejects NaN; None means no limit
        if spec.rate_limit_per_sec is not None and not spec.rate_limit_per_sec > 0:
            problems.append(
                f"backend {spec.name!r}: rate_limit_per_sec must be > 0, "
                f"got {spec.rate_limit_per_sec}"
            )
    if plan.pricing.engine.mode == "per-byte-scanned":
        # the embedded engine never reports bytes scanned, so this mode would
        # bill every query $0
        problems.append(
            "engine pricing 'per-byte-scanned' needs an engine that reports "
            "bytes scanned; the embedded engine reports none"
        )
    try:
        cases = load_suite(plan.suite, scale_factor=plan.scale_factors[0])
    except Exception as exc:
        problems.append(f"suite failed to load: {exc}")
        return problems
    usable = [c for c in cases if c.usable]
    if not usable:
        problems.append("suite has no usable cases")
    for spec in plan.backends:
        if (
            spec.kind != "replay"
            or spec.scripts_dir is None
            or not spec.scripts_dir.is_dir()
        ):
            continue  # a missing scripts_dir is reported above
        for case in usable:
            script = _script_path(spec.scripts_dir, case.case_id)
            if not script.is_file():
                problems.append(
                    f"backend {spec.name!r}: no replay script for case "
                    f"{case.case_id!r}: {script} not found"
                )
    return problems


def _script_path(scripts_dir: Path, case_id: str) -> Path:
    return scripts_dir / f"{case_id}.jsonl"


@dataclass(frozen=True)
class _EpisodeSpec:
    backend: BackendSpec
    case: QueryCase
    repetition: int
    scale_factor: float
    golden: ResultTable
    golden_t: float
    # replay entries shared by every episode of this (backend, case); read-only
    script: list[dict[str, Any]] | None
    trace_dir: Path


class _Sessions:
    """The engine sessions of one run: one per (thread, data directory).

    A thread opens its session over a directory on first use and keeps it
    for the rest of the run.  Sessions over suite data hold no state between
    statements (the engine denies everything but reading), so reuse cannot
    carry one episode into the next.
    """

    def __init__(self) -> None:
        # each thread reads and writes only its own keys
        self._sessions: dict[tuple[int, Path], EmbeddedEngine] = {}

    def get(self, data_dir: Path) -> EmbeddedEngine:
        key = (threading.get_ident(), data_dir)
        session = self._sessions.get(key)
        if session is None:
            session = EmbeddedEngine(EngineConfig(data_dir=data_dir))
            self._sessions[key] = session
        return session

    def close(self) -> None:
        """Close every session opened, from any thread; call once none is in use."""
        for session in self._sessions.values():
            session.close()


@dataclass(frozen=True)
class _Run:
    """What every episode of one run shares."""

    plan: RunPlan
    limiters: dict[str, _RateLimiter]
    sessions: _Sessions
    # trace directories that could not be created, with the error
    trace_dir_errors: dict[Path, OSError]


def execute_plan(plan: RunPlan) -> RunOutput:
    """Run the full matrix and write episode logs plus records.json."""
    problems = validate_plan(plan)
    if problems:
        raise PlanValidationError("; ".join(problems))

    plan.output_dir.mkdir(parents=True, exist_ok=True)
    goldens_dir = plan.output_dir / "goldens"
    sessions = _Sessions()
    try:
        specs, unusable = _plan_episodes(plan, goldens_dir, sessions)
        run = _Run(
            plan=plan,
            limiters={
                spec.name: _RateLimiter(spec.rate_limit_per_sec)
                for spec in plan.backends
                if spec.rate_limit_per_sec is not None
            },
            sessions=sessions,
            trace_dir_errors=_make_trace_dirs(specs),
        )
        episodes, not_started = _run_episodes(run, specs)
    finally:
        sessions.close()

    skipped = [
        {
            "model": spec.backend.name,
            "case_id": spec.case.case_id,
            "repetition": spec.repetition,
            "scale_factor": spec.scale_factor,
            "reason": f"budget ceiling ${plan.max_spend_usd} reached",
        }
        for spec in not_started
    ]

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
            }
        )
    )
    return RunOutput(
        episodes=episodes,
        skipped=skipped,
        unusable_cases=unusable,
        records_path=records_path,
    )


def _plan_episodes(
    plan: RunPlan, goldens_dir: Path, sessions: _Sessions
) -> tuple[list[_EpisodeSpec], list[dict[str, str]]]:
    """Every cell of the matrix, each with its golden; and the unusable cases.

    The goldens run on this thread's sessions, one per data directory.
    """
    specs: list[_EpisodeSpec] = []
    unusable: list[dict[str, str]] = []
    # Each replay script is read once per run, so an edit between runs is seen.
    scripts: dict[Path, list[dict[str, Any]]] = {}
    for sf in plan.scale_factors:
        for case in load_suite(plan.suite, scale_factor=sf):
            error = case.error
            if error is None:
                try:
                    golden, t_gold = materialize_golden(
                        case, sessions.get(case.data_dir), out_dir=goldens_dir,
                        scale_factor=sf,
                    )
                except GoldenMaterializationError as exc:
                    error = str(exc)
            if error is not None:
                unusable.append(
                    {"case_id": case.case_id, "scale_factor": format_sf(sf),
                     "error": error}
                )
                continue
            for backend in plan.backends:
                script = None
                if backend.kind == "replay":
                    script = _load_script(backend, case.case_id, scripts)
                trace_dir = (
                    plan.output_dir / "traces" / backend.name / f"sf{format_sf(sf)}"
                )
                for rep in range(plan.repetitions):
                    specs.append(
                        _EpisodeSpec(backend, case, rep, sf, golden, t_gold,
                                     script, trace_dir)
                    )
    return specs, unusable


def _make_trace_dirs(specs: list[_EpisodeSpec]) -> dict[Path, OSError]:
    """Create each trace directory once; return those that failed."""
    errors: dict[Path, OSError] = {}
    for trace_dir in dict.fromkeys(spec.trace_dir for spec in specs):
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            errors[trace_dir] = exc
    return errors


def _run_episodes(
    run: _Run, specs: list[_EpisodeSpec]
) -> tuple[list[EpisodeResult], list[_EpisodeSpec]]:
    """Run specs in order on the worker pool until done or the spend ceiling.

    Returns the finished episodes and the specs never started.
    """
    plan = run.plan
    workers = max(1, plan.concurrency)
    episodes: list[EpisodeResult] = []
    spent = 0.0
    idx = 0
    pending: dict[Any, _EpisodeSpec] = {}
    with ThreadPoolExecutor(max_workers=workers) as executor:
        while idx < len(specs) or pending:
            while (
                idx < len(specs)
                and len(pending) < workers
                and (plan.max_spend_usd is None or spent < plan.max_spend_usd)
            ):
                future = executor.submit(_run_episode, run, specs[idx])
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
    return episodes, specs[idx:]


def _load_script(
    spec: BackendSpec, case_id: str, scripts: dict[Path, list[dict[str, Any]]]
) -> list[dict[str, Any]]:
    """The entries of a replay script, read on the first request for it."""
    assert spec.scripts_dir is not None  # validate_plan requires it
    path = _script_path(spec.scripts_dir, case_id)
    if path not in scripts:
        try:
            loaded = ReplayBackend.from_path(path, model_id=spec.model_id)
        except (OSError, ValueError) as exc:
            raise PlanValidationError(
                f"backend {spec.name!r}: replay script {path} failed to load: {exc}"
            ) from exc
        scripts[path] = loaded.entries
    return scripts[path]


def _make_backend(
    episode: _EpisodeSpec, limiters: dict[str, _RateLimiter]
) -> LlmBackend:
    spec = episode.backend
    if episode.script is not None:
        # a fresh cursor over the shared entries
        backend: LlmBackend = ReplayBackend(episode.script, model_id=spec.model_id)
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


def _run_episode(run: _Run, spec: _EpisodeSpec) -> EpisodeResult:
    case = spec.case
    backend_spec = spec.backend
    pricing_entry = run.plan.pricing.lookup(backend_spec.model_id)

    trace = AgentTrace(question=case.nl_question, model_id=backend_spec.model_id)
    ledger = CostLedger()
    error: str | None = None
    try:
        llm = _make_backend(spec, run.limiters)
        engine = run.sessions.get(case.data_dir)
        trace = run_agent(case.nl_question, run.plan.agent, llm, engine)
        ledger = compose_ledger(trace, pricing_entry, run.plan.pricing.engine)
    except Exception as exc:  # harness fault: record it, never drop the cell
        error = f"harness error: {exc}"

    return _episode_result(run, spec, trace, ledger, error)


def _episode_result(
    run: _Run,
    spec: _EpisodeSpec,
    trace: AgentTrace,
    ledger: CostLedger,
    error: str | None,
) -> EpisodeResult:
    case = spec.case
    golden = spec.golden
    generated = trace.final_result
    indicator = 0
    precision = 0.0
    exact = False
    if generated is not None:
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
    breakdown = stage_breakdown(trace)
    stage_cost = {name: entry.total for name, entry in ledger.stages.items()}

    trace_path = None
    trace_file = spec.trace_dir / f"{case.case_id}_r{spec.repetition}.jsonl"
    problem = run.trace_dir_errors.get(spec.trace_dir)
    if problem is None:
        try:
            trace_file.write_text(trace_to_jsonl(trace))
            trace_path = str(trace_file)
        except OSError as exc:
            problem = exc
    if problem is not None:
        logger.warning("could not write episode trace %s: %s", trace_file, problem)

    return EpisodeResult(
        model=spec.backend.name,
        case_id=case.case_id,
        repetition=spec.repetition,
        scale_factor=spec.scale_factor,
        indicator=indicator,
        exact=exact,
        precision=precision,
        t_gold=spec.golden_t,
        t_gen=t_gen,
        t_e2e=max(trace.e2e_seconds, t_gen),
        c_e2e=ledger.total,
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
