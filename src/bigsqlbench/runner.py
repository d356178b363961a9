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
import os
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Literal

from .agent import (
    OUTCOME_HARNESS_ERROR,
    AgentConfig,
    AgentTrace,
    run_agent,
    stage_breakdown,
    trace_to_jsonl,
)
from .costmodel import PricingConfig, compose_ledger
from .engine import Sessions
from .llmclient import (
    ExchangeRecord,
    HttpBackend,
    LlmBackend,
    ReplayBackend,
    SamplingConfig,
)
from .metrics import (
    STAGES,
    EpisodeResult,
    NonNegative,
    Positive,
    PositiveInt,
    check_fields,
    from_json_object,
    read_json,
)
from .resultset import (
    ResultTable,
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
_SEND_EVERY_S = 0.05  # the longest a worker holds an episode while it holds cells


class PlanValidationError(ValueError):
    """Pre-flight validation failed; nothing was executed or spent."""


@dataclass
class BackendSpec:
    """One model endpoint (or replay stand-in) participating in a run."""

    kind: Literal["replay", "http-api"]
    model_id: str
    name: str = ""  # empty: named by its model_id
    scripts_dir: Path | None = None
    endpoint: str | None = None
    api_key_env: str | None = None
    supports_tools: bool = False
    rate_limit_per_sec: Positive | None = None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def __post_init__(self) -> None:
        self.name = self.name or self.model_id


@dataclass
class RunPlan:
    """Everything one evaluation run needs, loadable from a JSON file."""

    suite: Path
    pricing: PricingConfig
    backends: list[BackendSpec] = field(default_factory=list)
    output_dir: Path = Path("out")
    repetitions: PositiveInt = 1
    scale_factors: list[Positive] = field(default_factory=lambda: [1.0])
    concurrency: PositiveInt = 4  # worker processes
    seed: int = 0
    max_spend_usd: NonNegative | None = None
    agent: AgentConfig = field(default_factory=AgentConfig)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunPlan":
        """Read a plan; a plan or pricing file that cannot be read, parsed
        or understood raises PlanValidationError("plan <path>: <cause>")."""
        base = Path(path).parent  # what a relative path is relative to
        try:
            raw = json.loads(Path(path).read_text())
            plan = from_json_object(
                cls, raw, base=base,
                pricing=lambda p: PricingConfig.from_json_file(
                    read_json(Path, p, "pricing", base)
                ),
            )
        except (OSError, ValueError) as exc:
            raise PlanValidationError(f"plan {path}: {exc}") from exc
        if "output_dir" not in raw:  # the default `out` is beside the plan too
            plan.output_dir = base / plan.output_dir
        return plan


@dataclass
class RunOutput:
    episodes: list[EpisodeResult]
    skipped: list[dict[str, Any]]
    unusable_cases: list[dict[str, str]]
    records_path: Path


class _RateLimiter:
    """Token bucket; acquire() blocks until a call credit is available.

    The bucket is in shared memory, so every worker process forked after it
    is made draws on the same credits.
    """

    def __init__(self, rate_per_sec: float):
        import multiprocessing  # here, so that commands that never run pay nothing

        ctx = multiprocessing.get_context("fork")
        self.rate = rate_per_sec
        self.capacity = max(1.0, rate_per_sec)
        self.lock = ctx.Lock()
        self.tokens = ctx.RawValue("d", self.capacity)
        # time.monotonic() is one clock for every process on the host
        self.updated = ctx.RawValue("d", time.monotonic())

    def acquire(self) -> None:
        while True:
            with self.lock:
                now = time.monotonic()
                tokens = min(
                    self.capacity,
                    self.tokens.value + (now - self.updated.value) * self.rate,
                )
                self.updated.value = now
                if tokens >= 1.0:
                    self.tokens.value = tokens - 1.0
                    return
                self.tokens.value = tokens
                needed = (1.0 - tokens) / self.rate
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
    """Pre-flight checks; returns human-readable problems (empty == valid).

    These are exactly the checks `execute_plan` makes before it writes or
    runs anything, so a plan that validates is a plan that runs.
    """
    with Sessions() as sessions:
        return _preflight(plan, sessions).problems


@dataclass(frozen=True)
class _Preflight:
    problems: list[str]
    # the suite as loaded for each scale factor, in plan order
    cases: dict[float, list[QueryCase]]
    # (backend name, case id, repetition) -> the entries of its replay script
    scripts: dict[tuple[str, str, int], list[ExchangeRecord]]


def _preflight(plan: RunPlan, sessions: Sessions) -> _Preflight:
    """Check a plan, load its suite once per scale factor on `sessions`, and
    parse the replay script of every backend, usable case and repetition.

    Repetition r of case c replays `<c>_r<r>.jsonl` when the scripts_dir has
    it, as a run's trace directory does, and `<c>.jsonl` otherwise.
    """
    try:  # a plan's fields can change after it is read
        check_fields(plan)
    except ValueError as exc:
        return _Preflight([str(exc)], {}, {})
    problems: list[str] = []
    if not plan.scale_factors:
        problems.append("scale_factors must be non-empty")
    # a scale factor and a backend name each name a directory of traces
    for sf, count in Counter(map(format_sf, plan.scale_factors)).items():
        if count > 1:
            problems.append(f"scale factor {sf} is listed {count} times")
    if not plan.backends:
        problems.append("plan declares no backends")
    for name, count in Counter(spec.name for spec in plan.backends).items():
        if count > 1:
            problems.append(f"backend name {name!r} is used by {count} backends")
    if plan.pricing.engine.mode == "per-byte-scanned":
        # the embedded engine never reports bytes scanned, so this mode would
        # bill every query $0
        problems.append(
            "engine pricing 'per-byte-scanned' needs an engine that reports "
            "bytes scanned; the embedded engine reports none"
        )

    cases: dict[float, list[QueryCase]] = {}
    try:
        for sf in dict.fromkeys(plan.scale_factors):
            cases[sf] = load_suite(plan.suite, sf, sessions)
    except (OSError, ValueError) as exc:
        problems.append(f"suite failed to load: {exc}")
    # a case usable at any scale factor needs its scripts
    usable = dict.fromkeys(
        case.case_id for loaded in cases.values() for case in loaded if case.usable
    )
    if cases and not usable:
        problems.append("suite has no usable cases")

    # Each script is read once per run, so an edit between runs is seen.
    scripts: dict[tuple[str, str, int], list[ExchangeRecord]] = {}
    for spec in plan.backends:
        if spec.model_id not in plan.pricing.models:
            problems.append(f"backend {spec.name!r} has no pricing entry")
        if spec.kind == "replay":
            if spec.scripts_dir is None or not spec.scripts_dir.is_dir():
                problems.append(f"backend {spec.name!r}: replay scripts_dir missing")
                continue
            try:
                names = set(os.listdir(spec.scripts_dir))
            except OSError as exc:
                problems.append(f"backend {spec.name!r}: replay scripts_dir: {exc}")
                continue
            # file name -> its entries, None if it is missing or failed to
            # parse: each file is parsed, and each problem reported, once
            by_name: dict[str, list[ExchangeRecord] | None] = {}
            for case_id in usable:
                for rep in range(plan.repetitions):
                    name = f"{case_id}_r{rep}.jsonl"
                    if name not in names:
                        name = f"{case_id}.jsonl"
                    if name not in by_name:
                        by_name[name] = _load_script(spec, case_id, name, problems)
                    if by_name[name] is not None:
                        scripts[spec.name, case_id, rep] = by_name[name]
        else:  # http-api
            if not spec.endpoint:
                problems.append(f"backend {spec.name!r}: http-api requires an endpoint")
            elif not spec.endpoint.lower().startswith(("http://", "https://")):
                problems.append(
                    f"backend {spec.name!r}: http-api endpoint {spec.endpoint!r} "
                    "needs an http:// or https:// scheme"
                )
            # every request would fail: an operator fault, which would
            # otherwise be recorded as the model's llm-error at $0
            if spec.api_key_env and not os.environ.get(spec.api_key_env):
                problems.append(
                    f"backend {spec.name!r}: api_key_env {spec.api_key_env!r} "
                    "is unset or empty"
                )
    return _Preflight(problems, cases, scripts)


def _load_script(
    spec: BackendSpec, case_id: str, name: str, problems: list[str]
) -> list[ExchangeRecord] | None:
    """The entries of replay script `name` in spec's scripts_dir, or None
    with the reason appended to `problems`."""
    path = spec.scripts_dir / name
    try:
        return ReplayBackend.from_path(path, model_id=spec.model_id).entries
    except FileNotFoundError:
        problems.append(
            f"backend {spec.name!r}: no replay script for case {case_id!r}: "
            f"{path} not found"
        )
    except (OSError, ValueError) as exc:  # a script that cannot be read or parsed
        problems.append(
            f"backend {spec.name!r}: replay script {path} failed to load: {exc}"
        )
    return None


@dataclass(frozen=True)
class _EpisodeSpec:
    backend: BackendSpec
    case: QueryCase
    repetition: int
    scale_factor: float
    golden: ResultTable
    golden_t: float
    # replay entries shared by every episode replaying one script; read-only
    script: list[ExchangeRecord] | None
    trace_dir: Path


@dataclass(frozen=True)
class _Run:
    """What every episode of one run shares."""

    plan: RunPlan
    limiters: dict[str, _RateLimiter]
    # the run's registrations; each worker process opens its own sessions
    sessions: Sessions
    # trace directories that could not be created, with the error
    trace_dir_errors: dict[Path, OSError]


def execute_plan(plan: RunPlan) -> RunOutput:
    """Run the full matrix and write episode logs plus records.json.

    Validation, the goldens and every worker read one snapshot of each data
    directory, which the run's Sessions removes once the episodes are done.
    """
    with Sessions() as sessions:
        checked = _preflight(plan, sessions)
        if checked.problems:
            raise PlanValidationError("; ".join(checked.problems))

        plan.output_dir.mkdir(parents=True, exist_ok=True)
        try:
            specs, unusable = _plan_episodes(plan, checked, sessions)
        finally:
            # before the workers fork: sqlite connections must not cross a fork
            sessions.close()
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
                "total_spend_usd": math.fsum(e.c_e2e for e in episodes),
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
    plan: RunPlan, checked: _Preflight, sessions: Sessions
) -> tuple[list[_EpisodeSpec], list[dict[str, str]]]:
    """Every cell of the matrix, each with its golden; and the unusable cases.

    The cells come from the pre-flight's cases and scripts; the goldens run
    on `sessions`, one per data directory.
    """
    specs: list[_EpisodeSpec] = []
    unusable: list[dict[str, str]] = []
    for sf, cases in checked.cases.items():
        for case in cases:
            error = case.error
            if error is None:
                try:
                    golden, t_gold = materialize_golden(
                        case, sessions.get(case.data_dir),
                        out_dir=plan.output_dir / "goldens", scale_factor=sf,
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
                trace_dir = (
                    plan.output_dir / "traces" / backend.name / f"sf{format_sf(sf)}"
                )
                for rep in range(plan.repetitions):
                    script = checked.scripts.get((backend.name, case.case_id, rep))
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
    """Run specs in plan order on `concurrency` worker processes, until done or
    the spend ceiling.

    The workers are forked, so they inherit the specs with their goldens and
    replay scripts, and the engine's snapshots, without copying or
    registering anything again.  The parent alone hands out the specs and
    adds up the spend: it sends each worker ranges of spec indices, then None
    to stop, and the episodes come back in batches (see `_worker`).  No index
    is sent once the spend has reached the ceiling.  Returns the finished
    episodes and the specs never sent; raises RuntimeError if a worker fails
    or dies.
    """
    import multiprocessing  # here, so that commands that never run pay nothing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    ceiling = run.plan.max_spend_usd
    next_index, spent = 0, 0.0
    episodes: list[EpisodeResult] = []
    workers: dict[Any, Any] = {}  # the parent's end of a pipe -> its worker
    queued: dict[Any, int] = {}  # a pipe -> the indices it has not answered
    stopped: set[Any] = set()  # the pipes sent None

    def depth() -> int:
        """Indices to keep with a worker: under a ceiling one, so that at most
        concurrency - 1 episodes overrun it; else a guided self-scheduling share
        of those left, two at least."""
        if ceiling is not None:
            return 1
        return max(2, (len(specs) - next_index) // (4 * len(workers)))

    def hand_out(conn, limit: int) -> None:
        """Top up a worker's indices to `limit` with one range; once no more may
        be sent, send None, but only to a worker that holds none."""
        nonlocal next_index
        if next_index < len(specs) and (ceiling is None or spent < ceiling):
            n = min(limit - queued[conn], len(specs) - next_index)
            if n > 0:
                conn.send(range(next_index, next_index + n))
                next_index, queued[conn] = next_index + n, queued[conn] + n
        elif not queued[conn] and conn not in stopped:
            conn.send(None)
            stopped.add(conn)

    try:
        for _ in range(min(run.plan.concurrency, len(specs))):
            conn, child = ctx.Pipe()
            process = ctx.Process(target=_worker, args=(run, specs, child), daemon=True)
            process.start()
            child.close()  # so that the pipe reads EOF once the worker is gone
            workers[conn] = process
            queued[conn] = 0
        # in rounds, so that each worker has a cell before any has two
        for first_round in (True, False):
            for conn in workers:
                hand_out(conn, 1 if first_round else depth())
        reading = dict(workers)
        while reading:
            for conn in wait(list(reading)):
                process = reading[conn]
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    process.join()  # its end of the pipe closes as it exits
                    if queued[conn]:
                        raise RuntimeError(
                            f"runner worker {process.pid} exited with code "
                            f"{process.exitcode} before it sent its episodes"
                        ) from None
                    del reading[conn]
                    continue
                if kind == "log":
                    logging.getLogger(payload.name).handle(payload)
                elif kind == "error":
                    raise RuntimeError(f"runner worker {process.pid} failed:\n{payload}")
                else:  # "episodes"
                    episodes.extend(payload)
                    spent = sum((episode.c_e2e for episode in payload), spent)
                    queued[conn] -= len(payload)
                    hand_out(conn, depth())
    finally:
        for conn, process in workers.items():
            process.terminate()  # no-op once joined; stops the rest after a failure
            process.join()
            conn.close()
    return episodes, specs[next_index:]


def _worker(run: _Run, specs: list[_EpisodeSpec], conn) -> None:
    """One worker process: run the specs of the index ranges the parent sends,
    in order, until None.

    Sends its finished episodes as one ("episodes", [result, ...]) once it
    holds no index, or _SEND_EVERY_S after its last send; ("log", record) for
    each record logged here; ("error", traceback) if it fails.
    """
    logging.root.handlers = [_ToParent(conn)]
    try:
        try:
            held: deque[int] = deque()  # indices received and not yet run
            batch, sent_at = [], time.perf_counter()
            # blocks only once it has run and sent all it held; only then may None come
            while held or (cells := conn.recv()) is not None:
                held.extend(() if held else cells)
                while conn.poll():
                    held.extend(conn.recv())
                batch.append(_run_episode(run, specs[held.popleft()]))
                if not held or time.perf_counter() - sent_at >= _SEND_EVERY_S:
                    conn.send(("episodes", batch))
                    batch, sent_at = [], time.perf_counter()
        finally:
            run.sessions.close()
    except Exception:
        conn.send(("error", traceback.format_exc()))


class _ToParent(logging.Handler):
    """Sends a worker's log records to the parent, whose handlers emit them."""

    def __init__(self, conn) -> None:
        super().__init__()
        self.conn = conn

    def emit(self, record: logging.LogRecord) -> None:
        # as logging.handlers.QueueHandler.prepare: fold the arguments and
        # traceback into the message, so that the record pickles
        try:
            record.msg = self.format(record)
            record.args = None
            record.exc_info = record.exc_text = record.stack_info = None
            self.conn.send(("log", record))
        except Exception:
            self.handleError(record)


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
    """Run one cell, write its trace, and score it.

    The record's outcome and error are the trace's.  A fault before the
    agent loop ends the empty trace as harness-error; a fault while billing
    or scoring zeroes the verdicts and marks only the record, so the trace
    stays the agent's own account and still replays.
    """
    case = spec.case
    pricing = run.plan.pricing.lookup(spec.backend.model_id)
    trace = AgentTrace(question=case.nl_question, model_id=spec.backend.model_id)
    try:
        llm = _make_backend(spec, run.limiters)
        engine = run.sessions.get(case.data_dir)
        trace = run_agent(case.nl_question, run.plan.agent, llm, engine)
    except Exception as exc:  # harness fault: record it, never drop the cell
        trace.end_by_fault(exc)
    outcome, error, fault = trace.outcome, trace.error, trace.fault

    golden = spec.golden
    generated = trace.final_result
    stages = stage_breakdown(trace)
    stage_cost: dict[str, float] = {}
    indicator, precision, exact = 0, 0.0, False
    try:
        stage_cost = compose_ledger(stages, pricing, run.plan.pricing.engine)
        if generated is not None:
            exact = tables_equal_exact(golden, generated, ordered=case.ordered)
            # exact implies containment: its rows are not compared again
            indicator = 1 if exact else containment_indicator(
                golden, generated, ordered=case.ordered
            )
            precision = column_precision(golden, generated)
    except Exception as exc:  # harness fault: blame this cell, keep the run going
        indicator, precision, exact = 0, 0.0, False
        if fault is None:
            outcome, error, fault = OUTCOME_HARNESS_ERROR, f"harness error: {exc}", exc
    if fault is not None:
        logger.warning(
            "harness error in %s/%s rep %d at sf %s",
            spec.backend.name, case.case_id, spec.repetition,
            format_sf(spec.scale_factor), exc_info=fault,
        )

    trace_path = None
    trace_file = spec.trace_dir / f"{case.case_id}_r{spec.repetition}.jsonl"
    problem = run.trace_dir_errors.get(spec.trace_dir)
    if problem is None:
        try:
            trace_file.write_text(trace_to_jsonl(trace))
            # relative to records.json, so that a run directory can be moved
            trace_path = trace_file.relative_to(run.plan.output_dir).as_posix()
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
        t_gen=trace.generated_runtime,
        t_e2e=trace.e2e_seconds,
        c_e2e=sum(stage_cost.values()),
        outcome=outcome,
        golden_sql=case.golden_sql,
        generated_sql=trace.final_sql or "",
        stage_seconds={s: stages[s].seconds if s in stages else 0.0 for s in STAGES},
        stage_cost=stage_cost,
        trace_path=trace_path,
        error=error,
        estimated_usage=trace.uses_estimated_tokens,
    )
