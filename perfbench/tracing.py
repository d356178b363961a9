"""In-memory span tracer and the hooks that time calls into each module.

Hooks wrap a module's public functions at the names their callers look them
up by (for example `bigsqlbench.runner.run_agent`, or methods on
`EmbeddedEngine`, which every caller reaches through the class).  A span
records its name, start, end, parent and episode id; parents come from a
per-thread stack, and a span opened on a worker thread with an empty stack
adopts the innermost open span of the thread that installed the hooks.
Spans stay in memory until the traced process writes them out once.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    episode: int | None
    attrs: dict[str, Any]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.span_id, self.parent, self.name, self.start, self.end,
                self.episode, self.attrs]

    @classmethod
    def from_json(cls, raw: list) -> "Span":
        return cls(*raw)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._episodes = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Callable | None = None, new_episode: bool = False) -> Any:
        stack = self._stack()
        outer = stack or self._home_stack
        parent, episode = outer[-1] if outer else (None, None)
        if new_episode:
            episode = next(self._episodes)
        span_id = next(self._ids)
        stack.append((span_id, episode))
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra: dict[str, Any] = {}
            if attrs is not None and returned:
                try:
                    extra = attrs(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    # the target changed shape: its layer reads as unmeasured
                    extra = {"attrs_error": repr(exc)}
            self.spans.append(Span(span_id, parent, name, start, end, episode, extra))


# --- hook targets ------------------------------------------------------------


def _open_attrs(args: tuple, _result: Any) -> dict[str, Any]:
    engine, config = args[0], args[1]
    return {"db": str(config.data_dir), "rows": engine.conn.total_changes}


def _rows_attrs(_args: tuple, result: Any) -> dict[str, Any]:
    return {"rows": result[0].n_rows}


def _iterations_attrs(_args: tuple, trace: Any) -> dict[str, Any]:
    return {"iterations": len(trace.iterations)}


def _compared_attrs(args: tuple, _result: Any) -> dict[str, Any]:
    return {"rows": args[0].n_rows + args[1].n_rows}


def _bytes_attrs(_args: tuple, text: str) -> dict[str, Any]:
    return {"bytes": len(text.encode())}


_ENGINE = "bigsqlbench.engine:EmbeddedEngine"
_REPLAY = "bigsqlbench.llmclient:ReplayBackend"

# (span name, "module[:Class]", attribute, attrs function, starts an episode)
HOOKS: tuple[tuple[str, str, str, Callable | None, bool], ...] = (
    ("suite.generate", "bigsqlbench.cli", "generate_scaled_data", None, False),
    ("suite.load", "bigsqlbench.runner", "load_suite", None, False),
    ("suite.golden", "bigsqlbench.runner", "materialize_golden", None, False),
    ("engine.open", _ENGINE, "__init__", _open_attrs, False),
    ("engine.execute", _ENGINE, "execute_timed", _rows_attrs, False),
    ("engine.explain", _ENGINE, "explain", None, False),
    ("llmclient.script_load", _REPLAY, "from_path", None, False),
    ("llmclient.complete", _REPLAY, "complete", None, False),
    ("agent.run", "bigsqlbench.runner", "run_agent", _iterations_attrs, False),
    ("resultset.containment", "bigsqlbench.runner", "containment_indicator",
     _compared_attrs, False),
    ("resultset.exact", "bigsqlbench.runner", "tables_equal_exact", None, False),
    ("resultset.precision", "bigsqlbench.runner", "column_precision", None, False),
    ("costmodel.compose", "bigsqlbench.runner", "compose_ledger", None, False),
    ("runner.execute_plan", "bigsqlbench.cli", "execute_plan", None, False),
    ("runner.episode", "bigsqlbench.runner", "_run_episode", None, True),
    ("runner.trace_serialize", "bigsqlbench.runner", "trace_to_jsonl",
     _bytes_attrs, False),
    ("metrics.aggregate", "bigsqlbench.report", "aggregate", None, False),
    ("report.load_records", "bigsqlbench.cli", "load_records", None, False),
    ("report.render", "bigsqlbench.cli", "render_report", None, False),
    ("report.build", "bigsqlbench.report", "build_report", None, False),
)

LAYERS = ("suite", "engine", "llmclient", "agent", "resultset", "costmodel",
          "runner", "metrics", "report", "cli")


def _resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs: Callable | None,
          new_episode: bool) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs, new_episode)

    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook target; returns the layers whose targets are gone."""
    unmeasured: list[str] = []
    for name, target, attr, attrs, new_episode in HOOKS:
        layer = name.split(".", 1)[0]
        try:
            owner = _resolve(target)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            if layer not in unmeasured:
                unmeasured.append(layer)
            continue
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_wrap(tracer, name, raw.__func__, attrs, new_episode))
        else:
            wrapped = _wrap(tracer, name, raw, attrs, new_episode)
        setattr(owner, attr, wrapped)
    return unmeasured
