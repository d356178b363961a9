"""Uniform chat backend abstraction: HTTP provider APIs plus offline replay.

Every exchange reports token usage; when a provider omits it, counts are
estimated (length/4) and flagged so cost reports can separate measured from
estimated spend.  A live exchange carries a fingerprint of its request, so an
episode trace replays deterministically and notices when the request it
answered has changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .metrics import Count, Fraction, NonNegative, PositiveInt, from_json_object

_WS_RE = re.compile(r"\s+")


class LlmTransportError(RuntimeError):
    """Provider unreachable, refused the request, or sent a malformed body."""


class ReplayMismatchError(RuntimeError):
    """Live request diverged from the recorded request fingerprint."""


class ReplayExhaustedError(RuntimeError):
    """More completions requested than the replay script contains."""


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling knobs; None means the field is omitted from the request."""

    temperature: NonNegative | None = 0.0
    top_p: Fraction | None = 1.0
    max_tokens: PositiveInt | None = 4096

    def to_payload(self) -> dict[str, Any]:
        return {f.name: value for f in fields(self)
                if (value := getattr(self, f.name)) is not None}


@dataclass(frozen=True)
class _ToolCall:
    name: str
    arguments: Any = None


@dataclass(frozen=True)
class _Response:
    text: str = ""
    tool_call: _ToolCall | None = None


@dataclass(frozen=True)
class _Usage:
    input_tokens: Count | None = None
    output_tokens: Count | None = None


@dataclass(frozen=True)
class ExchangeRecord:
    """One request/response turn with its token usage: what `complete`
    returns, an iteration holds and a script line (bare, or in a trace's
    iteration line) is.  `complete` bills a usage lacking either count at
    length/4 estimates, which a trace records as counts, flagged `estimated`.
    The request's fingerprint is computed for a live exchange and copied
    from the script for a replayed one."""

    response: _Response
    fingerprint: str | None = None
    usage: _Usage | None = None
    estimated: bool = False


def fingerprint_messages(messages: Sequence[dict[str, str]]) -> str:
    """Hash of role-tagged message texts, insensitive to whitespace runs."""
    hasher = hashlib.sha256()
    for message in messages:
        role = message.get("role", "")
        content = _WS_RE.sub(" ", str(message.get("content", ""))).strip()
        hasher.update(role.encode())
        hasher.update(b"\x00")
        hasher.update(content.encode())
        hasher.update(b"\x01")
    return hasher.hexdigest()


def estimate_tokens(text: str) -> int:
    """Tokenizer-free approximation: one token per four characters."""
    return max(1, len(text) // 4) if text else 0


def _billed(
    record: ExchangeRecord, messages: Sequence[dict[str, str]]
) -> ExchangeRecord:
    """`record` billed by its usage when that has both counts, else by
    length/4 estimates, flagged as estimated."""
    usage = record.usage
    if usage and usage.input_tokens is not None and usage.output_tokens is not None:
        return record
    return replace(record, estimated=True, usage=_Usage(
        sum(estimate_tokens(str(m.get("content", ""))) for m in messages),
        estimate_tokens(record.response.text),
    ))


class LlmBackend:
    """Interface both transports implement."""

    model_id: str = ""

    def complete(
        self,
        messages: Sequence[dict[str, str]],
        tool_schemas: Sequence[dict[str, Any]] | None = None,
    ) -> ExchangeRecord:
        raise NotImplementedError


class ReplayBackend(LlmBackend):
    """Deterministic backend that serves pre-recorded exchanges in order.

    Entries carrying a fingerprint are verified against the live request;
    hand-authored scripts may omit fingerprints to skip verification.  The
    entries are never modified, so backends replaying one script can share
    its list, each with its own cursor.
    """

    def __init__(self, entries: list[ExchangeRecord], model_id: str = "replay"):
        self.entries = entries
        self.model_id = model_id
        self._cursor = 0

    @classmethod
    def from_path(cls, path: str | Path, model_id: str = "replay") -> "ReplayBackend":
        """Load a script file; episode traces expand to their embedded exchanges.

        A line with a `type` is a trace line, read by `agent.read_trace_line`;
        any other line is an `ExchangeRecord`, read by `from_json_object`.
        A line that either refuses raises ValueError naming its number, since
        replaying without it would blame the model for a broken script.  So
        does a `harness-error` outcome line: replaying that trace would blame
        the model where the harness stopped.
        """
        # agent imports this module, so its reader is imported when first used
        from .agent import OUTCOME_HARNESS_ERROR, Iteration, read_trace_line

        entries: list[ExchangeRecord] = []
        iterations: list[Iteration] = []
        with open(path) as handle:
            for number, record in json_lines(handle):
                if "type" not in record:
                    try:
                        entries.append(from_json_object(ExchangeRecord, record))
                    except ValueError as exc:
                        raise ValueError(f"line {number}: {exc}") from None
                    continue
                kind, values = read_trace_line(record, number, iterations)
                if kind == "iteration":
                    iterations.append(Iteration(**values))
                    entries.extend(values["exchanges"])
                elif kind == "outcome" and values["outcome"] == OUTCOME_HARNESS_ERROR:
                    raise ValueError(
                        f"line {number}: a trace cut short by a harness fault "
                        "(outcome harness-error) cannot be replayed"
                    )
        return cls(entries, model_id=model_id)

    def complete(
        self,
        messages: Sequence[dict[str, str]],
        tool_schemas: Sequence[dict[str, Any]] | None = None,
    ) -> ExchangeRecord:
        if self._cursor >= len(self.entries):
            raise ReplayExhaustedError(
                f"replay script exhausted after {len(self.entries)} exchanges"
            )
        entry = self.entries[self._cursor]
        self._cursor += 1
        expected = entry.fingerprint
        if expected:
            actual = fingerprint_messages(messages)
            if actual != expected:
                raise ReplayMismatchError(
                    f"request fingerprint {actual[:12]} does not match recorded "
                    f"{expected[:12]} at exchange {self._cursor}"
                )
        return _billed(entry, messages)


def json_lines(lines: Iterable[str]) -> Iterator[tuple[int, dict[str, Any]]]:
    """The numbered JSON objects of a JSON-lines file, blank lines skipped;
    a line that is not a JSON object raises ValueError naming its number."""
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.rstrip())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {number}: not JSON: {exc.msg} at column {exc.colno}"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: not a JSON object")
        yield number, record


# Besides 5xx, the statuses that may succeed when sent again.
_RETRY_STATUSES = frozenset({408, 429})


def _retry_after(value: str | None, default: float) -> float:
    """A Retry-After header's delta-seconds; `default` when absent or a date."""
    if value is not None and re.fullmatch(r"[0-9]+", value.strip()):
        return float(value)
    return default


class HttpBackend(LlmBackend):
    """Chat-completions transport over an OpenAI-compatible HTTP endpoint.

    Credentials come from the environment only.  Connection errors, timeouts,
    408, 429 and 5xx retry with exponential backoff (a 429's Retry-After
    delta-seconds when given); other statuses and malformed bodies fail at
    once.  The wait counts toward episode time.
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        api_key_env: str | None = None,
        sampling: SamplingConfig | None = None,
        supports_tools: bool = False,
        max_attempts: int = 3,
        backoff_seconds: float = 1.0,
        timeout_seconds: float = 120.0,
    ):
        self.endpoint = endpoint
        self.model_id = model_id
        self.api_key_env = api_key_env
        self.sampling = sampling or SamplingConfig()
        self.supports_tools = supports_tools
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.timeout_seconds = timeout_seconds

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise LlmTransportError(
                    f"environment variable {self.api_key_env} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(
        self,
        messages: Sequence[dict[str, str]],
        tool_schemas: Sequence[dict[str, Any]] | None = None,
    ) -> ExchangeRecord:
        payload: dict[str, Any] = {
            "model": self.model_id,
            "messages": list(messages),
        }
        payload.update(self.sampling.to_payload())
        if self.supports_tools and tool_schemas:
            payload["tools"] = list(tool_schemas)

        # Imported here: replay-only runs never load the HTTP stack.
        import http.client
        import urllib.error
        import urllib.request

        try:
            request = urllib.request.Request(
                self.endpoint, json.dumps(payload).encode(), self._headers()
            )
        except ValueError as exc:
            raise LlmTransportError(f"bad endpoint {self.endpoint!r}: {exc}") from exc
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(wait)
            wait = self.backoff_seconds * 2**attempt  # before the next attempt
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout_seconds
                ) as response:
                    body = response.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code < 500 and exc.code not in _RETRY_STATUSES:
                    raise LlmTransportError(f"llm request rejected: {exc}") from exc
                if exc.code == 429:
                    wait = _retry_after(exc.headers.get("Retry-After"), wait)
                last_error = exc
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc  # connection error or timeout
                continue
            try:
                return self._parse(json.loads(body), messages)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                raise LlmTransportError(f"malformed llm response: {exc!r}") from exc
        raise LlmTransportError(
            f"llm request failed after {self.max_attempts} attempts: {last_error}"
        )

    def _parse(
        self, data: dict[str, Any], messages: Sequence[dict[str, str]]
    ) -> ExchangeRecord:
        message = data["choices"][0].get("message", {})
        tool_call = None
        calls = message.get("tool_calls") or []
        if calls:
            function = calls[0].get("function", {})
            arguments = function.get("arguments", "{}")
            if isinstance(arguments, str):
                try:
                    arguments = json.loads(arguments)
                except json.JSONDecodeError:
                    arguments = {"raw": arguments}
            tool_call = {"name": function.get("name", ""), "arguments": arguments}
        usage = data.get("usage") or {}
        counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
        # read as a trace's exchange is, so that the trace reads back
        try:
            record = from_json_object(ExchangeRecord, {
                "fingerprint": fingerprint_messages(messages),
                "response": {"text": message.get("content") or "", "tool_call": tool_call},
                "usage": {"input_tokens": counts[0], "output_tokens": counts[1]},
            })
        except ValueError as exc:
            raise ValueError(f"reply with usage counts {counts}: {exc}") from None
        return _billed(record, messages)
