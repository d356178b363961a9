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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

_WS_RE = re.compile(r"\s+")

DEFAULT_TEMPERATURE = 0.0
DEFAULT_TOP_P = 1.0
DEFAULT_MAX_TOKENS = 4096


class LlmTransportError(RuntimeError):
    """Provider unreachable, refused the request, or sent a malformed body."""


class ReplayMismatchError(RuntimeError):
    """Live request diverged from the recorded request fingerprint."""


class ReplayExhaustedError(RuntimeError):
    """More completions requested than the replay script contains."""


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling knobs; None means the field is omitted from the request."""

    temperature: float | None = DEFAULT_TEMPERATURE
    top_p: float | None = DEFAULT_TOP_P
    max_tokens: int | None = DEFAULT_MAX_TOKENS

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        if self.top_p is not None:
            payload["top_p"] = self.top_p
        if self.max_tokens is not None:
            payload["max_tokens"] = self.max_tokens
        return payload


@dataclass
class ChatExchange:
    """One request/response turn with its token usage."""

    response_text: str
    tool_call: dict[str, Any] | None = None
    input_tokens: int = 0
    output_tokens: int = 0
    estimated: bool = False
    # of the request: computed for a live exchange, copied from the script
    # for a replayed one (None when the script has none)
    fingerprint: str | None = None

    def to_record(self) -> dict[str, Any]:
        """The exchange as a trace's iteration line records it."""
        return {
            "fingerprint": self.fingerprint,
            "response": {"text": self.response_text, "tool_call": self.tool_call},
            "usage": {
                "input_tokens": self.input_tokens,
                "output_tokens": self.output_tokens,
            },
            "estimated": self.estimated,
        }


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


def _exchange(
    messages: Sequence[dict[str, str]],
    text: str,
    tool_call: dict[str, Any] | None,
    counts: tuple[Any, Any] | None,
    estimated: bool,
    fingerprint: str | None,
) -> ChatExchange:
    """An exchange billed with `counts` (input, output) when there are any,
    else with length/4 estimates, flagged as estimated."""
    if counts is None:
        counts = (
            sum(estimate_tokens(str(m.get("content", ""))) for m in messages),
            estimate_tokens(text),
        )
        estimated = True
    return ChatExchange(
        text, tool_call, int(counts[0]), int(counts[1]), estimated, fingerprint
    )


class LlmBackend:
    """Interface both transports implement."""

    model_id: str = ""

    def complete(
        self,
        messages: Sequence[dict[str, str]],
        tool_schemas: Sequence[dict[str, Any]] | None = None,
    ) -> ChatExchange:
        raise NotImplementedError


class ReplayBackend(LlmBackend):
    """Deterministic backend that serves pre-recorded exchanges in order.

    Entries carrying a fingerprint are verified against the live request;
    hand-authored scripts may omit fingerprints to skip verification.  The
    entries are never modified, so backends replaying one script can share
    its list, each with its own cursor.
    """

    def __init__(self, entries: list[dict[str, Any]], model_id: str = "replay"):
        self.entries = entries
        self.model_id = model_id
        self._cursor = 0

    @classmethod
    def from_path(cls, path: str | Path, model_id: str = "replay") -> "ReplayBackend":
        """Load a script file; episode traces expand to their embedded exchanges.

        A line with a `type` is a trace line, read by `agent.read_trace_line`;
        any other line is a `response` record, checked by `check_exchange`.
        A line that either refuses raises ValueError naming its number, since
        replaying without it would blame the model for a broken script.  So
        does a `harness-error` outcome line: replaying that trace would blame
        the model where the harness stopped.
        """
        # agent imports this module, so its reader is imported when first used
        from .agent import OUTCOME_HARNESS_ERROR, read_trace_line

        entries: list[dict[str, Any]] = []
        with open(path) as handle:
            for number, record in json_lines(handle):
                if "type" not in record:
                    check_exchange(record, number)
                    entries.append(record)
                    continue
                kind, values = read_trace_line(record, number)
                if kind == "iteration":
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
    ) -> ChatExchange:
        if self._cursor >= len(self.entries):
            raise ReplayExhaustedError(
                f"replay script exhausted after {len(self.entries)} exchanges"
            )
        entry = self.entries[self._cursor]
        self._cursor += 1
        expected = entry.get("fingerprint")
        if expected:
            actual = fingerprint_messages(messages)
            if actual != expected:
                raise ReplayMismatchError(
                    f"request fingerprint {actual[:12]} does not match recorded "
                    f"{expected[:12]} at exchange {self._cursor}"
                )
        response = entry.get("response", {})
        usage = entry.get("usage") or {}
        counts = None
        if "input_tokens" in usage and "output_tokens" in usage:
            counts = (usage["input_tokens"], usage["output_tokens"])
        # a trace records its estimates as counts, flagged `estimated`
        return _exchange(
            messages, response.get("text", ""), response.get("tool_call"), counts,
            entry.get("estimated", False), expected,
        )


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


def check_exchange(record: Any, number: int) -> None:
    """Raise ValueError naming line `number` unless `record` is an exchange
    `complete` can replay: an object whose `response` is an object, with a
    string `text` when present and a `tool_call` that is null or an object
    with a string `name`; whose `fingerprint` is absent, null or a string;
    whose `estimated` is absent or a boolean; and whose `usage` is absent,
    null or an object in which `input_tokens` and `output_tokens`, when
    present, are ints >= 0."""
    if not isinstance(record, dict):
        raise ValueError(f"line {number}: an exchange is not an object")
    response = record.get("response")
    tool_call = response.get("tool_call") if isinstance(response, dict) else None
    usage = record.get("usage")
    if not isinstance(response, dict):
        problem = "`response` is not an object"
    elif not isinstance(response.get("text", ""), str):
        problem = "`response.text` is not a string"
    elif tool_call is not None and not (
        isinstance(tool_call, dict) and isinstance(tool_call.get("name"), str)
    ):
        problem = (
            "`response.tool_call` is neither null nor an object with a string `name`"
        )
    elif not isinstance(record.get("fingerprint"), (str, type(None))):
        problem = "`fingerprint` is neither null nor a string"
    elif not isinstance(record.get("estimated", False), bool):
        problem = "`estimated` is not a boolean"
    elif not isinstance(usage, (dict, type(None))):
        problem = "`usage` is neither null nor an object"
    else:
        for key in ("input_tokens", "output_tokens"):
            count = (usage or {}).get(key, 0)
            if type(count) is not int or count < 0:  # bool is not a count
                raise ValueError(f"line {number}: `usage.{key}` is not an int >= 0")
        return
    raise ValueError(f"line {number}: {problem}")


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
    ) -> ChatExchange:
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
    ) -> ChatExchange:
        choice = data["choices"][0]
        message = choice.get("message", {})
        text = message.get("content") or ""
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
        counts = None
        if "prompt_tokens" in usage and "completion_tokens" in usage:
            counts = (usage["prompt_tokens"], usage["completion_tokens"])
        return _exchange(
            messages, text, tool_call, counts, False, fingerprint_messages(messages)
        )
