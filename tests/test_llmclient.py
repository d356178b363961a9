from __future__ import annotations

import json
import socket
import time

import pytest

from bigsqlbench.agent import (
    DEFAULT_SYSTEM_PROMPT,
    OUTCOME_LLM_ERROR,
    AgentConfig,
    run_agent,
    trace_from_jsonl,
    trace_to_jsonl,
)
from bigsqlbench.llmclient import (
    ExchangeRecord,
    HttpBackend,
    LlmTransportError,
    ReplayBackend,
    ReplayExhaustedError,
    ReplayMismatchError,
    SamplingConfig,
    estimate_tokens,
    fingerprint_messages,
)
from bigsqlbench.metrics import from_json_object
from tests.conftest import iteration_line

MESSAGES = [
    {"role": "system", "content": "be terse"},
    {"role": "user", "content": "hello"},
]


def script_entry(text, in_tok=10, out_tok=5, fingerprint=None):
    return from_json_object(ExchangeRecord, {
        "fingerprint": fingerprint,
        "response": {"text": text, "tool_call": None},
        "usage": {"input_tokens": in_tok, "output_tokens": out_tok},
    })


# --- fingerprints ---


def test_fingerprint_ignores_whitespace_runs():
    a = [{"role": "user", "content": "select  a\n from t"}]
    b = [{"role": "user", "content": "select a from t"}]
    assert fingerprint_messages(a) == fingerprint_messages(b)


def test_fingerprint_sensitive_to_role_and_text():
    a = [{"role": "user", "content": "x"}]
    b = [{"role": "system", "content": "x"}]
    c = [{"role": "user", "content": "y"}]
    assert fingerprint_messages(a) != fingerprint_messages(b)
    assert fingerprint_messages(a) != fingerprint_messages(c)


# --- replay ---


def test_replay_returns_recorded_responses_in_order():
    backend = ReplayBackend([script_entry(f"r{i}") for i in range(4)])
    got = [backend.complete(MESSAGES).response.text for _ in range(4)]
    assert got == ["r0", "r1", "r2", "r3"]


def test_replay_exhausted_on_extra_call():
    backend = ReplayBackend([script_entry("only")])
    backend.complete(MESSAGES)
    with pytest.raises(ReplayExhaustedError):
        backend.complete(MESSAGES)


def test_replay_fingerprint_verified_when_present():
    good = fingerprint_messages(MESSAGES)
    backend = ReplayBackend([script_entry("ok", fingerprint=good)])
    exchange = backend.complete(MESSAGES)
    assert (exchange.response.text, exchange.fingerprint) == ("ok", good)

    backend = ReplayBackend([script_entry("ok", fingerprint="deadbeef")])
    with pytest.raises(ReplayMismatchError):
        backend.complete(MESSAGES)


def test_replay_estimates_missing_usage():
    backend = ReplayBackend([from_json_object(
        ExchangeRecord, {"response": {"text": "x" * 40, "tool_call": None}}
    )])
    exchange = backend.complete(MESSAGES)
    assert exchange.estimated
    assert exchange.usage.output_tokens == 10
    assert exchange.fingerprint is None


def test_replay_estimates_a_usage_with_one_count(shop_engine, tmp_path):
    # a count left out is not a count of 0: both are estimated, flagged
    text = "Thought: done.\nFinal Answer: " + "x" * 11  # 40 characters
    entry = {"response": {"text": text}, "usage": {"input_tokens": 5}}
    backend = ReplayBackend([from_json_object(ExchangeRecord, entry)] * 2)
    exchange = backend.complete([{"role": "user", "content": "p" * 80}])
    assert (exchange.usage.input_tokens, exchange.usage.output_tokens) == (20, 10)
    assert exchange.estimated
    # an episode bills those estimates, and its trace replays with them
    prompt = sum(estimate_tokens(m) for m in (DEFAULT_SYSTEM_PROMPT, "q?"))
    path = tmp_path / "episode.jsonl"
    trace = run_agent("q?", AgentConfig(), backend, shop_engine)
    path.write_text(trace_to_jsonl(trace))
    replay = ReplayBackend.from_path(path)
    replayed = run_agent("q?", AgentConfig(), replay, shop_engine)
    for episode in (trace, replayed):
        [iteration] = episode.iterations
        assert (iteration.input_tokens, iteration.output_tokens) == (prompt, 10)
        assert episode.uses_estimated_tokens
    assert replayed.iterations[0].exchanges == trace.iterations[0].exchanges


def test_replay_script_line_without_exchange_is_rejected(tmp_path):
    path = tmp_path / "script.jsonl"
    first = json.dumps(script_entry("ok"), default=vars)
    path.write_text(first + "\n\n" + '{"type": "foo"}\n')
    with pytest.raises(
        ValueError, match="^line 3: `type` is not one of meta, iteration, outcome$"
    ):
        ReplayBackend.from_path(path)
    unreplayable = {
        '{"response": "hello"}': "`response` is not a JSON object",
        '{"response": {"text": null}}': "`response.text` is not a string",
        '{"response": {"text": "x", "tool_call": ["list_tables"]}}':
            "`response.tool_call` is not null or a JSON object",
        "[1, 2]": "not a JSON object",
        iteration_line(exchanges=5): "`exchanges` is not a list",
        '{"response": {"text": "x"}, "fingerprint": 5}':
            "`fingerprint` is not null or a string",
        '{"response": {"text": "x"}, "usage": 7}':
            "`usage` is not null or a JSON object",
        '{"response": {"text": "x"}, "estimated": "false"}':
            "`estimated` is not a boolean",
        '{"response": {"text": "x"}, "usage": {"input_tokens": "abc", '
        '"output_tokens": 1}}': "`usage.input_tokens` is not null or an int >= 0",
        '{"response": {"text": "x"}, "usage": {"input_tokens": -5, '
        '"output_tokens": 1}}': "`usage.input_tokens` is not null or an int >= 0",
        iteration_line(exchanges=[
            {"response": {"text": "x"},
             "usage": {"input_tokens": 1, "output_tokens": True}},
        ]): "`exchanges[0].usage.output_tokens` is not null or an int >= 0",
        '{"response": {"text": "x"},': "not JSON: Expecting property name "
            "enclosed in double quotes at column 28",
    }
    for line, problem in unreplayable.items():
        path.write_text(first + "\n\n" + line + "\n")
        with pytest.raises(ValueError) as caught:
            ReplayBackend.from_path(path)
        assert str(caught.value) == f"line 3: {problem}", line


def test_estimate_tokens_quarter_length():
    assert estimate_tokens("abcd" * 25) == 25
    assert estimate_tokens("") == 0


# --- sampling config ---


def test_sampling_defaults():
    payload = SamplingConfig().to_payload()
    assert payload == {"temperature": 0.0, "top_p": 1.0, "max_tokens": 4096}


def test_sampling_omits_unexposed_fields():
    payload = SamplingConfig(temperature=None, top_p=None, max_tokens=128).to_payload()
    assert payload == {"max_tokens": 128}


# --- http transport against a local stub ---


def _ok_body(text="hi", usage=True):
    body = {"choices": [{"message": {"content": text}}]}
    if usage:
        body["usage"] = {"prompt_tokens": 12, "completion_tokens": 3}
    return body


def _backend(server, **kwargs):
    kwargs.setdefault("backoff_seconds", 0.01)
    return HttpBackend(
        endpoint=f"http://127.0.0.1:{server.server_port}/chat",
        model_id="stub-model",
        **kwargs,
    )


def test_http_complete_parses_text_and_usage(stub_server):
    stub_server.script.append((200, _ok_body("result text")))
    exchange = _backend(stub_server).complete(MESSAGES)
    assert exchange.response.text == "result text"
    assert (exchange.usage.input_tokens, exchange.usage.output_tokens) == (12, 3)
    assert not exchange.estimated
    assert exchange.fingerprint == fingerprint_messages(MESSAGES)
    assert stub_server.requests[0]["model"] == "stub-model"
    assert stub_server.requests[0]["temperature"] == 0.0


def test_http_retries_transient_server_errors(stub_server):
    stub_server.script.extend([(500, {}), (500, {}), (200, _ok_body("ok"))])
    exchange = _backend(stub_server).complete(MESSAGES)
    assert exchange.response.text == "ok"
    assert len(stub_server.requests) == 3


def test_http_gives_up_after_max_attempts(stub_server):
    stub_server.script.extend([(500, {})] * 3)
    with pytest.raises(LlmTransportError):
        _backend(stub_server).complete(MESSAGES)


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_client_error_is_not_retried(stub_server, status):
    stub_server.script.extend([(status, {"error": "bad request"}), (200, _ok_body())])
    with pytest.raises(LlmTransportError, match=str(status)):
        _backend(stub_server).complete(MESSAGES)
    assert len(stub_server.requests) == 1


@pytest.mark.parametrize(
    "first",
    [(408, {}), (429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"})],
)
def test_http_retries_timeout_and_rate_limit_statuses(stub_server, first):
    stub_server.script.extend([first, (200, _ok_body("ok"))])
    assert _backend(stub_server).complete(MESSAGES).response.text == "ok"
    assert len(stub_server.requests) == 2


def test_http_429_waits_retry_after_not_backoff(stub_server):
    stub_server.script.extend([(429, {}, {"Retry-After": "0"}), (200, _ok_body("ok"))])
    started = time.perf_counter()
    exchange = _backend(stub_server, backoff_seconds=60.0).complete(MESSAGES)
    assert exchange.response.text == "ok"
    assert len(stub_server.requests) == 2
    assert time.perf_counter() - started < 30.0


def test_http_connection_error_is_retried_then_fails():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend = HttpBackend(
        endpoint=f"http://127.0.0.1:{port}/chat", model_id="m", backoff_seconds=0.01
    )
    with pytest.raises(LlmTransportError, match="after 3 attempts"):
        backend.complete(MESSAGES)


def test_http_endpoint_without_scheme_is_transport_error():
    with pytest.raises(LlmTransportError, match="bad endpoint"):
        HttpBackend(endpoint="127.0.0.1/chat", model_id="m").complete(MESSAGES)


@pytest.mark.parametrize("body", [{"choices": []}, [1, 2], {"choices": [1]}])
def test_http_malformed_body_is_transport_error(stub_server, body):
    stub_server.script.append((200, body))
    with pytest.raises(LlmTransportError, match="malformed"):
        _backend(stub_server).complete(MESSAGES)
    assert len(stub_server.requests) == 1


def test_http_malformed_body_ends_episode_as_llm_error(shop_engine, stub_server):
    stub_server.script.append((200, {"choices": []}))
    trace = run_agent("q?", AgentConfig(), _backend(stub_server), shop_engine)
    assert trace.outcome == OUTCOME_LLM_ERROR
    assert "malformed" in trace.error


@pytest.mark.parametrize(
    "key, count",
    [("prompt_tokens", -5), ("prompt_tokens", 7.9), ("prompt_tokens", True),
     ("completion_tokens", -1), ("completion_tokens", "3")],
)
def test_http_usage_count_that_is_not_a_count_is_llm_error(
    shop_engine, stub_server, key, count
):
    # read as a trace's usage is, so that every exchange a live run records
    # can be read back and replayed
    body = _ok_body()
    body["usage"][key] = count
    stub_server.script.append((200, body))
    trace = run_agent("q?", AgentConfig(), _backend(stub_server), shop_engine)
    assert trace.outcome == OUTCOME_LLM_ERROR
    assert trace.error.startswith("malformed llm response: ValueError(")
    assert "usage counts " in trace.error
    assert len(stub_server.requests) == 1


@pytest.mark.parametrize(
    "message, problem",
    [
        ({"content": [{"type": "text", "text": "hi"}]}, "`response.text`"),
        ({"content": "", "tool_calls": [{"function": {"name": 5}}]},
         "`response.tool_call.name`"),
    ],
    ids=["list-content", "int-tool-name"],
)
def test_http_reply_that_is_no_trace_exchange_is_llm_error(
    shop_engine, stub_server, message, problem
):
    # read as a trace's exchange is, so that the trace of the episode reads back
    body = {"choices": [{"message": message}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 3}}
    stub_server.script.append((200, body))
    trace = run_agent("q?", AgentConfig(), _backend(stub_server), shop_engine)
    assert trace.outcome == OUTCOME_LLM_ERROR
    assert trace.error.startswith("malformed llm response: ValueError(")
    assert problem in trace.error
    assert trace_from_jsonl(trace_to_jsonl(trace)).outcome == OUTCOME_LLM_ERROR


def test_http_estimates_missing_usage(stub_server):
    stub_server.script.append((200, _ok_body("xxxx" * 5, usage=False)))
    exchange = _backend(stub_server).complete(MESSAGES)
    assert exchange.estimated
    assert exchange.usage.output_tokens == 5


def test_http_structured_tool_call(stub_server):
    body = {
        "choices": [
            {
                "message": {
                    "content": "",
                    "tool_calls": [
                        {
                            "function": {
                                "name": "run_query",
                                "arguments": '{"sql": "SELECT 1"}',
                            }
                        }
                    ],
                }
            }
        ],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }
    stub_server.script.append((200, body))
    exchange = _backend(stub_server, supports_tools=True).complete(
        MESSAGES, tool_schemas=[{"type": "function"}]
    )
    tool_call = exchange.response.tool_call
    assert (tool_call.name, tool_call.arguments) == ("run_query", {"sql": "SELECT 1"})
    assert "tools" in stub_server.requests[0]


def test_http_missing_api_key_env(stub_server, monkeypatch):
    monkeypatch.delenv("STUB_KEY", raising=False)
    backend = _backend(stub_server, api_key_env="STUB_KEY")
    with pytest.raises(LlmTransportError):
        backend.complete(MESSAGES)


def test_http_sends_bearer_token(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_KEY", "sk-test")
    stub_server.script.append((200, _ok_body()))
    _backend(stub_server, api_key_env="STUB_KEY").complete(MESSAGES)
    assert len(stub_server.requests) == 1
    headers = stub_server.headers[0]
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["Content-Type"] == "application/json"

