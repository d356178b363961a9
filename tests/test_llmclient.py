from __future__ import annotations

import json
import socket
import time

import pytest

from bigsqlbench.agent import OUTCOME_LLM_ERROR, AgentConfig, run_agent
from bigsqlbench.engine import EmbeddedEngine, EngineConfig
from bigsqlbench.llmclient import (
    ChatExchange,
    HttpBackend,
    LlmTransportError,
    ReplayBackend,
    ReplayExhaustedError,
    ReplayMismatchError,
    SamplingConfig,
    estimate_tokens,
    fingerprint_messages,
)
from tests.conftest import iteration_line

MESSAGES = [
    {"role": "system", "content": "be terse"},
    {"role": "user", "content": "hello"},
]


def script_entry(text, in_tok=10, out_tok=5, fingerprint=None):
    return {
        "fingerprint": fingerprint,
        "response": {"text": text, "tool_call": None},
        "usage": {"input_tokens": in_tok, "output_tokens": out_tok},
    }


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
    got = [backend.complete(MESSAGES).response_text for _ in range(4)]
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
    assert (exchange.response_text, exchange.fingerprint) == ("ok", good)

    backend = ReplayBackend([script_entry("ok", fingerprint="deadbeef")])
    with pytest.raises(ReplayMismatchError):
        backend.complete(MESSAGES)


def test_replay_estimates_missing_usage():
    backend = ReplayBackend([{"response": {"text": "x" * 40, "tool_call": None}}])
    exchange = backend.complete(MESSAGES)
    assert exchange.estimated
    assert exchange.output_tokens == 10
    assert exchange.fingerprint is None


def test_replay_script_line_without_exchange_is_rejected(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text(json.dumps(script_entry("ok")) + "\n\n" + '{"type": "foo"}\n')
    with pytest.raises(
        ValueError, match="^line 3: type 'foo' is not meta, iteration or outcome$"
    ):
        ReplayBackend.from_path(path)
    unreplayable = {
        '{"response": "hello"}': "`response` is not an object",
        '{"response": {"text": null}}': "`response.text` is not a string",
        '{"response": {"text": "x", "tool_call": ["list_tables"]}}':
            "`response.tool_call` is neither null nor an object with a string `name`",
        "[1, 2]": "not a JSON object",
        iteration_line(exchanges=5): "`exchanges` is not a list",
        '{"response": {"text": "x"}, "fingerprint": 5}':
            "`fingerprint` is neither null nor a string",
        '{"response": {"text": "x"}, "usage": 7}':
            "`usage` is neither null nor an object",
        '{"response": {"text": "x"}, "estimated": "false"}':
            "`estimated` is not a boolean",
        '{"response": {"text": "x"}, "usage": {"input_tokens": "abc", '
        '"output_tokens": 1}}': "`usage.input_tokens` is not an int >= 0",
        '{"response": {"text": "x"}, "usage": {"input_tokens": -5, '
        '"output_tokens": 1}}': "`usage.input_tokens` is not an int >= 0",
        iteration_line(exchanges=[
            {"response": {"text": "x"},
             "usage": {"input_tokens": 1, "output_tokens": True}},
        ]): "`usage.output_tokens` is not an int >= 0",
        '{"response": {"text": "x"},': "not JSON: Expecting property name "
            "enclosed in double quotes at column 28",
    }
    for line, problem in unreplayable.items():
        path.write_text(json.dumps(script_entry("ok")) + "\n\n" + line + "\n")
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
    assert exchange.response_text == "result text"
    assert (exchange.input_tokens, exchange.output_tokens) == (12, 3)
    assert not exchange.estimated
    assert exchange.fingerprint == fingerprint_messages(MESSAGES)
    assert stub_server.requests[0]["model"] == "stub-model"
    assert stub_server.requests[0]["temperature"] == 0.0


def test_http_retries_transient_server_errors(stub_server):
    stub_server.script.extend([(500, {}), (500, {}), (200, _ok_body("ok"))])
    exchange = _backend(stub_server).complete(MESSAGES)
    assert exchange.response_text == "ok"
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
    assert _backend(stub_server).complete(MESSAGES).response_text == "ok"
    assert len(stub_server.requests) == 2


def test_http_429_waits_retry_after_not_backoff(stub_server):
    stub_server.script.extend([(429, {}, {"Retry-After": "0"}), (200, _ok_body("ok"))])
    started = time.perf_counter()
    exchange = _backend(stub_server, backoff_seconds=60.0).complete(MESSAGES)
    assert exchange.response_text == "ok"
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


def test_http_malformed_body_ends_episode_as_llm_error(stub_server):
    stub_server.script.append((200, {"choices": []}))
    with EmbeddedEngine(EngineConfig()) as engine:
        trace = run_agent("q?", AgentConfig(), _backend(stub_server), engine)
    assert trace.outcome == OUTCOME_LLM_ERROR
    assert "malformed" in trace.error


def test_http_estimates_missing_usage(stub_server):
    stub_server.script.append((200, _ok_body("xxxx" * 5, usage=False)))
    exchange = _backend(stub_server).complete(MESSAGES)
    assert exchange.estimated
    assert exchange.output_tokens == 5


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
    assert exchange.tool_call == {
        "name": "run_query",
        "arguments": {"sql": "SELECT 1"},
    }
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


def test_chat_exchange_to_record():
    exchange = ChatExchange(
        response_text="t", tool_call={"name": "x", "arguments": {}},
        input_tokens=3, output_tokens=1, fingerprint="ab",
    )
    assert exchange.to_record() == {
        "fingerprint": "ab",
        "response": {"text": "t", "tool_call": {"name": "x", "arguments": {}}},
        "usage": {"input_tokens": 3, "output_tokens": 1},
        "estimated": False,
    }
