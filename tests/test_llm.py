"""Provider layer: scripted replay, HTTP client retry contract, transcripts."""
from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import rtlevo.llm as llm
from rtlevo.llm import (
    CompletionResult,
    HttpChatProvider,
    ProviderConfig,
    ProviderError,
    ScriptEntry,
    ScriptedProvider,
    TranscriptingProvider,
    TranscriptWriter,
)
from rtlevo.prompts import PromptBundle, PromptStrategy


def bundle(
    user="design a counter",
    system="you are an engineer",
    strategy=None,
    parents=(),
    purpose="generate",
):
    return PromptBundle(
        system_text=system,
        user_text=user,
        strategy=strategy,
        parent_ids=tuple(parents),
        purpose=purpose,
    )


# --- ProviderConfig ---------------------------------------------------------

# the config of an http provider needs an endpoint; nothing is sent to it
URL = "http://127.0.0.1:9/v1"


def test_provider_config_defaults():
    cfg = ProviderConfig(endpoint_url=URL)
    assert cfg.temperature == 1.0
    assert cfg.top_p == 0.95
    assert cfg.max_retries == 3


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(endpoint_url=URL, temperature=-0.1)
    with pytest.raises(ValueError):
        ProviderConfig(endpoint_url=URL, top_p=0.0)
    with pytest.raises(ValueError):
        ProviderConfig(endpoint_url=URL, top_p=1.5)
    with pytest.raises(ValueError):
        ProviderConfig(endpoint_url=URL, max_retries=-1)
    with pytest.raises(ValueError):
        ProviderConfig(endpoint_url=URL, max_parallel_requests=0)


# --- ScriptedProvider -------------------------------------------------------


def test_scripted_strategy_matcher_initial_vs_operator():
    provider = ScriptedProvider(
        [ScriptEntry("strategy:fix", "fixed"), ScriptEntry("strategy:initial", "first")]
    )
    first = provider.complete(bundle())
    assert first.text == "first"
    fixed = provider.complete(
        bundle(strategy=PromptStrategy.FIX, parents=(3,))
    )
    assert fixed.text == "fixed"
    # both one-shot entries were consumed
    with pytest.raises(ProviderError) as err:
        provider.complete(bundle())
    assert err.value.kind == "exhausted"


def test_scripted_strategy_matcher_ignores_feedback_purpose():
    provider = ScriptedProvider(
        [ScriptEntry("strategy:initial", "gen"), ScriptEntry("purpose:feedback", "fb")]
    )
    # A feedback bundle has no strategy, but "strategy:initial" must not
    # swallow it; the purpose matcher should.
    out = provider.complete(bundle(purpose="feedback"))
    assert out.text == "fb"
    # only the feedback entry was consumed; the initial one is still served
    with pytest.raises(ProviderError) as err:
        provider.complete(bundle(purpose="feedback"))
    assert err.value.kind == "unmatched"
    assert provider.complete(bundle()).text == "gen"


def test_scripted_substring_matcher():
    provider = ScriptedProvider(
        [ScriptEntry("ripple carry", "match-a"), ScriptEntry("counter", "match-b")]
    )
    assert provider.complete(bundle(user="design a counter")).text == "match-b"
    assert provider.complete(bundle(user="a ripple carry adder")).text == "match-a"


def test_scripted_fifo_consume_once():
    provider = ScriptedProvider(
        [ScriptEntry("strategy:initial", "one"), ScriptEntry("strategy:initial", "two")]
    )
    assert provider.complete(bundle()).text == "one"
    assert provider.complete(bundle()).text == "two"
    with pytest.raises(ProviderError) as err:
        provider.complete(bundle())
    assert err.value.kind == "exhausted"


def test_scripted_repeat_entry_not_consumed():
    # a consumed entry would hand the next call to the one-shot entry behind it
    provider = ScriptedProvider(
        [
            ScriptEntry("strategy:initial", "again", repeat=True),
            ScriptEntry("strategy:initial", "never"),
        ]
    )
    for _ in range(5):
        assert provider.complete(bundle()).text == "again"


def test_scripted_unmatched_vs_exhausted():
    provider = ScriptedProvider([ScriptEntry("strategy:fix", "x")])
    with pytest.raises(ProviderError) as err:
        provider.complete(bundle())  # entries exist, none match
    assert err.value.kind == "unmatched"
    provider.complete(bundle(strategy=PromptStrategy.FIX, parents=(1,)))
    with pytest.raises(ProviderError) as err:
        provider.complete(bundle())
    assert err.value.kind == "exhausted"


def keyed(slot, generation=0, **kwargs):
    return dataclasses.replace(bundle(**kwargs), key=(generation, slot))


def test_scripted_keyed_drafts_are_served_in_slot_order():
    provider = ScriptedProvider(
        [ScriptEntry("strategy:initial", f"reply {i}") for i in range(4)]
    )
    got = {}

    def call(slot):
        got[slot] = provider.complete(keyed(slot)).text

    late = [threading.Thread(target=call, args=(slot,)) for slot in (2, 1)]
    for thread in late:
        thread.start()
        thread.join(timeout=0.1)
        assert thread.is_alive()  # waits for its predecessor slot
    call(0)
    for thread in late:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert got == {0: "reply 0", 1: "reply 1", 2: "reply 2"}
    # the next generation starts again at slot 0
    assert provider.complete(keyed(0, generation=1)).text == "reply 3"


def test_scripted_failed_keyed_call_still_ends_its_turn():
    provider = ScriptedProvider([ScriptEntry("strategy:initial", "only")])
    assert provider.complete(keyed(0)).text == "only"
    with pytest.raises(ProviderError):
        provider.complete(keyed(1))
    errors = []

    def follow():
        try:
            provider.complete(keyed(2))
        except ProviderError as exc:
            errors.append(exc.kind)

    follower = threading.Thread(target=follow)
    follower.start()
    follower.join(timeout=5)
    assert not follower.is_alive()
    assert errors == ["exhausted"]


def test_scripted_from_file_renders_dict_responses(tmp_path):
    script = tmp_path / "script.yaml"
    script.write_text(
        "- match: strategy:initial\n"
        "  response:\n"
        "    thought: keep it small\n"
        "    code: module t; endmodule\n"
        "- match: purpose:feedback\n"
        "  response: plain text feedback\n"
        "  repeat: true\n",
        encoding="utf-8",
    )
    provider = ScriptedProvider.from_file(script)
    text = provider.complete(bundle()).text
    assert "## Thought" in text
    assert "keep it small" in text
    assert "```verilog" in text
    assert "module t; endmodule" in text
    assert provider.complete(bundle(purpose="feedback")).text == "plain text feedback"


def test_scripted_from_file_rejects_bad_shapes(tmp_path):
    not_list = tmp_path / "a.yaml"
    not_list.write_text("match: x\nresponse: y\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ScriptedProvider.from_file(not_list)
    missing_key = tmp_path / "b.yaml"
    missing_key.write_text("- match: x\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ScriptedProvider.from_file(missing_key)


def test_scripted_empty_rejected():
    with pytest.raises(ValueError):
        ScriptedProvider([])


# --- fake chat endpoint -----------------------------------------------------


class _FakeEndpoint:
    """Local chat-completion server driven by a canned status/body queue."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                size = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(size)) if size else None
                outer.requests.append(
                    {"payload": payload, "auth": self.headers.get("Authorization")}
                )
                status, body = outer.plan.pop(0) if outer.plan else (200, _ok("fallback"))
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def _ok(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


@pytest.fixture
def fast_backoff(monkeypatch):
    monkeypatch.setattr(llm, "BACKOFF_BASE_SECONDS", 0.001)
    monkeypatch.setattr(llm, "BACKOFF_JITTER", 0.0)


def _http_provider(endpoint, monkeypatch, **overrides):
    monkeypatch.setenv("RTLEVO_TEST_KEY", "sk-secret-value")
    cfg = ProviderConfig(
        endpoint_url=endpoint.url,
        model_name="test-model",
        api_key_env_var="RTLEVO_TEST_KEY",
        request_timeout=5.0,
        **overrides,
    )
    return HttpChatProvider(cfg)


def test_http_success_payload_shape(monkeypatch):
    endpoint = _FakeEndpoint([(200, _ok("module m; endmodule"))])
    try:
        provider = _http_provider(endpoint, monkeypatch)
        result = provider.complete(bundle(user="hello", system="sys"))
        assert result.text == "module m; endmodule"
        assert result.attempt_count == 1
        assert result.latency >= 0.0
        sent = endpoint.requests[0]
        assert sent["auth"] == "Bearer sk-secret-value"
        payload = sent["payload"]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 1.0
        assert payload["top_p"] == 0.95
        assert payload["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "hello"},
        ]
    finally:
        endpoint.close()


def test_http_feedback_samples_like_a_draft(monkeypatch):
    endpoint = _FakeEndpoint([(200, _ok("draft")), (200, _ok("fb"))])
    try:
        provider = _http_provider(endpoint, monkeypatch, temperature=0.3, top_p=0.7)
        provider.complete(bundle())
        provider.complete(bundle(purpose="feedback"))
        for sent in endpoint.requests:
            assert (sent["payload"]["temperature"], sent["payload"]["top_p"]) == (0.3, 0.7)
    finally:
        endpoint.close()


def test_http_retries_transient_then_succeeds(monkeypatch, fast_backoff):
    endpoint = _FakeEndpoint([(429, "{}"), (200, _ok("recovered"))])
    try:
        provider = _http_provider(endpoint, monkeypatch, max_retries=3)
        result = provider.complete(bundle())
        assert result.text == "recovered"
        assert result.attempt_count == 2
        assert len(endpoint.requests) == 2
    finally:
        endpoint.close()


def test_http_exhausts_retries(monkeypatch, fast_backoff):
    endpoint = _FakeEndpoint([(503, "{}"), (503, "{}")])
    try:
        provider = _http_provider(endpoint, monkeypatch, max_retries=1)
        with pytest.raises(ProviderError) as err:
            provider.complete(bundle())
        assert err.value.kind == "transient"
        assert err.value.attempt_count == 2
        assert len(endpoint.requests) == 2
    finally:
        endpoint.close()


def test_http_auth_error_not_retried(monkeypatch, fast_backoff):
    endpoint = _FakeEndpoint([(401, "{}"), (200, _ok("never"))])
    try:
        provider = _http_provider(endpoint, monkeypatch, max_retries=3)
        with pytest.raises(ProviderError) as err:
            provider.complete(bundle())
        assert err.value.kind == "auth"
        assert len(endpoint.requests) == 1
    finally:
        endpoint.close()


def test_http_missing_api_key_fails_before_any_request(monkeypatch):
    endpoint = _FakeEndpoint([])
    try:
        monkeypatch.delenv("RTLEVO_TEST_KEY", raising=False)
        cfg = ProviderConfig(
            endpoint_url=endpoint.url,
            model_name="m",
            api_key_env_var="RTLEVO_TEST_KEY",
        )
        # the key is read once, when the provider is built
        with pytest.raises(ProviderError) as err:
            HttpChatProvider(cfg)
        assert err.value.kind == "auth"
        assert "RTLEVO_TEST_KEY" in str(err.value)
        assert endpoint.requests == []
    finally:
        endpoint.close()


def test_http_malformed_body_is_protocol_error(monkeypatch):
    endpoint = _FakeEndpoint([(200, json.dumps({"choices": []}))])
    try:
        provider = _http_provider(endpoint, monkeypatch)
        with pytest.raises(ProviderError) as err:
            provider.complete(bundle())
        assert err.value.kind == "protocol"
    finally:
        endpoint.close()


def test_http_unexpected_status_is_protocol_error(monkeypatch, fast_backoff):
    endpoint = _FakeEndpoint([(418, "{}")])
    try:
        provider = _http_provider(endpoint, monkeypatch, max_retries=3)
        with pytest.raises(ProviderError) as err:
            provider.complete(bundle())
        assert err.value.kind == "protocol"
        assert len(endpoint.requests) == 1
    finally:
        endpoint.close()


def test_http_requires_endpoint_url():
    # the config rejects a missing endpoint, so no provider is built without one
    with pytest.raises(ValueError, match="provider.endpoint_url is required"):
        HttpChatProvider(ProviderConfig())


# --- transcripts ------------------------------------------------------------


def test_transcript_records_and_redacts(tmp_path, monkeypatch):
    path = tmp_path / "transcripts.jsonl"
    writer = TranscriptWriter(path, redact=["sk-secret-value"])
    writer.record(
        bundle(user="the key is sk-secret-value ok"),
        CompletionResult(text="echo sk-secret-value back"),
    )
    writer.record(bundle(purpose="feedback"), None, error="boom sk-secret-value")
    raw = path.read_text(encoding="utf-8")
    assert "sk-secret-value" not in raw
    lines = [json.loads(line) for line in raw.splitlines()]
    assert len(lines) == 2
    assert lines[0]["user_text"] == "the key is [REDACTED] ok"
    assert lines[0]["response"] == "echo [REDACTED] back"
    assert lines[0]["error"] is None
    assert lines[1]["response"] is None
    assert lines[1]["error"] == "boom [REDACTED]"


def test_transcripting_provider_mirrors_success_and_failure(tmp_path):
    path = tmp_path / "t.jsonl"
    writer = TranscriptWriter(path)
    inner = ScriptedProvider([ScriptEntry("strategy:initial", "resp")])
    provider = TranscriptingProvider(inner, writer)
    assert provider.complete(bundle()).text == "resp"
    with pytest.raises(ProviderError):
        provider.complete(bundle())
    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 2
    assert lines[0]["response"] == "resp"
    assert lines[0]["strategy"] is None
    assert lines[1]["response"] is None
    assert "exhausted" in lines[1]["error"] or "no responses" in lines[1]["error"]
    assert lines[1]["attempt_count"] == 1


def test_transcript_failure_outside_provider_error_has_no_attempt_count(tmp_path):
    class Broken:
        def complete(self, bundle):
            raise RuntimeError("bug")

    path = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError):
        TranscriptingProvider(Broken(), TranscriptWriter(path)).complete(bundle())
    (entry,) = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert (entry["error"], entry["attempt_count"]) == ("bug", None)


@pytest.mark.parametrize(
    "plan, response, error, attempts",
    [
        ([(200, _ok("fine"))], "fine", None, 1),
        ([(401, "{}")], None, "authentication rejected (HTTP 401)", 1),
        ([(418, "{}")], None, "unexpected response: HTTP 418", 1),
        (
            [(200, json.dumps({"choices": []}))],
            None,
            "malformed response body: list index out of range",
            1,
        ),
        # max_retries + 1 attempts
        ([(503, "{}"), (503, "{}")], None, "exhausted retries: HTTP 503", 2),
    ],
    ids=["success", "auth", "protocol", "malformed", "transient"],
)
def test_http_writes_one_transcript_entry_per_call(
    tmp_path, monkeypatch, fast_backoff, plan, response, error, attempts
):
    endpoint = _FakeEndpoint(plan)
    try:
        monkeypatch.setenv("RTLEVO_TEST_KEY", "sk-secret-value")
        cfg = ProviderConfig(
            endpoint_url=endpoint.url, api_key_env_var="RTLEVO_TEST_KEY", max_retries=1
        )
        path = tmp_path / "t.jsonl"
        provider = HttpChatProvider(cfg, transcript=TranscriptWriter(path))
        try:
            provider.complete(bundle())
        except ProviderError:
            assert error is not None
        (entry,) = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert (entry["response"], entry["error"]) == (response, error)
        assert entry["attempt_count"] == attempts
    finally:
        endpoint.close()


def test_parallel_scripted_calls_thread_safe():
    n = 40
    provider = ScriptedProvider(
        [ScriptEntry("strategy:initial", f"resp-{i}") for i in range(n)]
    )
    seen = []
    lock = threading.Lock()

    def worker():
        result = provider.complete(bundle())
        with lock:
            seen.append(result.text)

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(seen) == sorted(f"resp-{i}" for i in range(n))
    # every entry was served exactly once
    with pytest.raises(ProviderError) as err:
        provider.complete(bundle())
    assert err.value.kind == "exhausted"
