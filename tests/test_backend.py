import http.server
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from littrans.backend import (
    BackendError,
    HttpBackend,
    HttpBackendConfig,
    IdentityBackend,
    ScriptedBackend,
    TableBackend,
)
from littrans.prompts import ContextEntry, ExemplarEntry, PromptSpec


def spec(source="你好", system="You are a careful translator.", context=(), exemplars=()):
    return PromptSpec(
        system_text=system,
        context_block=tuple(context),
        exemplar_block=tuple(exemplars),
        current_source=source,
    )


GOLDEN_SPEC = spec(
    source="六七八",
    context=[ContextEntry(0, "一二三", "One two three.")],
    exemplars=[ExemplarEntry("a:0", "a", 0, "四五", "Four five.")],
)


# --- mocks ---

def test_identity_mock():
    assert IdentityBackend().translate(spec("你好")) == "你好"


def test_table_mock():
    backend = TableBackend({"你好": "Hello"})
    assert backend.translate(spec("你好")) == "Hello"
    with pytest.raises(BackendError) as err:
        backend.translate(spec("再见"))
    assert err.value.kind == "protocol"


def test_scripted_mock_fails_twice_then_answers():
    backend = ScriptedBackend({"s": [{"error": "network"}, {"error": "rate_limit"}, {"text": "out"}]})
    with pytest.raises(BackendError) as first:
        backend.translate(spec("s"))
    assert first.value.kind == "network" and first.value.retryable
    with pytest.raises(BackendError) as second:
        backend.translate(spec("s"))
    assert second.value.kind == "rate_limit" and second.value.retryable
    assert backend.translate(spec("s")) == "out"


def test_error_kind_retryability():
    assert BackendError("network").retryable
    assert BackendError("rate_limit").retryable
    assert not BackendError("overlong_prompt").retryable
    assert not BackendError("protocol").retryable
    with pytest.raises(ValueError):
        BackendError("mystery")


def test_mocks_are_pure_across_threads():
    backend = TableBackend({f"s{i}": f"t{i}" for i in range(20)})
    prompts = [spec(f"s{i % 20}") for i in range(200)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(backend.translate, prompts))
    assert results == [f"t{i % 20}" for i in range(200)]


# --- HTTP backend against a local capture stub ---

class StubHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.captured.append(
            {"path": self.path, "body": body, "headers": dict(self.headers)}
        )
        status, payload = self.server.responses.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if isinstance(payload, (dict, list)):
            payload = json.dumps(payload).encode()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class CaptureStub:
    def __init__(self):
        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
        self.server.captured = []
        self.server.responses = []
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self):
        return f"http://127.0.0.1:{self.server.server_port}"

    def enqueue(self, status, payload):
        self.server.responses.append((status, payload))

    @property
    def captured(self):
        return self.server.captured

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def stub():
    server = CaptureStub()
    yield server
    server.close()


def completion(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def http_backend(stub, **overrides):
    config = HttpBackendConfig(base_url=stub.base_url, model="test-model", **overrides)
    return HttpBackend(config)


def test_http_fixed_completion(stub):
    stub.enqueue(200, completion("Hello."))
    assert http_backend(stub).translate(spec()) == "Hello."
    assert stub.captured[0]["path"] == "/v1/chat/completions"


def test_http_request_body_matches_golden_system_role(stub, data_dir):
    stub.enqueue(200, completion("ok"))
    http_backend(stub).translate(GOLDEN_SPEC)
    sent = json.loads(stub.captured[0]["body"].decode("utf-8"))
    golden = json.loads(
        (data_dir / "golden" / "http_request_system_role.json").read_text(encoding="utf-8")
    )
    assert sent == golden


def test_http_request_body_matches_golden_no_system_role(stub, data_dir):
    stub.enqueue(200, completion("ok"))
    http_backend(stub, supports_system_role=False).translate(GOLDEN_SPEC)
    sent = json.loads(stub.captured[0]["body"].decode("utf-8"))
    golden = json.loads(
        (data_dir / "golden" / "http_request_no_system_role.json").read_text(encoding="utf-8")
    )
    assert sent == golden


def test_http_429_is_rate_limit(stub):
    stub.enqueue(429, {"error": {"message": "slow down"}})
    with pytest.raises(BackendError) as err:
        http_backend(stub).translate(spec())
    assert err.value.kind == "rate_limit"
    assert err.value.retryable


def test_http_5xx_is_network(stub):
    stub.enqueue(503, b"unavailable")
    with pytest.raises(BackendError) as err:
        http_backend(stub).translate(spec())
    assert err.value.kind == "network"
    assert err.value.retryable


def test_http_malformed_body_is_protocol(stub):
    stub.enqueue(200, b"this is not json")
    with pytest.raises(BackendError) as err:
        http_backend(stub).translate(spec())
    assert err.value.kind == "protocol"


def test_http_missing_choices_is_protocol(stub):
    stub.enqueue(200, {"choices": []})
    with pytest.raises(BackendError) as err:
        http_backend(stub).translate(spec())
    assert err.value.kind == "protocol"


def test_http_context_length_rejection_is_overlong(stub):
    # a body that is not {"error": {...}} is classified on its raw text
    cases = [
        ({"error": {"code": "context_length_exceeded",
                    "message": "maximum context length exceeded"}}, "overlong_prompt"),
        ({"error": "maximum context length exceeded"}, "overlong_prompt"),
        (b'"context length"', "overlong_prompt"),
        (["x"], "protocol"),
        ({"error": None}, "protocol"),
    ]
    for body, kind in cases:
        stub.enqueue(400, body)
        with pytest.raises(BackendError) as err:
            http_backend(stub).translate(spec())
        assert err.value.kind == kind, body
        assert not err.value.retryable


def test_http_empty_completion_is_empty_output(stub):
    stub.enqueue(200, completion("   "))
    with pytest.raises(BackendError) as err:
        http_backend(stub).translate(spec())
    assert err.value.kind == "empty_output"


def test_http_connection_refused_is_network():
    backend = HttpBackend(
        HttpBackendConfig(base_url="http://127.0.0.1:1", model="m", timeout=0.5)
    )
    with pytest.raises(BackendError) as err:
        backend.translate(spec())
    assert err.value.kind == "network"


def test_http_client_side_overlong_check(stub):
    backend = http_backend(stub, max_prompt_chars=5)
    with pytest.raises(BackendError) as err:
        backend.translate(spec(source="a very long sentence"))
    assert err.value.kind == "overlong_prompt"
    assert stub.captured == []  # rejected before any request


def test_http_api_key_env(stub, monkeypatch):
    monkeypatch.setenv("TEST_LITTRANS_KEY", "sk-secret")
    stub.enqueue(200, completion("ok"))
    http_backend(stub, api_key_env="TEST_LITTRANS_KEY").translate(spec())
    assert stub.captured[0]["headers"]["Authorization"] == "Bearer sk-secret"


def test_http_missing_api_key_env_fails_before_request(stub, monkeypatch):
    monkeypatch.delenv("TEST_LITTRANS_KEY", raising=False)
    with pytest.raises(ValueError, match="TEST_LITTRANS_KEY"):
        http_backend(stub, api_key_env="TEST_LITTRANS_KEY")
    assert stub.captured == []


def test_http_429_then_200_succeeds_via_decoder_retry(stub):
    # retry lives in the decoder: the first attempt surfaces rate_limit,
    # the second attempt gets the completion
    from littrans.decoder import DecodingConfig, translate_document
    from util import make_document

    stub.enqueue(429, {"error": {"message": "slow down"}})
    stub.enqueue(200, completion("The wind."))
    doc = make_document("d", ["風"])
    result = translate_document(
        doc,
        http_backend(stub),
        config=DecodingConfig(max_attempts=2, backoff_initial=0),
        sleep=lambda _d: None,
    )
    assert result.hypotheses == ("The wind.",)
    assert result.traces[0].attempts == ("rate_limit", "ok")
    assert len(stub.captured) == 2


def test_http_rate_cap_spaces_requests(stub):
    for _ in range(3):
        stub.enqueue(200, completion("ok"))
    backend = http_backend(stub, rate_limit_rps=50)
    import time

    start = time.monotonic()
    for _ in range(3):
        backend.translate(spec())
    elapsed = time.monotonic() - start
    assert elapsed >= 0.04  # two enforced 20 ms gaps
