"""Translation backends: a uniform prompt-in / hypothesis-out contract.

Deterministic mocks cover testing and offline runs; HttpBackend speaks the
chat-completions wire protocol of common inference servers over the
standard library's http.client. It imports the HTTP client and OpenSSL
when it is built, so a run with any other backend never loads them.
Backends must tolerate concurrent translate() calls; retry policy lives in
the decoder, backends only classify failures.
"""

from __future__ import annotations

import base64
import json
import math
import os
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from string import Formatter
from typing import TYPE_CHECKING
from urllib.parse import quote, unquote, urlsplit

from .prompts import PromptSpec, PromptTemplate, render

if TYPE_CHECKING:
    import http.client

_RETRYABLE = {
    "network": True,
    "rate_limit": True,
    "empty_output": True,
    "protocol": False,
    "overlong_prompt": False,
}

# the longest a run waits at once, in seconds (one day): a request timeout,
# the spacing of a rate limit, or a backoff or Retry-After before a retry
MAX_WAIT = 86400.0


class BackendError(Exception):
    """`retry_after` is the server's requested wait in seconds, if it sent one."""

    def __init__(self, kind: str, detail: str = "", retry_after: float | None = None):
        if kind not in _RETRYABLE:
            raise ValueError(f"unknown error kind {kind!r}")
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail
        self.retryable = _RETRYABLE[kind]
        self.retry_after = retry_after


@dataclass(frozen=True)
class BackendCapabilities:
    """A backend's name; nothing in the package reads it."""

    name: str


class TranslationBackend:
    """Interface: subclasses implement translate(); must be thread-safe."""

    capabilities = BackendCapabilities(name="abstract")

    def translate(self, prompt: PromptSpec) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open between calls."""


class IdentityBackend(TranslationBackend):
    """Echoes the current source; useful for pipeline plumbing tests."""

    def translate(self, prompt: PromptSpec) -> str:
        return prompt.current_source


class ScriptedBackend(TranslationBackend):
    """Plays back a per-source script of attempts.

    Script values are either a plain output string or a list of attempt
    steps, each ``{"text": ...}`` or ``{"error": kind}``; the final step is
    replayed if attempts continue past the script's end. The whole script
    is checked when the backend is built; a malformed entry raises
    ValueError naming its source. Attempt counters are per source and
    thread-safe, so documents can run concurrently as long as their sources
    differ.
    """

    def __init__(self, script: dict[str, str | list]):
        if not isinstance(script, dict):
            raise ValueError("backend script must be an object mapping each source to its steps")
        self.script: dict[str, list] = {}
        for src, steps in script.items():
            if isinstance(steps, str):
                steps = [{"text": steps}]
            if not isinstance(steps, list) or not steps:
                raise ValueError(
                    f"script entry for {src!r}: expected a string or a non-empty list of steps"
                )
            for step in steps:
                if not isinstance(step, dict) or not ({"text", "error"} & set(step)):
                    raise ValueError(
                        f"script entry for {src!r}: each step needs 'text' or 'error'"
                    )
                if not isinstance(step.get("text", ""), str):
                    raise ValueError(f"script entry for {src!r}: step text must be a string")
                kind = step.get("error")
                if "error" in step and not (isinstance(kind, str) and kind in _RETRYABLE):
                    raise ValueError(f"script entry for {src!r}: unknown error kind {kind!r}")
            self.script[src] = steps
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def translate(self, prompt: PromptSpec) -> str:
        source = prompt.current_source
        if source not in self.script:
            raise BackendError("protocol", f"no script entry for {source!r}")
        with self._lock:
            attempt = self._calls.get(source, 0)
            self._calls[source] = attempt + 1
        steps = self.script[source]
        step = steps[min(attempt, len(steps) - 1)]
        if "error" in step:
            raise BackendError(step["error"], step.get("detail", "scripted failure"))
        return step["text"]


class TableBackend(ScriptedBackend):
    """A script of one output per source, `{source: output}`: every
    attempt at a source returns its output, and a source the table lacks is
    a protocol error (the table is mis-scripted, retrying cannot help)."""


class _RateLimiter:
    """Spaces requests at least 1/rps apart across all threads."""

    def __init__(self, rps: float):
        self.interval = 1.0 / rps
        self._lock = threading.Lock()
        self._next_free = 0.0

    def wait(self) -> None:
        with self._lock:
            now = time.monotonic()
            delay = self._next_free - now
            self._next_free = max(self._next_free, now) + self.interval
        if delay > 0:
            time.sleep(delay)


@dataclass
class HttpBackendConfig:
    base_url: str = ""
    model: str = ""
    path: str = "/v1/chat/completions"
    api_key_env: str | None = None
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0
    rate_limit_rps: float | None = None
    supports_system_role: bool = True
    max_prompt_chars: int | None = None
    template: PromptTemplate = field(default_factory=PromptTemplate)

    def __post_init__(self):
        # the config loader builds this from the backend: section
        try:
            url = urlsplit(self.base_url)
            valid = url.scheme in ("http", "https") and bool(url.hostname)
            url.port  # raises on a port that is not a number in range
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(
                f"backend.base_url must be an http(s) URL with a host, got {self.base_url!r}"
            )
        if url.username is not None:
            raise ValueError("backend.base_url must not carry credentials; use backend.api_key_env")
        if not self.path.startswith("/"):
            raise ValueError(f"backend.path must start with '/', got {self.path!r}")
        if not math.isfinite(self.temperature):
            raise ValueError("backend.temperature must be a finite number")
        if self.timeout <= 0:
            raise ValueError("backend.timeout must be > 0")
        if not self.timeout <= MAX_WAIT:
            raise ValueError(f"backend.timeout must be at most {MAX_WAIT:g} s")
        rps = self.rate_limit_rps
        if rps is not None and rps <= 0:
            raise ValueError("backend.rate_limit_rps must be > 0")
        if rps is not None and not (math.isfinite(rps) and 1.0 / rps <= MAX_WAIT):
            raise ValueError(
                f"backend.rate_limit_rps must be finite and at least 1/{MAX_WAIT:g}"
            )
        if self.max_tokens < 1:
            raise ValueError("backend.max_tokens must be >= 1")
        if self.max_prompt_chars is not None and self.max_prompt_chars < 1:
            raise ValueError("backend.max_prompt_chars must be >= 1")


class HttpBackend(TranslationBackend):
    """Chat-completions client.

    Message assembly: when the endpoint supports a system role and the
    prompt has system text, the system text becomes the system message and
    the user message is the prompt rendered without its system block;
    otherwise the single user message is the full rendered prompt. The
    request body carries exactly model, messages, temperature, max_tokens.
    Each attempt renders once: beside a system message, the full prompt's
    length, which max_prompt_chars caps, is the user message's plus the
    system block's at each {system} field of the main template.

    Transport: idle keep-alive connections wait on a stack; each call pops
    one, or opens one, and pushes it back after reading a complete response
    the server did not mark as closing, so concurrent callers hold at most
    one connection each. The endpoint, the TLS context (the system CA
    store) and the proxy (`*_proxy`/`no_proxy`) are resolved once here. A
    3xx is not followed, and ~/.netrc is not read.
    """

    def __init__(self, config: HttpBackendConfig):
        import ssl
        import urllib.request

        self.config = config
        self._system_fields = sum(
            name == "system" for _, name, _, _ in Formatter().parse(config.template.main)
        )
        self._limiter = (
            _RateLimiter(config.rate_limit_rps) if config.rate_limit_rps else None
        )
        self._headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            api_key = os.environ.get(config.api_key_env)
            if not api_key:
                raise ValueError(
                    f"environment variable {config.api_key_env!r} is not set"
                )
            self._headers["Authorization"] = f"Bearer {api_key}"

        url = urlsplit(config.base_url.rstrip("/") + config.path)
        self._target = quote(url.path + (f"?{url.query}" if url.query else ""), safe=_URL_SAFE)
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._host, self._port = url.hostname, url.port or (80 if self._tls is None else 443)
        self._tunnel = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ValueError(f"{url.scheme}_proxy must be an http:// URL, got {proxy!r}")
            proxy_headers = {}
            if proxy_url.username is not None:
                user_pass = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                token = base64.b64encode(user_pass.encode("utf-8")).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if self._tls is None:  # plain HTTP: the proxy gets the absolute URL
                self._target = f"http://{url.netloc}{self._target}"
                self._headers.update(proxy_headers)
            else:  # HTTPS: a CONNECT tunnel through the proxy
                self._tunnel = (self._host, self._port, proxy_headers)
            self._host, self._port = proxy_url.hostname, proxy_url.port or 80

        self._idle: list[http.client.HTTPConnection] = []
        # a backend dropped without close() still closes its sockets
        weakref.finalize(self, _close_idle, self._idle)

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        _close_idle(self._idle)

    def build_messages(self, prompt: PromptSpec) -> list[dict[str, str]]:
        if self.config.supports_system_role and prompt.system_text:
            return [
                {"role": "system", "content": prompt.system_text},
                {
                    "role": "user",
                    "content": render(replace(prompt, system_text=""), self.config.template),
                },
            ]
        return [{"role": "user", "content": render(prompt, self.config.template)}]

    def build_body(self, prompt: PromptSpec) -> dict:
        return {
            "model": self.config.model,
            "messages": self.build_messages(prompt),
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }

    def translate(self, prompt: PromptSpec) -> str:
        body = self.build_body(prompt)
        limit = self.config.max_prompt_chars
        if limit is not None:
            *system, user = body["messages"]
            chars = len(user["content"])
            if system:
                block = self.config.template.system_section.format(system=prompt.system_text)
                chars += self._system_fields * len(block)
            if chars > limit:
                raise BackendError("overlong_prompt", f"prompt is {chars} chars, limit {limit}")
        if self._limiter is not None:
            self._limiter.wait()
        resp, data = self._post(json.dumps(body, allow_nan=False).encode("utf-8"))
        return _parse_response(resp, data)

    def _connection(self) -> http.client.HTTPConnection:
        import http.client
        import selectors

        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                break
            # an idle connection has nothing to read unless its peer closed
            # it; a selector, unlike select.select, takes any descriptor
            with selectors.DefaultSelector() as probe:
                probe.register(conn.sock, selectors.EVENT_READ)
                if not probe.select(0):
                    return conn
            conn.close()
        if self._tls is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=self.config.timeout)
        else:
            conn = http.client.HTTPSConnection(
                self._host, self._port, timeout=self.config.timeout, context=self._tls
            )
        if self._tunnel is not None:
            host, port, headers = self._tunnel
            conn.set_tunnel(host, port, headers)
        return conn

    def _post(self, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        import http.client

        conn = self._connection()
        resp = None
        try:
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except TimeoutError as exc:
            raise BackendError("network", f"timeout after {self.config.timeout}s") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BackendError("network", str(exc) or type(exc).__name__) from exc
        finally:
            if resp is not None and resp.isclosed() and not resp.will_close:
                self._idle.append(conn)
            else:
                if resp is not None:
                    resp.close()
                conn.close()
        return resp, data


# left unescaped in the request target: the reserved characters and "%",
# so an already-escaped path is sent as written
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


def _close_idle(idle: list[http.client.HTTPConnection]) -> None:
    while True:
        try:
            idle.pop().close()
        except IndexError:
            return


def _parse_response(resp: http.client.HTTPResponse, data: bytes) -> str:
    status = resp.status
    if status == 429:
        raise BackendError(
            "rate_limit", "HTTP 429", retry_after=_delta_seconds(resp.getheader("Retry-After"))
        )
    if status >= 500:
        raise BackendError("network", f"HTTP {status}")
    if status >= 400:
        detail = data.decode("utf-8", "replace")[:200]
        if _looks_like_context_overflow(data):
            raise BackendError("overlong_prompt", detail)
        raise BackendError("protocol", f"HTTP {status}: {detail}")
    if status >= 300:
        location = resp.getheader("Location")
        raise BackendError("protocol", f"HTTP {status} redirect to {location!r}, not followed")
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise BackendError("protocol", f"malformed response body: {exc}") from exc
    if not isinstance(content, str) or not content.strip():
        raise BackendError("empty_output", "completion had no text")
    return content


def _delta_seconds(value: str | None) -> float | None:
    """A Retry-After in its delta-seconds form; an HTTP-date or anything
    malformed gives None."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _looks_like_context_overflow(data: bytes) -> bool:
    try:
        body = json.loads(data)
    except ValueError:
        body = None
    err = body.get("error", {}) if isinstance(body, dict) else None
    if isinstance(err, dict):
        blob = (str(err.get("code", "")) + " " + str(err.get("message", ""))).lower()
    else:  # not JSON, or not the usual {"error": {...}}: read the raw text
        blob = data.decode("utf-8", "replace").lower()
    return "context" in blob and ("length" in blob or "window" in blob) or "too many tokens" in blob
