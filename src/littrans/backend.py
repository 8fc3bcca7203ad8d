"""Translation backends: a uniform prompt-in / hypothesis-out contract.

Deterministic mocks cover testing and offline runs; HttpBackend speaks the
chat-completions wire protocol of common inference servers. Backends must
tolerate concurrent translate() calls; retry policy lives in the decoder,
backends only classify failures.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from urllib.parse import urlsplit

import requests

from .prompts import PromptSpec, PromptTemplate, render

_RETRYABLE = {
    "network": True,
    "rate_limit": True,
    "empty_output": True,
    "protocol": False,
    "overlong_prompt": False,
}


class BackendError(Exception):
    def __init__(self, kind: str, detail: str = "", retryable: bool | None = None):
        if kind not in _RETRYABLE:
            raise ValueError(f"unknown error kind {kind!r}")
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.detail = detail
        self.retryable = _RETRYABLE[kind] if retryable is None else retryable


@dataclass(frozen=True)
class BackendCapabilities:
    name: str
    max_prompt_chars: int | None = None
    supports_system_role: bool = True


class TranslationBackend:
    """Interface: subclasses implement translate(); must be thread-safe."""

    capabilities = BackendCapabilities(name="abstract")

    def translate(self, prompt: PromptSpec) -> str:
        raise NotImplementedError


class IdentityBackend(TranslationBackend):
    """Echoes the current source; useful for pipeline plumbing tests."""

    capabilities = BackendCapabilities(name="identity")

    def translate(self, prompt: PromptSpec) -> str:
        return prompt.current_source


class TableBackend(TranslationBackend):
    """Fixed source -> hypothesis lookup; unknown sources are a protocol
    error (the table is mis-scripted, retrying cannot help)."""

    capabilities = BackendCapabilities(name="table")

    def __init__(self, table: dict[str, str]):
        self.table = dict(table)

    def translate(self, prompt: PromptSpec) -> str:
        try:
            return self.table[prompt.current_source]
        except KeyError:
            raise BackendError("protocol", f"no table entry for {prompt.current_source!r}")


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

    capabilities = BackendCapabilities(name="scripted")

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
        if self.timeout <= 0:
            raise ValueError("backend.timeout must be > 0")
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ValueError("backend.rate_limit_rps must be > 0")


class HttpBackend(TranslationBackend):
    """Chat-completions client.

    Message assembly: when the endpoint supports a system role and the
    prompt has system text, the system text becomes the system message and
    the user message is the prompt rendered without its system block;
    otherwise the single user message is the full rendered prompt. The
    request body carries exactly model, messages, temperature, max_tokens.
    """

    def __init__(self, config: HttpBackendConfig, session: requests.Session | None = None):
        self.config = config
        self.capabilities = BackendCapabilities(
            name=f"http:{config.model}",
            max_prompt_chars=config.max_prompt_chars,
            supports_system_role=config.supports_system_role,
        )
        self._session = session or requests.Session()
        self._limiter = (
            _RateLimiter(config.rate_limit_rps) if config.rate_limit_rps else None
        )
        self._api_key = None
        if config.api_key_env:
            self._api_key = os.environ.get(config.api_key_env)
            if not self._api_key:
                raise ValueError(
                    f"environment variable {config.api_key_env!r} is not set"
                )

    def build_messages(
        self, prompt: PromptSpec, rendered: str | None = None
    ) -> list[dict[str, str]]:
        """`rendered`, when given, is the full prompt text already rendered
        with the system block, reused for a single user message."""
        if self.config.supports_system_role and prompt.system_text:
            return [
                {"role": "system", "content": prompt.system_text},
                {
                    "role": "user",
                    "content": render(replace(prompt, system_text=""), self.config.template),
                },
            ]
        if rendered is None:
            rendered = render(prompt, self.config.template)
        return [{"role": "user", "content": rendered}]

    def build_body(self, prompt: PromptSpec, rendered: str | None = None) -> dict:
        return {
            "model": self.config.model,
            "messages": self.build_messages(prompt, rendered),
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }

    def translate(self, prompt: PromptSpec) -> str:
        rendered = None
        limit = self.config.max_prompt_chars
        if limit is not None:
            rendered = render(prompt, self.config.template)
            if len(rendered) > limit:
                raise BackendError(
                    "overlong_prompt", f"prompt is {len(rendered)} chars, limit {limit}"
                )
        if self._limiter is not None:
            self._limiter.wait()
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        url = self.config.base_url.rstrip("/") + self.config.path
        try:
            resp = self._session.post(
                url,
                json=self.build_body(prompt, rendered),
                headers=headers,
                timeout=self.config.timeout,
            )
        except requests.Timeout as exc:
            raise BackendError("network", f"timeout after {self.config.timeout}s") from exc
        except requests.RequestException as exc:
            raise BackendError("network", str(exc)) from exc
        return self._parse_response(resp)

    def _parse_response(self, resp: requests.Response) -> str:
        if resp.status_code == 429:
            raise BackendError("rate_limit", "HTTP 429")
        if resp.status_code >= 500:
            raise BackendError("network", f"HTTP {resp.status_code}")
        if resp.status_code >= 400:
            detail = resp.text[:200]
            if _looks_like_context_overflow(resp):
                raise BackendError("overlong_prompt", detail)
            raise BackendError("protocol", f"HTTP {resp.status_code}: {detail}")
        try:
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError("protocol", f"malformed response body: {exc}") from exc
        if not isinstance(content, str) or not content.strip():
            raise BackendError("empty_output", "completion had no text")
        return content


def _looks_like_context_overflow(resp: requests.Response) -> bool:
    try:
        body = resp.json()
    except ValueError:
        body = None
    err = body.get("error", {}) if isinstance(body, dict) else None
    if isinstance(err, dict):
        blob = (str(err.get("code", "")) + " " + str(err.get("message", ""))).lower()
    else:  # not JSON, or not the usual {"error": {...}}: read the raw text
        blob = resp.text.lower()
    return "context" in blob and ("length" in blob or "window" in blob) or "too many tokens" in blob
