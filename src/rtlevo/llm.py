"""Completion providers: a chat-completion HTTP client and a deterministic scripted double.

Both expose a single method, complete(bundle) -> CompletionResult, so the
engine never knows which one it is talking to, and both fail with a
ProviderError. Every call can be recorded, result or error, in a
transcript for replay and audit (`TranscriptWriter.call`). Drafts and
critiques are sampled alike, with the provider's one temperature and
top_p. The HTTP client reads its API key from an environment variable
once, when it is built, and never persists it.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import requests

from .model import ConfigError, build, read_yaml
from .prompts import PromptBundle, render_response

logger = logging.getLogger(__name__)

BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25

# How long a scripted call waits for its predecessor; scripted replies are instant
KEYED_WAIT_SECONDS = 30.0


class ProviderError(RuntimeError):
    """A completion backend failed after `attempt_count` attempts.

    `kind` is transient, auth or protocol for the HTTP client, and
    unmatched, exhausted or stalled for a scripted provider.
    """

    def __init__(self, kind: str, message: str, attempt_count: int = 1):
        super().__init__(message)
        self.kind = kind
        self.attempt_count = attempt_count


@dataclass(frozen=True)
class ProviderConfig:
    endpoint_url: str = ""
    model_name: str = ""
    api_key_env_var: str = ""
    temperature: float = 1.0
    top_p: float = 0.95
    max_retries: int = 3
    request_timeout: float = 120.0
    max_parallel_requests: int = 4

    def __post_init__(self) -> None:
        if not self.endpoint_url:
            raise ValueError("provider.endpoint_url is required for kind: http")
        if self.temperature < 0:
            raise ValueError(f"provider.temperature must be >= 0, got {self.temperature!r}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"provider.top_p must be in (0, 1], got {self.top_p!r}")
        if self.max_retries < 0:
            raise ValueError(f"provider.max_retries must be >= 0, got {self.max_retries!r}")
        if self.max_parallel_requests < 1:
            raise ValueError(
                f"provider.max_parallel_requests must be >= 1, got {self.max_parallel_requests!r}"
            )


@dataclass(frozen=True)
class ScriptConfig:
    """A scripted provider's config: the YAML file of its replies."""

    script_file: str

    def __post_init__(self) -> None:
        if not self.script_file:
            raise ValueError("provider.script_file is required")
        if not Path(self.script_file).is_file():
            raise ValueError(f"provider.script_file: file not found: {self.script_file}")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: dict | None = None
    latency: float = 0.0
    attempt_count: int = 1


class Provider(Protocol):
    def complete(self, bundle: PromptBundle) -> CompletionResult: ...


class TranscriptWriter:
    """Appends one JSON record per completion call to a .jsonl file in an
    existing directory.

    `redact` lists secret strings (API key values) that must never reach
    disk; any occurrence is replaced before writing.
    """

    def __init__(self, path: str | Path, redact: list[str] | None = None):
        self._path = Path(path)
        self._lock = threading.Lock()
        self._redact = [s for s in (redact or []) if s]

    def _scrub(self, value):
        if isinstance(value, str):
            for secret in self._redact:
                value = value.replace(secret, "[REDACTED]")
        return value

    def call(
        self, bundle: PromptBundle, complete: Callable[[], CompletionResult]
    ) -> CompletionResult:
        """Runs `complete()`, the call for `bundle`, and records its result or
        its error before re-raising it; a ProviderError keeps its attempt count."""
        try:
            result = complete()
        except Exception as exc:
            attempts = exc.attempt_count if isinstance(exc, ProviderError) else None
            self.record(bundle, None, str(exc), attempts)
            raise
        self.record(bundle, result)
        return result

    def record(
        self,
        bundle: PromptBundle,
        result: CompletionResult | None,
        error: str | None = None,
        attempt_count: int | None = None,
    ) -> None:
        """Appends one entry; a failed call has no result, only its error
        and, when known, its attempt count."""
        entry = {
            "purpose": bundle.purpose,
            "strategy": bundle.strategy.value if bundle.strategy else None,
            "parent_ids": list(bundle.parent_ids),
            "system_text": bundle.system_text,
            "user_text": bundle.user_text,
            "response": result.text if result else None,
            "usage": result.usage if result else None,
            "latency": result.latency if result else None,
            "attempt_count": result.attempt_count if result else attempt_count,
            "error": error,
        }
        entry = {key: self._scrub(value) for key, value in entry.items()}
        line = json.dumps(entry, sort_keys=True, ensure_ascii=False)
        with self._lock, self._path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")


class TranscriptingProvider:
    """Mirrors every call on any provider into a transcript."""

    def __init__(self, inner: Provider, transcript: TranscriptWriter):
        self._inner = inner
        self._transcript = transcript

    def complete(self, bundle: PromptBundle) -> CompletionResult:
        return self._transcript.call(bundle, lambda: self._inner.complete(bundle))


class HttpChatProvider:
    """Client for any chat-completion-shaped HTTP endpoint.

    Sends {model, messages, temperature, top_p}; retries 429/5xx/timeouts
    with exponential backoff and jitter; treats 401/403 as non-retriable.
    An unset or empty key variable is an `auth` ProviderError at
    construction, before any request.
    """

    _TRANSIENT_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(self, config: ProviderConfig, transcript: TranscriptWriter | None = None):
        name = config.api_key_env_var
        key = os.environ.get(name, "") if name else ""
        if not key:
            raise ProviderError("auth", f"API key environment variable {name!r} is unset or empty")
        self.config = config
        self._headers = {"Authorization": f"Bearer {key}"}
        self._transcript = transcript
        self._session = requests.Session()
        self._semaphore = threading.BoundedSemaphore(config.max_parallel_requests)

    def complete(self, bundle: PromptBundle) -> CompletionResult:
        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }
        if self._transcript is None:
            return self._post(payload)
        return self._transcript.call(bundle, lambda: self._post(payload))

    def _post(self, payload: dict) -> CompletionResult:
        start = time.monotonic()
        last_error = "no attempt made"
        attempts = self.config.max_retries + 1
        with self._semaphore:
            for attempt in range(1, attempts + 1):
                try:
                    response = self._session.post(
                        self.config.endpoint_url,
                        json=payload,
                        headers=self._headers,
                        timeout=self.config.request_timeout,
                    )
                except requests.RequestException as exc:
                    last_error = f"request failed: {exc}"
                else:
                    if response.status_code in (401, 403):
                        raise ProviderError(
                            "auth", f"authentication rejected (HTTP {response.status_code})", attempt
                        )
                    if response.status_code == 200:
                        return self._parse_body(response, attempt, start)
                    last_error = f"HTTP {response.status_code}"
                    if response.status_code not in self._TRANSIENT_STATUS:
                        raise ProviderError("protocol", f"unexpected response: {last_error}", attempt)
                if attempt < attempts:
                    delay = BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** (attempt - 1)
                    delay += random.uniform(0, BACKOFF_JITTER)
                    logger.warning(
                        "transient provider failure (%s), retry %d/%d in %.1fs",
                        last_error, attempt, self.config.max_retries, delay,
                    )
                    time.sleep(delay)
        raise ProviderError("transient", f"exhausted retries: {last_error}", attempts)

    def _parse_body(self, response: requests.Response, attempt: int, start: float) -> CompletionResult:
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError("message content is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError("protocol", f"malformed response body: {exc}", attempt) from None
        usage = body.get("usage") if isinstance(body.get("usage"), dict) else None
        return CompletionResult(
            text=text,
            usage=usage,
            latency=time.monotonic() - start,
            attempt_count=attempt,
        )


@dataclass
class ScriptEntry:
    """One scripted response; `repeat` entries are matched without being consumed.

    Matcher forms:
      "strategy:<name>"   generation prompts for that operator ("initial"
                          matches the parent-free initial prompt)
      "purpose:<p>"       any bundle with that purpose (e.g. "feedback")
      anything else       substring of the combined system+user text
    """

    match: str
    response: str
    repeat: bool = False

    def matches(self, bundle: PromptBundle) -> bool:
        matcher = self.match.strip()
        lowered = matcher.lower()
        if lowered.startswith("strategy:"):
            name = lowered.split(":", 1)[1].strip()
            if bundle.purpose != "generate":
                return False
            if name == "initial":
                return bundle.strategy is None
            return bundle.strategy is not None and bundle.strategy.value == name
        if lowered.startswith("purpose:"):
            return bundle.purpose == lowered.split(":", 1)[1].strip()
        return matcher in bundle.user_text or matcher in bundle.system_text


class ScriptedProvider:
    """Deterministic provider that replays a scripted list of responses.

    Each call consumes the first matching non-repeat entry (FIFO among equal
    matchers); having no entries left is `exhausted`, having entries but no
    match is `unmatched`.

    Keyed calls, the engine's critique and draft prompts, are served in key
    order within a generation: the call keyed (g, n) waits until the one
    keyed (g, n-1) has been served, so concurrent slots consume entries,
    one-shot feedback entries included, as one slot at a time would. The
    call keyed (g, 0) never waits, and a wait longer than
    KEYED_WAIT_SECONDS is a `stalled` ProviderError. Unkeyed calls are
    served in arrival order.
    """

    def __init__(self, entries: list[ScriptEntry]):
        if not entries:
            raise ValueError("scripted provider needs at least one entry")
        self._entries = list(entries)
        self._lock = threading.Condition()
        self._last_key: tuple[int, int] | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedProvider":
        """A provider for a YAML list of ScriptEntry mappings, whose response
        may also be a {thought, code} mapping; a bad file is a ConfigError."""
        raw = read_yaml(path, f"script file {path}")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"script file {path} must contain a non-empty list of entries")
        entries = []
        for i, item in enumerate(raw):
            if isinstance(item, dict) and isinstance(item.get("response"), dict):
                reply = item["response"]
                text = render_response(str(reply.get("thought", "")), str(reply.get("code", "")))
                item = {**item, "response": text}
            entries.append(build(ScriptEntry, item, f"script file {path}, entry {i}"))
        return cls(entries)

    def complete(self, bundle: PromptBundle) -> CompletionResult:
        key = bundle.key
        with self._lock:
            try:
                if key is not None and key[1] > 0:
                    previous = (key[0], key[1] - 1)
                    if not self._lock.wait_for(
                        lambda: self._last_key == previous, KEYED_WAIT_SECONDS
                    ):
                        raise ProviderError("stalled", f"the call keyed {previous} never came")
                return self._consume(bundle)
            finally:
                # a failed call still ends its turn, so later slots go on
                if key is not None:
                    self._last_key = key
                    self._lock.notify_all()

    def _consume(self, bundle: PromptBundle) -> CompletionResult:
        if not self._entries:
            raise ProviderError("exhausted", "scripted provider has no responses left")
        for i, entry in enumerate(self._entries):
            if entry.matches(bundle):
                if not entry.repeat:
                    del self._entries[i]
                return CompletionResult(text=entry.response)
        label = bundle.strategy.value if bundle.strategy else bundle.purpose
        raise ProviderError("unmatched", f"no script entry matches prompt ({label})")
