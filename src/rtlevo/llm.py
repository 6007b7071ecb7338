"""Completion providers: a chat-completion HTTP client and a deterministic scripted double.

Both expose a single method, complete(bundle) -> CompletionResult, so the
engine never knows which one it is talking to, and both fail with a
ProviderError. Every call can be recorded, result or error, in a
transcript (`TranscriptWriter.call`): each call purpose's system prompt
and every prompt template once, in its header, then one entry of one
shape per call, under the engine's call key, which joins it to its
generation and individuals, with its prompt's digest in place of its
text. Drafts and critiques are sampled alike, with the provider's one
temperature and top_p. The HTTP client reads its API key from an
environment variable once, when it is built, and registers it with its
transcript, which redacts it, so the key is never persisted. It speaks
HTTP/1.1 through the stdlib's `http.client`, keeping idle connections
open for the next call.
"""

from __future__ import annotations

import base64
import functools
import json
import logging
import os
import random
import re
import select
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from . import __version__
from .model import MAX_WAIT_SECONDS, ConfigError, LineFile, build, check_range, read_yaml
from .prompts import PromptBundle, prompt_digest, render_response, system_texts, user_templates

logger = logging.getLogger(__name__)

BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25


class ProviderError(RuntimeError):
    """A completion backend failed after `attempt_count` attempts.

    `kind` is transient, auth or protocol for the HTTP client, and
    unmatched for a scripted provider.
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
            raise ConfigError("provider.endpoint_url is required for kind: http")
        try:
            url = urllib.parse.urlsplit(self.endpoint_url)
            url.port  # a port that is not a number in range raises ValueError
        except ValueError:
            url = None
        # http.client sends the URL as it is, so it must need no quoting
        if (
            url is None
            or url.scheme not in ("http", "https")
            or not url.hostname
            or not re.fullmatch(r"[!-~]+", self.endpoint_url)
        ):
            raise ConfigError(
                "provider.endpoint_url must be an http or https URL with a host, "
                f"in ASCII without spaces, got {self.endpoint_url!r}"
            )
        check_range("provider.temperature", self.temperature, "[0, inf)")
        check_range("provider.top_p", self.top_p, "(0, 1]")
        check_range("provider.max_retries", self.max_retries, "[0, inf)")
        check_range("provider.request_timeout", self.request_timeout, f"(0, {MAX_WAIT_SECONDS}]")
        check_range("provider.max_parallel_requests", self.max_parallel_requests, "[1, inf)")


@dataclass(frozen=True)
class ScriptConfig:
    """A scripted provider's config: the YAML file of its replies."""

    script_file: str

    def __post_init__(self) -> None:
        if not self.script_file:
            raise ConfigError("provider.script_file is required")
        if not Path(self.script_file).is_file():
            raise ConfigError(f"provider.script_file: file not found: {self.script_file}")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: dict | None = None
    latency: float = 0.0
    attempt_count: int = 1


class Provider(Protocol):
    def complete(self, bundle: PromptBundle) -> CompletionResult: ...


class TranscriptWriter(LineFile):
    """A run's transcript: one JSON entry per completion call, a line of a
    .jsonl file in an existing directory (`LineFile`: started new at the
    first entry, under the header `{"schema_version": 3, "system_text":
    {purpose: text}, "templates": {name: text}}` that holds
    `prompts.system_texts()`, each call purpose's system prompt, and
    `prompts.user_templates()`, the text of every user-prompt template).

    Every entry has the same keys: the call key, its purpose, operator and
    parents, its result or error, and its prompt as `user_sha256`, its
    `prompts.prompt_digest`; the run directory rebuilds the text
    (`rtlevo report --call`).

    A secret registered with `redact` (an API key value) never reaches
    disk; any occurrence in the header or an entry is replaced when the
    line is written.
    """

    SCHEMA_VERSION = 3

    def __init__(self, path: str | Path):
        header = {
            "schema_version": self.SCHEMA_VERSION,
            "system_text": system_texts(),
            "templates": user_templates(),
        }
        super().__init__(path, header)
        self._redact: list[str] = []

    def redact(self, secret: str) -> None:
        if secret:
            self._redact.append(secret)

    def encode(self, value: dict) -> str:
        if self._redact:
            value = self._scrub(value)
        return super().encode(value)

    def _scrub(self, value):
        if isinstance(value, dict):
            return {key: self._scrub(item) for key, item in value.items()}
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
        """Appends one entry, under the bundle's call key, with its prompt's
        digest; its system prompt is the header's for its purpose. A failed
        call has no result, only its error and, when known, its attempt count.
        An HTTP result's `latency` runs from the call's start, waits for a
        request slot and retries included, in whole microseconds."""
        entry = {
            "key": bundle.key,
            "purpose": bundle.purpose,
            "strategy": bundle.strategy.value if bundle.strategy else None,
            "parent_ids": list(bundle.parent_ids),
            "response": result.text if result else None,
            "usage": result.usage if result else None,
            "latency": round(result.latency, 6) if result else None,
            "attempt_count": result.attempt_count if result else attempt_count,
            "error": error,
            "user_sha256": prompt_digest(bundle.user_text),
        }
        self.write_line(self.encode(entry))


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
    with exponential backoff and jitter; treats 401/403 as non-retriable
    and any other status, a redirect included, as a protocol error.
    An unset or empty key variable is an `auth` ProviderError at
    construction, before any request.

    Connections are kept alive between calls, one per request in flight.
    HTTPS certificates are verified against the system trust store, and
    HTTP_PROXY, HTTPS_PROXY and NO_PROXY are honoured: an https endpoint is
    reached through a CONNECT tunnel, an http one by sending the proxy the
    absolute URL.
    """

    _TRANSIENT_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(self, config: ProviderConfig, transcript: TranscriptWriter | None = None):
        # imported here: http.client and ssl cost a process about 6 MB and
        # 20 ms, which only a run with an http provider needs to pay
        import http.client
        import ssl
        import urllib.request

        name = config.api_key_env_var
        key = os.environ.get(name, "") if name else ""
        if not key:
            raise ProviderError("auth", f"API key environment variable {name!r} is unset or empty")
        if transcript is not None:
            transcript.redact(key)
        self.config = config
        self._headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
            "User-Agent": f"rtlevo/{__version__}",
        }
        self._transcript = transcript
        self._semaphore = threading.BoundedSemaphore(config.max_parallel_requests)
        self._idle: list = []
        self._idle_lock = threading.Lock()
        self._request_errors = (OSError, http.client.HTTPException)

        url = urllib.parse.urlsplit(config.endpoint_url)
        https = url.scheme == "https"
        self._target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        address = (url.hostname, url.port)
        self._tunnel = None
        proxy = None
        if not urllib.request.proxy_bypass(url.netloc):
            proxy = urllib.request.getproxies().get(url.scheme)
        if proxy:
            try:
                via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                address = (via.hostname, via.port or 80)
            except ValueError:
                address = (None, None)
            if not address[0]:
                raise ProviderError("protocol", f"the {url.scheme} proxy {proxy!r} is not a valid URL")
            proxy_headers = {}
            if via.username:
                user = urllib.parse.unquote(via.username)
                secret = urllib.parse.unquote(via.password or "")
                token = base64.b64encode(f"{user}:{secret}".encode()).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if https:
                self._tunnel = (url.hostname, url.port or 443, proxy_headers)
            else:
                self._target = config.endpoint_url
                self._headers.update(proxy_headers)
        if https:
            connection = functools.partial(
                http.client.HTTPSConnection, context=ssl.create_default_context()
            )
        else:
            connection = http.client.HTTPConnection
        self._connection = functools.partial(connection, *address, timeout=config.request_timeout)

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
        body = json.dumps(payload).encode("utf-8")
        last_error = "no attempt made"
        attempts = self.config.max_retries + 1
        with self._semaphore:
            for attempt in range(1, attempts + 1):
                try:
                    status, data = self._request(body)
                except self._request_errors as exc:
                    last_error = f"request failed: {exc}"
                else:
                    if status in (401, 403):
                        raise ProviderError("auth", f"authentication rejected (HTTP {status})", attempt)
                    if status == 200:
                        return self._parse_body(data, attempt, start)
                    last_error = f"HTTP {status}"
                    if status not in self._TRANSIENT_STATUS:
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

    def _request(self, body: bytes) -> tuple[int, bytes]:
        """One POST of `body` on an idle connection, or a new one: its
        status and whole response body. The connection is kept for the
        next call unless the server said it closes it."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connection()
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # an idle connection has nothing to read unless the server has
            # closed it; close it too, and the request below reconnects
            conn.close()
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return response.status, data

    def close(self) -> None:
        """Closes the idle connections; a later call opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _parse_body(self, data: bytes, attempt: int, start: float) -> CompletionResult:
        try:
            body = json.loads(data)
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


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted response and the matcher that selects it.

    Matcher forms:
      "call:<G>/<N>"      the engine's call keyed (G, N): the call numbered
                          N of generation G, critiques and drafts alike
      "strategy:<name>"   generation prompts for that operator ("initial"
                          matches the parent-free initial prompt)
      "purpose:<p>"       any bundle with that purpose (e.g. "feedback")
      anything else       substring of the combined system+user text
    """

    match: str
    response: str

    def __post_init__(self) -> None:
        kind, _, value = self.match.strip().lower().partition(":")
        if kind == "call" and not re.fullmatch(r"\s*\d+/\d+", value):
            raise ValueError(f"match {self.match!r} must name a call key as call:G/N")

    def matches(self, bundle: PromptBundle) -> bool:
        matcher = self.match.strip()
        kind, _, value = matcher.lower().partition(":")
        value = value.strip()
        if kind == "call":
            return bundle.key == tuple(map(int, value.split("/")))
        if kind == "strategy":
            name = bundle.strategy.value if bundle.strategy else "initial"
            return bundle.purpose == "generate" and name == value
        if kind == "purpose":
            return bundle.purpose == value
        return matcher in bundle.user_text or matcher in bundle.system_text


class ScriptedProvider:
    """Deterministic provider whose reply is a function of the call alone:
    the response of the first entry that matches it, or an `unmatched`
    ProviderError. Entries are never used up, so a reply depends neither on
    earlier calls nor on the thread or order a call arrives in."""

    def __init__(self, entries: list[ScriptEntry]):
        self._entries = tuple(entries)

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
        for entry in self._entries:
            if entry.matches(bundle):
                return CompletionResult(text=entry.response)
        label = bundle.strategy.value if bundle.strategy else bundle.purpose
        raise ProviderError("unmatched", f"no script entry matches prompt ({label})")
