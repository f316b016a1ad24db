"""Chat-completion backends: live HTTP, recorded replay, and scripted.

All backends expose a single ``complete(phase, messages, temperature,
sample_index)`` method returning a ``ChatResponse``. Replay files key each
recorded response by a content hash of (phase, messages, temperature) plus
the sample index, so a recorded run can be replayed byte-for-byte without
network access and multi-sample draws stay distinguishable.

Responses carry no timing; the pipeline times each ``complete`` call.
Backends that cannot vary between runs declare ``deterministic = True``.
Backends that answer from memory, without waiting on anything, declare
``in_memory = True``: the pipeline then sends an instance's requests one
after another from the instance's own thread, because handing one to a
pool thread costs more than the answer. A backend that does not declare
it gets each phase's requests of an instance sent at once.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

DEFAULT_TIMEOUT_S = 60.0
DEFAULT_MAX_RETRIES = 3

_BACKOFF_BASE_S = 1.0
_BACKOFF_FACTOR = 2.0
_BACKOFF_JITTER_S = 0.25

_RETRYABLE_STATUS = frozenset({429}) | frozenset(range(500, 600))

class BackendError(Exception):
    """A completion could not be produced."""


class ReplayMissError(BackendError):
    """The replay file has no entry for a requested completion."""


@dataclass
class ChatResponse:
    text: str
    usage: Optional[dict] = None


@dataclass
class BackendConfig:
    kind: str = "replay"  # http | replay
    endpoint_url: str = ""
    model: str = ""
    api_key_env: str = "TITAN_API_KEY"
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_retries: int = DEFAULT_MAX_RETRIES
    replay_path: str = ""


def _canonical_encoder():
    """``json.dumps(obj, sort_keys=True, ensure_ascii=False)``, built once."""
    py = json.JSONEncoder(sort_keys=True, ensure_ascii=False, check_circular=False)
    if json.encoder.c_make_encoder is None:
        return py.encode
    c = json.encoder.c_make_encoder(
        None, py.default, json.encoder.encode_basestring, None,
        ": ", ", ", True, False, True,
    )
    return lambda obj: "".join(c(obj, 0))


# The one JSON form of every key titan hashes and line it writes. It keeps no
# markers, so a circular value raises RecursionError.
canonical = _canonical_encoder()


def json_lines(lines, path) -> "Iterator[tuple[str, dict]]":
    """Each JSON object of ``lines``, the byte lines of file ``path``.

    Yields ``(where, obj)`` with ``where`` = ``path:line``. Blank lines are
    skipped. A line that is not UTF-8 holding a JSON object raises
    ``ValueError`` naming its ``where``.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise ValueError(f"{where}: malformed line: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: malformed line: not a JSON object")
        yield where, obj


def request_key(phase: str, messages, temperature: float) -> str:
    blob = canonical(
        {"phase": phase, "messages": messages, "temperature": temperature}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HttpBackend:
    """OpenAI-compatible chat completions over HTTP.

    The API key is read from the environment variable named in the config,
    never from the config file itself. Transport and sleep are injectable
    so retry behaviour is testable without sockets.
    """

    deterministic = False

    def __init__(
        self,
        config: BackendConfig,
        transport: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        if not config.endpoint_url:
            raise BackendError("http backend requires endpoint_url")
        if not config.model:
            raise BackendError("http backend requires model")
        self.config = config
        self._transport = transport or self._requests_transport
        self._sleep = sleep
        self._rng = rng or random.Random()

    @staticmethod
    def _requests_transport(url, headers, payload, timeout_s):
        import requests

        try:
            resp = requests.post(url, headers=headers, json=payload, timeout=timeout_s)
        except requests.RequestException as exc:
            raise ConnectionError(str(exc)) from exc
        return resp.status_code, resp.text

    def _endpoint(self) -> str:
        base = self.config.endpoint_url.rstrip("/")
        if base.endswith("/chat/completions"):
            return base
        return base + "/chat/completions"

    def _headers(self) -> dict:
        import os

        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(
        self, phase: str, messages, temperature: float, sample_index: int = 0
    ) -> ChatResponse:
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": temperature,
        }
        url = self._endpoint()
        headers = self._headers()
        attempts = self.config.max_retries + 1
        last_error = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                delay = _BACKOFF_BASE_S * (_BACKOFF_FACTOR ** (attempt - 1))
                delay += self._rng.uniform(0.0, _BACKOFF_JITTER_S)
                self._sleep(delay)
            try:
                status, body = self._transport(
                    url, headers, payload, self.config.timeout_s
                )
            except (ConnectionError, OSError, TimeoutError) as exc:
                last_error = f"transport failure: {exc}"
                continue
            if status in (401, 403):
                raise BackendError(f"authentication failed (HTTP {status})")
            if status in _RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise BackendError(f"unexpected HTTP {status}: {body[:200]}")
            try:
                parsed = json.loads(body)
                text = parsed["choices"][0]["message"]["content"]
            except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion body: {exc}") from exc
            return ChatResponse(text=text, usage=parsed.get("usage"))
        raise BackendError(
            f"gave up after {attempts} attempts, last error: {last_error}"
        )


class ReplayBackend:
    """Serve completions from a recorded JSONL file. Misses are errors."""

    deterministic = True
    in_memory = True

    def __init__(self, responses: "dict[tuple, ChatResponse]"):
        self._responses = responses

    @classmethod
    def from_path(cls, path) -> "ReplayBackend":
        """Load a replay file, keeping each line's response only.

        A bad line raises ``BackendError`` naming ``path:line``.
        """
        responses = {}
        with open(path, "rb") as fh:
            try:
                for where, entry in json_lines(fh, path):
                    try:
                        key, text = entry["key"], entry["response_text"]
                        sample_index = int(entry.get("sample_index", 0))
                        if not isinstance(key, str) or not isinstance(text, str):
                            raise TypeError("key and response_text must be strings")
                    except (KeyError, TypeError, ValueError) as exc:
                        raise ValueError(f"{where}: malformed line: {exc}") from None
                    usage = entry.get("usage")
                    responses[(key, sample_index)] = ChatResponse(text, usage)
            except ValueError as exc:
                raise BackendError(f"bad replay file: {exc}") from None
        return cls(responses)

    def complete(
        self, phase: str, messages, temperature: float, sample_index: int = 0
    ) -> ChatResponse:
        key = request_key(phase, messages, temperature)
        response = self._responses.get((key, sample_index))
        if response is None:
            raise ReplayMissError(
                f"no recorded response for phase={phase} sample={sample_index} "
                f"key={key[:12]}"
            )
        return response


class ScriptedBackend:
    """Per-phase response queues for tests, first in first out.

    Exhaustion is an error. The pipeline sends an instance's requests of a
    phase in sample order, so with k samples, sample s gets the s-th of
    the phase's next k items.
    """

    deterministic = True
    in_memory = True

    def __init__(self, responses: "dict[str, list]"):
        self._queues = {phase: deque(items) for phase, items in responses.items()}

    def complete(
        self, phase: str, messages, temperature: float, sample_index: int = 0
    ) -> ChatResponse:
        try:  # popleft is atomic, so instances may share the backend
            item = self._queues.get(phase, deque()).popleft()
        except IndexError:
            raise BackendError(
                f"scripted backend exhausted for phase {phase!r}"
            ) from None
        if isinstance(item, ChatResponse):
            return item
        return ChatResponse(text=str(item))

    def remaining(self, phase: str) -> int:
        """How many of the phase's items no request has taken yet."""
        return len(self._queues.get(phase, ()))


class RecordingBackend:
    """Wrap a backend and append every completion to a replay JSONL file."""

    def __init__(self, inner, path):
        self.inner = inner
        self._path = path
        self._lock = threading.Lock()

    def complete(
        self, phase: str, messages, temperature: float, sample_index: int = 0
    ) -> ChatResponse:
        response = self.inner.complete(phase, messages, temperature, sample_index)
        record = {
            "key": request_key(phase, messages, temperature),
            "phase": phase,
            "request_messages": messages,
            "temperature": temperature,
            "sample_index": sample_index,
            "response_text": response.text,
            "usage": response.usage,
        }
        line = canonical(record)
        with self._lock:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return response


def make_backend(config: BackendConfig):
    if config.kind == "http":
        return HttpBackend(config)
    if config.kind == "replay":
        if not config.replay_path:
            raise BackendError("replay backend requires replay_path")
        return ReplayBackend.from_path(config.replay_path)
    raise BackendError(f"unknown backend kind {config.kind!r}")
