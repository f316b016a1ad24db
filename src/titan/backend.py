"""Chat-completion backends: live HTTP and a replay store.

Both expose a single ``complete(phase, messages, temperature,
sample_index)`` method returning a ``ChatResponse``. Replay files key each
recorded response by a content hash of (phase, messages, temperature) plus
the sample index, so a recorded run can be replayed byte-for-byte without
network access and multi-sample draws stay distinguishable.

Responses carry no timing; the pipeline times each ``complete`` call.
A backend that cannot vary between runs has ``deterministic`` true. One
that answers from memory, without waiting on anything, has ``in_memory``
true: the pipeline then sends an instance's requests one after another
from the instance's own thread, because handing one to a pool thread costs
more than the answer. A backend without it gets each phase's requests of
an instance sent at once.

``make_backend`` builds the backend a ``BackendConfig`` names. Its
``replay_path`` is the run's one replay store: ``replay`` answers from it
alone, and ``http`` with it sends only the store's misses live, appending
each answer; ``http`` without it sends every request.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import __version__

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


def whole_lines(path, cut: bool = False):
    """The lines of ``path``, a file titan appends to, that end in a newline.

    A line counts once its newline is written, so bytes after the last
    newline are a line torn by a killed run. They are skipped with a
    warning and, with ``cut``, cut from the file once every whole line has
    been read, so the next line written starts on a line of its own.
    """
    end = 0
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                print(
                    f"warning: {path}:{line_no}: dropping unterminated last line",
                    file=sys.stderr,
                )
                if cut:
                    os.truncate(path, end)
                return
            end += len(line)
            yield line


def request_key(phase: str, messages, temperature: float) -> str:
    blob = canonical(
        {"phase": phase, "messages": messages, "temperature": temperature}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HttpBackend:
    """OpenAI-compatible chat completions over HTTP.

    The API key is read once, at construction, from the environment variable
    named in the config, never from the config file itself. Transport and
    sleep are injectable, so retry behaviour is tested without sockets; the
    default transport, ``_post`` on ``urllib``, is tested against a loopback
    server.
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
        try:
            parts = urllib.parse.urlsplit(config.endpoint_url)
            parts.port  # a port that is not a number in range raises ValueError
        except ValueError:
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise BackendError(
                "http backend requires an http:// or https:// endpoint_url "
                f"with a host, got {config.endpoint_url!r}"
            )
        self._api_key = os.environ.get(config.api_key_env, "")
        if not (self._api_key.isascii() and self._api_key.isprintable()):
            # never quote the key: this message reaches stderr
            raise BackendError(
                f"the API key in ${config.api_key_env} is not printable ASCII, "
                "so no HTTP header can carry it"
            )
        self.config = config
        self._transport = transport or self._post
        self._sleep = sleep
        self._rng = rng or random.Random()

    @staticmethod
    def _post(url, headers, payload, timeout_s):
        """POST ``payload`` as JSON on a new connection; ``(status, text)``.

        Any HTTP status is returned, not raised. A failure to connect or to
        read the whole body raises an ``OSError``.
        """
        import http.client
        import urllib.error
        import urllib.request

        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(url, data, headers, method="POST")
        try:
            try:
                resp = urllib.request.urlopen(request, timeout=timeout_s)
            except urllib.error.HTTPError as exc:  # an OSError: catch it first
                resp = exc
            with resp:
                body, charset = resp.read(), resp.headers.get_content_charset("utf-8")
        except http.client.HTTPException as exc:  # a body cut short, say
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
        try:
            return resp.status, body.decode(charset, errors="replace")
        except LookupError:  # a charset Python does not know
            return resp.status, body.decode("utf-8", errors="replace")

    def _endpoint(self) -> str:
        base = self.config.endpoint_url.rstrip("/")
        if base.endswith("/chat/completions"):
            return base
        return base + "/chat/completions"

    def _headers(self) -> dict:
        headers = {
            "Content-Type": "application/json", "User-Agent": f"titan/{__version__}"
        }
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
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
            except OSError as exc:  # ConnectionError and TimeoutError too
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
                if not isinstance(text, str):  # null for a filtered completion
                    raise TypeError(f"content is {json.dumps(text)}, not text")
            except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion body: {exc}") from exc
            return ChatResponse(text=text, usage=parsed.get("usage"))
        raise BackendError(
            f"gave up after {attempts} attempts, last error: {last_error}"
        )


class ReplayBackend:
    """Answer completions from a replay store held in memory.

    A miss raises ``ReplayMissError``, or goes to backend ``inner`` when
    there is one. Its answer is then kept, and appended to file
    ``append_to`` as one store line that names the run's ``model``. A hit
    takes no lock. A store with an ``inner`` waits on it, so it is neither
    ``in_memory`` nor ``deterministic``.
    """

    def __init__(
        self, responses: "dict[tuple, ChatResponse]", inner=None, append_to=None, model=""
    ):
        self._responses = responses
        self.inner, self._append_to, self._model = inner, append_to, model
        self.in_memory = self.deterministic = inner is None
        self._lock = None if inner is None else threading.Lock()

    @classmethod
    def from_path(cls, path, inner=None, model: str = "") -> "ReplayBackend":
        """Load replay file ``path``, keeping each line's response only.

        A line of a model other than a non-empty ``model`` is left out. With
        ``inner``, ``path`` is the store that misses are appended to: it may
        be missing, and a torn last line is cut (``whole_lines``). Without,
        a missing ``path`` raises ``BackendError``, and so does a bad line,
        naming ``path:line``.
        """
        if inner is None and not os.path.isfile(path):
            raise BackendError(f"replay file not found: {path}")
        responses = {}
        if os.path.isfile(path):
            lines = open(path, "rb") if inner is None else whole_lines(path, cut=True)
            with contextlib.closing(lines):
                try:
                    for where, entry in json_lines(lines, path):
                        try:
                            key, text = entry["key"], entry["response_text"]
                            sample_index = int(entry.get("sample_index", 0))
                            if not isinstance(key, str) or not isinstance(text, str):
                                raise TypeError("key and response_text must be strings")
                        except (KeyError, TypeError, ValueError) as exc:
                            raise ValueError(f"{where}: malformed line: {exc}") from None
                        if model and entry.get("model", model) != model:
                            continue
                        usage = entry.get("usage")
                        responses[(key, sample_index)] = ChatResponse(text, usage)
                except ValueError as exc:
                    raise BackendError(f"bad replay file: {exc}") from None
        return cls(responses, inner, path if inner is not None else None, model)

    def complete(
        self, phase: str, messages, temperature: float, sample_index: int = 0
    ) -> ChatResponse:
        key = request_key(phase, messages, temperature)
        response = self._responses.get((key, sample_index))
        if response is not None:
            return response
        if self.inner is None:
            raise ReplayMissError(
                f"no recorded response for phase={phase} sample={sample_index} "
                f"key={key[:12]}"
            )
        response = self.inner.complete(phase, messages, temperature, sample_index)
        line = canonical({
            "key": key, "model": self._model, "phase": phase,
            "request_messages": messages, "temperature": temperature,
            "sample_index": sample_index, "response_text": response.text,
            "usage": response.usage,
        })
        with self._lock:
            self._responses[(key, sample_index)] = response
            with open(self._append_to, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return response


def make_backend(config: BackendConfig):
    if config.kind == "http":
        live = HttpBackend(config)
        if not config.replay_path:
            return live
        return ReplayBackend.from_path(config.replay_path, live, config.model)
    if config.kind == "replay":
        if not config.replay_path:
            raise BackendError("replay backend requires replay_path")
        return ReplayBackend.from_path(config.replay_path, model=config.model)
    raise BackendError(f"unknown backend kind {config.kind!r}")
