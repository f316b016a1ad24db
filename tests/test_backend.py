import dataclasses
import json
import pickle
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titan import backend

from titan.backend import (
    BackendConfig,
    BackendError,
    ChatResponse,
    HttpBackend,
    ReplayBackend,
    ReplayMissError,
    make_backend,
    request_key,
)

from conftest import ScriptedBackend

MSGS = [{"role": "user", "content": "hello"}]


def ok_body(text, usage=None):
    payload = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return json.dumps(payload)


class FakeTransport:
    def __init__(self, plan):
        self.plan = list(plan)
        self.calls = 0
        self.requests = []

    def __call__(self, url, headers, payload, timeout_s):
        self.calls += 1
        self.requests.append((url, headers, payload))
        item = self.plan.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def http_config(**overrides):
    base = dict(kind="http", endpoint_url="http://unit.test/v1", model="test-model")
    base.update(overrides)
    return BackendConfig(**base)


# --- request keys ------------------------------------------------------


def test_request_key_is_content_addressed():
    key = request_key("codegen", MSGS, 0.0)
    assert key == request_key("codegen", [{"content": "hello", "role": "user"}], 0.0)
    assert key != request_key("codegen", MSGS, 0.7)
    assert key != request_key("input_extraction", MSGS, 0.0)
    assert key != request_key("codegen", [{"role": "user", "content": "bye"}], 0.0)
    assert len(key) == 64


# Control characters, quotes, escapes, non-ASCII and astral code points
TRICKY_TEXT = st.text() | st.text(alphabet="\x00\x1f\x7f\n\t\"\\/é\u2028€😀")
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([-0.0, 1e308, -1e308, 5e-324])
    | TRICKY_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TRICKY_TEXT, children, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize("accelerated", [True, False])
@given(value=JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_canonical_is_sorted_json_dumps(accelerated, value):
    expected = json.dumps(value, sort_keys=True, ensure_ascii=False)
    if accelerated:
        assert json.encoder.c_make_encoder is not None
        assert backend.canonical(value) == expected
        return
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        canonical = backend._canonical_encoder()
        assert isinstance(canonical.__self__, json.JSONEncoder)  # the fallback
        assert canonical(value) == expected


def test_request_key_bytes_are_pinned():
    # replay files recorded by earlier versions must keep hitting
    key = request_key("codegen", [{"role": "user", "content": "héllo {x}"}], 0.7)
    assert key == "a25c0b47b3c09049c6fb030bc0e5d433d19867271642e809071ba6b003b165fe"


# --- scripted ----------------------------------------------------------


def test_scripted_pops_per_phase_in_order():
    backend = ScriptedBackend({"codegen": ["a", "b"], "step_extraction": ["s"]})
    assert backend.complete("codegen", MSGS, 0.0).text == "a"
    assert backend.complete("step_extraction", MSGS, 0.0).text == "s"
    assert backend.complete("codegen", MSGS, 0.0).text == "b"
    assert backend.remaining("codegen") == 0


def test_scripted_serves_each_phase_first_in_first_out():
    backend = ScriptedBackend({"codegen": ["a", "b", "c", "d"]})
    texts = [
        backend.complete("codegen", MSGS, 0.7, sample_index=s).text
        for s in (2, 0, 1)  # the sample index picks no item
    ]
    assert texts == ["a", "b", "c"]
    assert backend.remaining("codegen") == 1
    assert backend.complete("codegen", MSGS, 0.7, sample_index=2).text == "d"
    assert backend.remaining("codegen") == 0


def test_scripted_serves_each_item_once_to_threads_sharing_it():
    # more threads than cores, switching often: no item is served twice or
    # lost, and exhaustion is still a BackendError
    backend = ScriptedBackend({"codegen": list(range(2000))})
    served, errors = [], []

    def take():
        for _ in range(300):
            try:
                served.append(int(backend.complete("codegen", MSGS, 0.0).text))
            except BackendError:
                errors.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(served) == list(range(2000))
    assert len(errors) == 8 * 300 - 2000
    assert backend.remaining("codegen") == 0


def test_scripted_exhaustion_is_error():
    backend = ScriptedBackend({"codegen": []})
    with pytest.raises(BackendError, match="exhausted"):
        backend.complete("codegen", MSGS, 0.0)
    with pytest.raises(BackendError):
        backend.complete("unknown_phase", MSGS, 0.0)


def test_scripted_accepts_full_responses():
    canned = ChatResponse(text="x", usage={"total_tokens": 9})
    backend = ScriptedBackend({"codegen": [canned]})
    assert backend.complete("codegen", MSGS, 0.0).usage == {"total_tokens": 9}
    assert backend.deterministic


# --- http --------------------------------------------------------------


def test_http_posts_model_messages_temperature():
    fake = FakeTransport([(200, ok_body("fine"))])
    backend = HttpBackend(http_config(), transport=fake, sleep=lambda s: None)
    response = backend.complete("codegen", MSGS, 0.25)
    assert response.text == "fine"
    url, headers, payload = fake.requests[0]
    assert url == "http://unit.test/v1/chat/completions"
    assert payload == {"model": "test-model", "messages": MSGS, "temperature": 0.25}
    assert not backend.deterministic


def test_http_api_key_comes_from_named_env_var(monkeypatch):
    monkeypatch.setenv("MY_KEY_VAR", "sk-secret")
    fake = FakeTransport([(200, ok_body("ok"))])
    backend = HttpBackend(
        http_config(api_key_env="MY_KEY_VAR"), transport=fake, sleep=lambda s: None
    )
    backend.complete("codegen", MSGS, 0.0)
    assert fake.requests[0][1]["Authorization"] == "Bearer sk-secret"


def test_http_retries_on_429_500_and_transport_errors():
    fake = FakeTransport(
        [(429, ""), (500, "boom"), ConnectionError("reset"), (200, ok_body("done"))]
    )
    sleeps = []
    backend = HttpBackend(
        http_config(max_retries=3), transport=fake, sleep=sleeps.append
    )
    response = backend.complete("codegen", MSGS, 0.0)
    assert response.text == "done"
    assert fake.calls == 4
    assert len(sleeps) == 3


def test_http_backoff_doubles_with_bounded_jitter():
    fake = FakeTransport([(503, "")] * 3 + [(200, ok_body("ok"))])
    sleeps = []
    backend = HttpBackend(
        http_config(max_retries=3), transport=fake, sleep=sleeps.append
    )
    backend.complete("codegen", MSGS, 0.0)
    assert 1.0 <= sleeps[0] <= 1.25
    assert 2.0 <= sleeps[1] <= 2.25
    assert 4.0 <= sleeps[2] <= 4.25


def test_http_auth_failures_do_not_retry():
    for status in (401, 403):
        fake = FakeTransport([(status, "")])
        backend = HttpBackend(http_config(), transport=fake, sleep=lambda s: None)
        with pytest.raises(BackendError, match="authentication"):
            backend.complete("codegen", MSGS, 0.0)
        assert fake.calls == 1


def test_http_gives_up_after_max_retries():
    fake = FakeTransport([(503, "")] * 4)
    backend = HttpBackend(
        http_config(max_retries=3), transport=fake, sleep=lambda s: None
    )
    with pytest.raises(BackendError, match="gave up after 4 attempts"):
        backend.complete("codegen", MSGS, 0.0)


def test_http_unexpected_status_is_immediate_error():
    fake = FakeTransport([(404, "nope")])
    backend = HttpBackend(http_config(), transport=fake, sleep=lambda s: None)
    with pytest.raises(BackendError, match="404"):
        backend.complete("codegen", MSGS, 0.0)
    assert fake.calls == 1


def test_http_malformed_body_is_error():
    fake = FakeTransport([(200, "{not json")])
    backend = HttpBackend(http_config(), transport=fake, sleep=lambda s: None)
    with pytest.raises(BackendError, match="malformed"):
        backend.complete("codegen", MSGS, 0.0)


@pytest.mark.parametrize("content", [None, 7, ["a"]])
def test_http_content_that_is_not_text_is_error(content):
    # an OpenAI-compatible server sends null content for a filtered completion
    body = json.dumps({"choices": [{"message": {"content": content}}]})
    fake = FakeTransport([(200, body)])
    backend = HttpBackend(http_config(), transport=fake, sleep=lambda s: None)
    with pytest.raises(BackendError, match="malformed completion body"):
        backend.complete("codegen", MSGS, 0.0)
    assert fake.calls == 1


def test_http_endpoint_not_doubled():
    backend = HttpBackend(
        http_config(endpoint_url="http://unit.test/v1/chat/completions/"),
        transport=FakeTransport([]),
        sleep=lambda s: None,
    )
    assert backend._endpoint() == "http://unit.test/v1/chat/completions"


def test_http_requires_endpoint_and_model():
    with pytest.raises(BackendError):
        HttpBackend(BackendConfig(kind="http", model="m"))
    with pytest.raises(BackendError):
        HttpBackend(BackendConfig(kind="http", endpoint_url="http://x"))


# --- replay ------------------------------------------------------------


def test_record_then_replay_round_trip(tmp_path):
    path = tmp_path / "replay.jsonl"
    inner = ScriptedBackend(
        {
            "codegen": [
                ChatResponse(text="first"),
                ChatResponse(text="second", usage={"total_tokens": 11}),
            ]
        }
    )
    recorder = ReplayBackend({}, inner, path)
    recorder.complete("codegen", MSGS, 0.7, sample_index=0)
    recorder.complete("codegen", MSGS, 0.7, sample_index=1)

    replay = ReplayBackend.from_path(path)
    assert replay.deterministic
    first = replay.complete("codegen", MSGS, 0.7, sample_index=0)
    second = replay.complete("codegen", MSGS, 0.7, sample_index=1)
    assert first.text == "first"
    assert first.usage is None  # absent usage survives the round trip
    assert dataclasses.asdict(first) == {"text": "first", "usage": None}  # no timing
    assert second.text == "second"
    assert second.usage == {"total_tokens": 11}


def test_replay_miss_is_error(tmp_path):
    path = tmp_path / "replay.jsonl"
    recorder = ReplayBackend({}, ScriptedBackend({"codegen": ["x"]}), path)
    recorder.complete("codegen", MSGS, 0.0)
    replay = ReplayBackend.from_path(path)
    with pytest.raises(ReplayMissError):
        replay.complete("codegen", MSGS, 0.5)
    with pytest.raises(ReplayMissError):
        replay.complete("codegen", MSGS, 0.0, sample_index=3)
    with pytest.raises(ReplayMissError):
        replay.complete("codegen", [{"role": "user", "content": "other"}], 0.0)


def test_store_sends_only_misses_and_appends_each_answer(tmp_path):
    path = tmp_path / "store.jsonl"
    inner = ScriptedBackend({"codegen": ["first", "second"]})
    store = ReplayBackend({}, inner, path, model="m")
    assert not store.in_memory and not store.deterministic
    assert store.complete("codegen", MSGS, 0.0).text == "first"
    assert store.complete("codegen", MSGS, 0.0).text == "first"  # a hit
    assert inner.remaining("codegen") == 1
    (line,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert line == {
        "key": request_key("codegen", MSGS, 0.0), "model": "m", "phase": "codegen",
        "request_messages": MSGS, "temperature": 0.0, "sample_index": 0,
        "response_text": "first", "usage": None,
    }

    reopened = ReplayBackend.from_path(path, inner, model="m")
    assert not reopened.in_memory and not reopened.deterministic
    assert reopened.complete("codegen", MSGS, 0.0).text == "first"
    assert reopened.complete("codegen", MSGS, 0.5).text == "second"
    assert len(path.read_text().splitlines()) == 2
    missing = ReplayBackend.from_path(tmp_path / "new.jsonl", inner, model="m")
    with pytest.raises(BackendError, match="exhausted"):
        missing.complete("codegen", MSGS, 0.0)
    assert not (tmp_path / "new.jsonl").exists()


def test_replay_skips_lines_of_another_model(tmp_path):
    path = tmp_path / "replay.jsonl"
    entries = [
        {"key": request_key("codegen", MSGS, 0.0), "response_text": "any model"},
        {"key": request_key("codegen", MSGS, 0.5), "response_text": "other",
         "model": "other"},
        {"key": request_key("codegen", MSGS, 0.7), "response_text": "mine",
         "model": "m"},
    ]
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    replay = ReplayBackend.from_path(path, model="m")
    assert replay.complete("codegen", MSGS, 0.0).text == "any model"
    assert replay.complete("codegen", MSGS, 0.7).text == "mine"
    with pytest.raises(ReplayMissError):
        replay.complete("codegen", MSGS, 0.5)
    every = ReplayBackend.from_path(path)  # no model: every line
    assert every.complete("codegen", MSGS, 0.5).text == "other"


def test_replay_malformed_line_fails_at_load(tmp_path):
    path = tmp_path / "replay.jsonl"
    for line in [
        '{"key": "deadbeef"}',
        '{"key": ["a"], "response_text": "x"}',
        '{"key": "deadbeef", "response_text": 5}',
    ]:
        path.write_text(line + "\n")
        with pytest.raises(BackendError, match="malformed"):
            ReplayBackend.from_path(path)


def test_loaded_replay_keeps_no_request_messages(tmp_path):
    path = tmp_path / "replay.jsonl"
    messages = [{"role": "user", "content": "a prompt only the request holds"}]
    recorder = ReplayBackend({}, ScriptedBackend({"codegen": ["answer"]}), path)
    recorder.complete("codegen", messages, 0.0)
    assert b"a prompt only the request holds" in path.read_bytes()
    replay = ReplayBackend.from_path(path)
    assert b"a prompt only the request holds" not in pickle.dumps(replay)
    assert replay.complete("codegen", messages, 0.0) == ChatResponse("answer")


def test_replay_last_duplicate_wins(tmp_path):
    path = tmp_path / "replay.jsonl"
    key = request_key("codegen", MSGS, 0.0)
    entries = [
        {"key": key, "sample_index": 0, "response_text": "old"},
        {"key": key, "sample_index": 0, "response_text": "new"},
    ]
    path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    replay = ReplayBackend.from_path(path)
    assert replay.complete("codegen", MSGS, 0.0).text == "new"


# --- factory and config ------------------------------------------------


def test_make_backend_dispatch(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text("")
    replay = make_backend(BackendConfig(kind="replay", replay_path=str(path)))
    assert isinstance(replay, ReplayBackend)
    http = make_backend(http_config())
    assert isinstance(http, HttpBackend)
    store = make_backend(http_config(replay_path=str(tmp_path / "store.jsonl")))
    assert isinstance(store, ReplayBackend) and isinstance(store.inner, HttpBackend)
    with pytest.raises(BackendError, match="replay_path"):
        make_backend(BackendConfig(kind="replay"))
    for kind in ("scripted", "carrier-pigeon"):
        with pytest.raises(BackendError, match="unknown backend kind"):
            make_backend(BackendConfig(kind=kind))
