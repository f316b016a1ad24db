import glob
import json
import os
import signal
import tempfile
from collections import deque

import pytest

from titan import backend as backend_mod
from titan import prompts, taskgen
from titan.backend import BackendError, ChatResponse


@pytest.fixture(scope="session")
def corpus():
    return taskgen.WordCorpus.bundled()


@pytest.fixture(scope="session")
def library():
    return prompts.load_templates()


def _children() -> "list[int]":
    """Pids of this process's children, zombies included (Linux only)."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            pids += [int(pid) for pid in fh.read().split()]
    return pids


@pytest.fixture
def no_child_left_running():
    """Fail a test that leaves behind a child process of the test runner.

    Only children born while the test runs count, so the helper of a
    module-scoped fixture, started at its set-up, is not one. Children left
    are killed and reaped first, so later tests start clean. Orphans, such
    as the guests of a helper a guest killed, are not children and are not
    seen.
    """
    before = set(_children())
    yield
    left = [pid for pid in _children() if pid not in before]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    assert not left, f"child processes left running: {left}"


def _pipes_and_sockets() -> "set[str]":
    """Targets of this process's open pipe and socket fds (Linux only)."""
    targets = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:
            continue  # the listing's own fd, closed since
        if target.startswith(("pipe:", "socket:")):
            targets.add(target)
    return targets


@pytest.fixture
def no_fd_left_open():
    """Fail a test that leaves a pipe or socket open in the test runner."""
    before = _pipes_and_sockets()
    yield
    left = _pipes_and_sockets() - before
    assert not left, f"pipes or sockets left open: {sorted(left)}"


@pytest.fixture
def no_run_dir_left(tmp_path, monkeypatch):
    """Make run dirs under ``tmp_path``; fail a test that leaves one there."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    yield
    left = glob.glob(os.path.join(tmp_path, "titan-exec-*"))
    assert not left, f"run dirs left: {left}"


def write_replay(path, entries):
    """entries: iterable of (phase, messages, temperature, sample_index, text)."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, messages, temperature, sample_index, text in entries:
            fh.write(
                json.dumps(
                    {
                        "key": backend_mod.request_key(phase, messages, temperature),
                        "phase": phase,
                        "request_messages": messages,
                        "temperature": temperature,
                        "sample_index": sample_index,
                        "response_text": text,
                        "usage": None,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


class ScriptedBackend:
    """Per-phase response queues, first in first out.

    Exhaustion is an error. The pipeline sends an instance's requests of a
    phase in sample order, so with k samples, sample s gets the s-th of
    the phase's next k items.
    """

    deterministic = True
    in_memory = True

    def __init__(self, responses: "dict[str, list]"):
        self._queues = {phase: deque(items) for phase, items in responses.items()}

    def complete(self, phase, messages, temperature, sample_index=0) -> ChatResponse:
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


def literal_solution_code(gold) -> str:
    """A fenced script whose solution() returns the gold answer as a literal."""
    value = gold.value
    if gold.kind == "number":
        text = str(value)
        literal = text if "." in text or "e" in text.lower() else str(int(text))
    elif gold.kind == "binary":
        literal = str(int(str(value)))
    elif gold.kind == "list":
        literal = repr(list(value))
    else:
        literal = repr(str(value))
    return f"```python\ndef solution():\n    return {literal}\n```"
