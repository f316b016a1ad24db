import json
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
