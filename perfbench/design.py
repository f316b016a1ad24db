"""Seeded inputs for the benchmark workloads and the outcome each must give.

Every instance gets a designed model response before the program sees it.
The design fixes the record the program must write for that instance:
its ``failure_class`` and its ``predicted`` answer. The oracle is written
here, from the design alone; it never asks the program what it would do.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from decimal import Decimal

from titan import backend, prompts, taskgen

AUX_INPUT_TEXT = "Inputs: the question names every value the program needs."
AUX_STEPS_TEXT = "1. Read the values from the question.\n2. Compute the answer.\n3. Return it."
NO_CODE_TEXT = "I am not able to write a program for this question."


@dataclass(frozen=True)
class Kind:
    """One designed response class: how it is written and what it must give."""

    name: str
    failure_class: str  # the record's failure_class
    answer: str  # "gold", "wrong" or "none": what ``predicted`` holds


KINDS = {
    k.name: k
    for k in (
        Kind("correct", "none", "gold"),
        Kind("bare", "none", "gold"),  # unfenced -> bare_heuristic
        Kind("flush_left", "none", "gold"),  # -> indent_fixed
        Kind("missing_import", "none", "gold"),  # -> imports_injected
        Kind("mismatch", "mismatch", "wrong"),
        Kind("raises", "exec_error", "none"),
        Kind("timeout", "timeout", "none"),
        Kind("no_code", "no_code", "none"),
        Kind("needs_arguments", "exec_error", "none"),
        Kind("unrepairable", "exec_error", "none"),
    )
}


def _literal(gold, wrong: bool = False) -> str:
    """Python literal of the gold answer, or of a fixed wrong answer."""
    value = gold.value
    if gold.kind == "number":
        number = Decimal(str(value)) + (1 if wrong else 0)
        return str(number)
    if gold.kind == "binary":
        bit = int(str(value))
        return str(1 - bit if wrong else bit)
    if gold.kind == "list":
        return repr(list(value) + (["zzz"] if wrong else []))
    return repr(str(value) + ("zz" if wrong else ""))


def _canonical(gold, wrong: bool = False) -> str:
    """The ``predicted`` string the program must record for that literal."""
    value = gold.value
    if gold.kind == "number":
        number = (Decimal(str(value)) + (1 if wrong else 0)).normalize()
        if number == number.to_integral_value():
            return str(int(number))
        return format(number, "f")
    if gold.kind == "binary":
        bit = int(str(value))
        return str(1 - bit if wrong else bit)
    if gold.kind == "list":
        items = list(value) + (["zzz"] if wrong else [])
        return ",".join(str(item).strip().casefold() for item in items)
    return (str(value) + ("zz" if wrong else "")).strip().casefold()


def codegen_response(kind: str, gold) -> str:
    """Model text for one designed codegen response."""
    lit = _literal(gold, wrong=kind == "mismatch")
    if kind in ("correct", "mismatch"):
        return f"```python\ndef solution():\n    return {lit}\n```"
    if kind == "bare":
        return (
            "Here is a program that answers the question.\n\n"
            f"def solution():\n    return {lit}\n\nIt returns the answer."
        )
    if kind == "flush_left":
        return f"```python\ndef solution():\nreturn {lit}\n```"
    if kind == "missing_import":
        return f"```python\ndef solution():\n    assert math.pi > 3\n    return {lit}\n```"
    if kind == "raises":
        return "```python\ndef solution():\n    raise ValueError('no answer')\n```"
    if kind == "timeout":
        return "```python\nimport time\n\ndef solution():\n    time.sleep(60)\n    return 0\n```"
    if kind == "no_code":
        return NO_CODE_TEXT
    if kind == "needs_arguments":
        return "```python\ndef solution(words):\n    return len(words)\n```"
    if kind == "unrepairable":
        return "```python\ndef solution(:\n    return 0\n```"
    raise ValueError(f"unknown response kind {kind!r}")


def expected(instance, kinds: "list[str]") -> dict:
    """Designed record fields for an instance whose samples got ``kinds``.

    With one sample the kind decides. With several, only samples that give
    an answer vote; this benchmark never mixes answers, so the vote is
    unanimous, and a run where no sample answers records ``no_answer``.
    """
    if len(kinds) == 1:
        kind = KINDS[kinds[0]]
        predicted = {
            "gold": _canonical(instance.gold),
            "wrong": _canonical(instance.gold, wrong=True),
            "none": None,
        }[kind.answer]
        return {"failure_class": kind.failure_class, "predicted": predicted}
    answers = {KINDS[k].answer for k in kinds} - {"none"}
    if answers - {"gold"}:
        raise ValueError("multi-sample designs must not mix answers")
    if answers:
        return {"failure_class": "none", "predicted": _canonical(instance.gold)}
    return {"failure_class": "no_answer", "predicted": None}


def generate_pool(seed: int, per_dataset: int) -> "tuple[list, float]":
    """Instances from all four datasets, interleaved in equal shares.

    Returns the instances and the milliseconds spent in ``taskgen.generate``.
    """
    corpus = taskgen.WordCorpus.bundled()
    start = time.perf_counter()
    columns = [
        taskgen.generate(dataset, per_dataset, seed, corpus)
        for dataset in taskgen.DATASETS
    ]
    generate_ms = (time.perf_counter() - start) * 1000.0
    pool = [inst for row in zip(*columns) for inst in row]
    return pool, generate_ms


def assign(rng: random.Random, count: int, shares: "dict[str, int]") -> "list[str]":
    """Exactly ``shares[kind]`` of each kind per ``sum(shares)`` slots, shuffled."""
    period = sum(shares.values())
    if count % period:
        raise ValueError(f"batch size {count} is not a multiple of {period}")
    kinds = []
    for _ in range(count // period):
        block = [k for k, n in sorted(shares.items()) for _ in range(n)]
        rng.shuffle(block)
        kinds.extend(block)
    return kinds


def _phase_prompts(question: str, library) -> "tuple[str, str, str]":
    """The input, steps and codegen prompts titan builds for a question."""
    return (
        prompts.build_input_extraction(question, library),
        prompts.build_step_extraction(question, library),
        prompts.build_codegen(question, library, steps=AUX_STEPS_TEXT, inputs=AUX_INPUT_TEXT),
    )


def _replay_line(phase: str, prompt_text: str, text: str) -> str:
    messages = prompts.messages_for(prompt_text)
    return json.dumps(
        {
            "key": backend.request_key(phase, messages, 0.0),
            "phase": phase,
            "request_messages": messages,
            "temperature": 0.0,
            "sample_index": 0,
            "response_text": text,
            "usage": None,
        },
        sort_keys=True,
    )


def write_replay_batch(instances, kinds, library, instances_path, replay_path) -> "list[dict]":
    """Write a `titan run` input file and its replay file; return the oracle.

    Each instance gets fixed auxiliary-phase answers and one codegen
    response of its designed kind, keyed the way a recorded run keys them.
    """
    taskgen.write_jsonl(instances, instances_path)
    oracle = []
    with open(replay_path, "w", encoding="utf-8") as fh:
        for inst, kind in zip(instances, kinds):
            input_prompt, steps_prompt, codegen_prompt = _phase_prompts(inst.prompt, library)
            for phase, prompt_text, text in (
                (prompts.PHASE_INPUT, input_prompt, AUX_INPUT_TEXT),
                (prompts.PHASE_STEPS, steps_prompt, AUX_STEPS_TEXT),
                (prompts.PHASE_CODEGEN, codegen_prompt, codegen_response(kind, inst.gold)),
            ):
                fh.write(_replay_line(phase, prompt_text, text) + "\n")
            oracle.append(
                {"instance_id": inst.id, "dataset": inst.dataset, "kind": kind,
                 **expected(inst, [kind])}
            )
    return oracle


def _completion_body(text: str, prompt_text: str) -> str:
    """An OpenAI-format chat completion body, as a live endpoint returns it."""
    return json.dumps(
        {
            "object": "chat.completion",
            "model": "bench-model",
            "choices": [
                {"index": 0, "finish_reason": "stop",
                 "message": {"role": "assistant", "content": text}}
            ],
            "usage": {
                "prompt_tokens": len(prompt_text) // 4,
                "completion_tokens": len(text) // 4,
                "total_tokens": (len(prompt_text) + len(text)) // 4,
            },
        }
    )


def api_table(instances, sample_kinds, library, rng, error_share):
    """Canned answers for the simulated endpoint, and the oracle.

    Returns ``(bodies, errors, oracle)``. ``bodies`` maps a prompt to the
    completion bodies of its first, second and third request, in sample
    order. ``errors`` maps ``(prompt, request index)`` to the 429 or 503
    status that request gets once before it succeeds; it holds
    ``error_share`` of all requests, chosen by ``rng``.
    """
    bodies = {}
    oracle = []
    for inst, kinds in zip(instances, sample_kinds):
        input_prompt, steps_prompt, codegen_prompt = _phase_prompts(inst.prompt, library)
        for prompt_text, text in ((input_prompt, AUX_INPUT_TEXT), (steps_prompt, AUX_STEPS_TEXT)):
            bodies[prompt_text] = [_completion_body(text, prompt_text)] * len(kinds)
        bodies[codegen_prompt] = [
            _completion_body(codegen_response(kind, inst.gold), codegen_prompt)
            for kind in kinds
        ]
        oracle.append(
            {"instance_id": inst.id, "dataset": inst.dataset, "kind": "+".join(kinds),
             **expected(inst, kinds)}
        )
    requests = [(p, i) for p in sorted(bodies) for i in range(len(bodies[p]))]
    chosen = rng.sample(requests, round(error_share * len(requests)))
    errors = {request: rng.choice((429, 503)) for request in chosen}
    return bodies, errors, oracle
