"""Per-instance orchestration: prompts -> completions -> script -> verdict.

Modes:

* ``titan``: input extraction and step extraction run first, in parallel,
  then code generation consumes both raw outputs.
* ``titan_no_input`` / ``titan_no_steps``: ablations that drop exactly one
  of the two auxiliary phases.
* ``pal_zs``: a single prompt asking for a completed ``solution()``.

``run_self_consistency`` (also named ``run_instance``) is the one
per-instance path: it runs the whole phase set ``samples_k`` times and
majority-votes the normalized answers, k=1 included. It never raises;
every outcome lands in an ``EvalRecord`` with one failure class. The
samples run at once and only the vote waits for them: sample 0 on the
calling thread, samples 1..k-1 on a work pool. A sample builds its
auxiliary prompts on its own thread, sends the first phase's request
itself and the others through the same pool, and keeps transcripts and
errors in phase order. A backend that declares ``in_memory`` (replay,
scripted) answers faster than a hand-off to a pool thread, so for it the
sample sends every auxiliary phase itself, in phase order, and the pool
gets only samples 1..k-1. A sample returns only after every request it
sent ended.

A run has two thread pools. ``run_many``'s instance pool of
``concurrency`` workers (at concurrency 1, the caller's thread) runs
``run_self_consistency`` once per instance. Its work pool has
``concurrency * (k*max(len(aux), 1) - 1)`` workers: exactly the most
sample and phase tasks that the in-flight instances can have
outstanding, so no task ever queues behind one that waits on it
(``_work_pool`` gives the argument). A direct per-instance call without
a pool makes one of ``max(k*max(len(aux), 1) - 1, 1)`` workers for its
own duration. ``concurrency`` is the only limit on a run: at most
``concurrency * k`` guests run at once, and at most
``concurrency * k * max(len(aux), 1)`` requests are in flight, one per
thread of the two pools; ``concurrency * k`` with an ``in_memory``
backend.

Guests run through one ``executor.Helper`` per run: ``run_many`` owns it
for all its instances, and a direct per-instance call owns one for its
own duration. The helper starts on the run's first guest and is closed
when the run ends.

Records carry no timing, so a replayed run serializes byte-for-byte
whichever backend recorded it. The pipeline times each request and each
instance itself, for every backend, and keeps the figures on the
record's in-memory ``timing`` dict, which ``to_json_dict`` leaves out.
"""

from __future__ import annotations

import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from . import codeproc, executor, prompts, scoring
from .backend import BackendError

# Auxiliary phases of each mode, in transcript order; code generation
# always follows them.
_AUX_PHASES = {
    "titan": (prompts.PHASE_INPUT, prompts.PHASE_STEPS),
    "titan_no_input": (prompts.PHASE_STEPS,),
    "titan_no_steps": (prompts.PHASE_INPUT,),
    "pal_zs": (),
}

MODES = tuple(_AUX_PHASES)

PHASES_PER_MODE = {mode: len(aux) + 1 for mode, aux in _AUX_PHASES.items()}

FAILURE_CLASSES = (
    "none",
    "no_code",
    "exec_error",
    "timeout",
    "no_answer",
    "mismatch",
    "backend_error",
)

class ConfigError(ValueError):
    """A run configuration value is out of range or inconsistent."""


@dataclass
class RunConfig:
    mode: str = "titan"
    temperature: float = 0.0
    samples_k: int = 1
    exec_timeout_s: float = executor.DEFAULT_TIMEOUT_S
    concurrency: int = 1
    case_sensitive: bool = False
    system_prompt: Optional[str] = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.samples_k < 1:
            raise ConfigError("samples_k must be >= 1")
        if not 0.0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be finite and >= 0")
        if self.samples_k > 1 and not self.temperature > 0.0:
            raise ConfigError("samples_k > 1 requires temperature > 0")
        if not 0 < self.exec_timeout_s <= executor.MAX_TIMEOUT_S:
            raise ConfigError(
                f"exec_timeout_s must be positive and at most {executor.MAX_TIMEOUT_S}"
            )
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")


@dataclass
class EvalRecord:
    instance_id: str
    dataset: str
    mode: str
    transcripts: "list[dict]" = field(default_factory=list)
    script: Optional[dict] = None
    outcome: Optional[dict] = None
    predicted: Optional[str] = None
    correct: bool = False
    failure_class: str = "none"
    sample_answers: "list" = field(default_factory=list)
    error: Optional[str] = None
    # instance_id, wall_ms, latency_ms per transcript and guest_ms per
    # sample (None where no guest ran), in float ms; never serialized
    timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "instance_id": self.instance_id,
            "dataset": self.dataset,
            "mode": self.mode,
            "transcripts": self.transcripts,
            "script": self.script,
            "outcome": self.outcome,
            "predicted": self.predicted,
            "correct": self.correct,
            "failure_class": self.failure_class,
            "sample_answers": self.sample_answers,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class _SampleResult:
    transcripts: "list[dict]" = field(default_factory=list)
    script: Optional[dict] = None
    outcome: Optional[dict] = None
    answer: Optional[scoring.Answer] = None
    failure_class: str = "none"
    error: Optional[str] = None
    latency_ms: "list[float]" = field(default_factory=list)
    guest_ms: Optional[float] = None


def _complete_phase(backend, phase, prompt_text, config, sample_index):
    """The phase's transcript and its request's latency in ms."""
    messages = prompts.messages_for(prompt_text, system=config.system_prompt)
    start = time.monotonic()
    response = backend.complete(
        phase, messages, config.temperature, sample_index=sample_index
    )
    latency_ms = (time.monotonic() - start) * 1000.0
    transcript = {
        "phase": phase,
        "request_messages": messages,
        "response_text": response.text,
        "usage": response.usage,
    }
    return transcript, latency_ms


class _Done:
    """``fn(*args)`` called on this thread, read like a pool's done future.

    ``result()`` returns the call's value or raises its error. Lighter than
    a ``Future``, which makes a lock that nothing here waits on.
    """

    __slots__ = ("_value", "_error")

    def __init__(self, fn, *args):
        self._value = self._error = None
        try:
            self._value = fn(*args)
        except Exception as exc:  # kept for result() to raise, as a pool does
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def _run_sample(
    instance, backend, config: RunConfig, library, sample_index: int, helper, pool
) -> _SampleResult:
    result = _SampleResult()
    question = instance.prompt

    aux = _AUX_PHASES[config.mode]
    builders = {
        prompts.PHASE_INPUT: prompts.build_input_extraction,
        prompts.PHASE_STEPS: prompts.build_step_extraction,
    }
    try:
        # Prompts are built on this thread. A backend that answers in memory
        # answers faster than a hand-off to the pool, so this thread sends
        # every phase, in phase order. Otherwise it sends the first while
        # the pool sends the others.
        calls = [
            (backend, phase, builders[phase](question, library), config, sample_index)
            for phase in aux
        ]
        here = len(aux) if getattr(backend, "in_memory", False) else 1
        pooled = [pool.submit(_complete_phase, *call) for call in calls[here:]]
        try:
            answered = [_Done(_complete_phase, *call) for call in calls[:here]]
        finally:
            # no request of this sample outlives it, even when one failed
            wait(pooled)
        # read in phase order, which raises the first failed phase's error
        # before any transcript is kept
        for transcript, latency_ms in [f.result() for f in answered + pooled]:
            result.transcripts.append(transcript)
            result.latency_ms.append(latency_ms)
        aux_out = dict(zip(aux, result.transcripts))

        if config.mode == "pal_zs":
            codegen_prompt = prompts.build_pal_zs(question, library)
        else:
            codegen_prompt = prompts.build_codegen(
                question,
                library,
                steps=aux_out.get(prompts.PHASE_STEPS, {}).get("response_text"),
                inputs=aux_out.get(prompts.PHASE_INPUT, {}).get("response_text"),
            )
        codegen, latency_ms = _complete_phase(
            backend, prompts.PHASE_CODEGEN, codegen_prompt, config, sample_index
        )
        result.transcripts.append(codegen)
        result.latency_ms.append(latency_ms)
    except BackendError as exc:
        result.failure_class = "backend_error"
        result.error = str(exc)
        return result
    except Exception as exc:  # orchestration bug; still no exception escapes
        result.failure_class = "backend_error"
        result.error = f"{type(exc).__name__}: {exc}"
        return result

    script = codeproc.process_response(codegen["response_text"])
    result.script = script.to_json_dict()
    if script.error == codeproc.ERROR_NO_CODE:
        result.failure_class = "no_code"
        return result
    if script.repaired is None:
        # needs_arguments / unrepairable: no point spawning a process
        result.failure_class = "exec_error"
        return result

    outcome = executor.execute(
        script.repaired, timeout_s=config.exec_timeout_s, helper=helper
    )
    result.outcome = outcome.to_json_dict()
    result.guest_ms = outcome.wall_ms
    if outcome.exit == "timeout":
        result.failure_class = "timeout"
        return result
    if outcome.exit in ("nonzero", "spawn_error"):
        result.failure_class = "exec_error"
        return result

    answer = scoring.extract_answer(
        outcome.stdout, instance.gold.kind, case_sensitive=config.case_sensitive
    )
    if answer is None:
        result.failure_class = "no_answer"
        return result
    result.answer = answer
    result.failure_class = "none"
    return result


def _work_pool(config: RunConfig, instances: int = 1) -> ThreadPoolExecutor:
    """The pool for the samples and auxiliary phases of ``instances`` at once.

    A sample's thread sends its first auxiliary phase itself, so an
    in-flight instance has at most k-1 samples and k*(len(aux)-1) phases
    outstanding here: k*max(len(aux), 1)-1 tasks, one fewer than the
    requests it can have in flight. A task only ever waits on tasks of its
    own instance. With a worker for every task that in-flight instances
    can have outstanding, no task queues behind one that waits on it, so
    the pool cannot deadlock. The size is an upper bound: threads start on
    submit, and only when no started thread is idle. A sample of an
    ``in_memory`` backend submits no phase, so a run on one at k=1 starts
    no thread here at all.
    """
    per_instance = config.samples_k * max(len(_AUX_PHASES[config.mode]), 1) - 1
    return ThreadPoolExecutor(max_workers=max(instances * per_instance, 1))


def run_self_consistency(
    instance, backend, config: RunConfig, library=None, helper=None, pool=None
) -> EvalRecord:
    """Run ``config.samples_k`` samples of ``instance`` and vote on the answers.

    Sample 0 runs on the calling thread; the others, and each sample's
    auxiliary phases after its first unless the backend is ``in_memory``,
    run on ``pool``, or on a pool made for this call when it is None (see
    ``_work_pool``). The answer most samples agree on wins; a tie goes to
    the earliest sample. When no sample yields an answer, the record keeps
    the first sample's script, outcome and error, and its failure class is
    that sample's own at k=1 and ``no_answer`` at k>1.
    """
    if library is None:
        library = prompts.load_templates()
    config.validate()
    start = time.monotonic()
    with executor.helper_scope(helper) as helper, (
        _work_pool(config) if pool is None else contextlib.nullcontext(pool)
    ) as pool:
        others = [
            pool.submit(_run_sample, instance, backend, config, library, i, helper, pool)
            for i in range(1, config.samples_k)
        ]
        samples = [_run_sample(instance, backend, config, library, 0, helper, pool)]
        samples += [f.result() for f in others]
    record = EvalRecord(
        instance_id=instance.id,
        dataset=instance.dataset,
        mode=config.mode,
    )
    for sample in samples:
        record.transcripts.extend(sample.transcripts)
    record.sample_answers = [
        s.answer.canonical if s.answer is not None else None for s in samples
    ]

    counts: "dict[str, int]" = {}
    for s in samples:
        if s.answer is not None:
            counts[s.answer.canonical] = counts.get(s.answer.canonical, 0) + 1
    if not counts:
        # every sample failed; keep the first sample's artifacts for debugging
        record.script = samples[0].script
        record.outcome = samples[0].outcome
        record.error = samples[0].error
        record.failure_class = (
            samples[0].failure_class if len(samples) == 1 else "no_answer"
        )
    else:
        best = max(counts.values())
        winner_sample = next(
            s
            for s in samples
            if s.answer is not None and counts[s.answer.canonical] == best
        )
        record.script = winner_sample.script
        record.outcome = winner_sample.outcome
        record.predicted = winner_sample.answer.canonical
        record.correct = scoring.is_match(
            winner_sample.answer, instance.gold, case_sensitive=config.case_sensitive
        )
        record.failure_class = "none" if record.correct else "mismatch"
    record.timing = {
        "instance_id": instance.id,
        "wall_ms": (time.monotonic() - start) * 1000.0,
        "latency_ms": [ms for s in samples for ms in s.latency_ms],
        "guest_ms": [s.guest_ms for s in samples],
    }
    return record


run_instance = run_self_consistency


def run_many(
    instances: Iterable, backend, config: RunConfig, library=None
) -> Iterator[EvalRecord]:
    """Run every instance, yielding records in submission order.

    All guests run through one helper, closed when the generator is
    exhausted or closed.
    """
    if library is None:
        library = prompts.load_templates()
    config.validate()
    instances = list(instances)
    # the work pool closes, waiting for its tasks, before the helper does
    with executor.Helper() as helper, _work_pool(config, config.concurrency) as work:
        if config.concurrency <= 1:
            for instance in instances:
                yield run_self_consistency(
                    instance, backend, config, library, helper, work
                )
            return
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            yield from pool.map(
                lambda inst: run_self_consistency(
                    inst, backend, config, library, helper, work
                ),
                instances,
            )
