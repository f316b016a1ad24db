"""Per-instance orchestration: prompts -> completions -> script -> verdict.

Modes:

* ``titan``: input extraction and step extraction run first, in parallel,
  then code generation consumes both raw outputs.
* ``titan_no_input`` / ``titan_no_steps``: ablations that drop exactly one
  of the two auxiliary phases.
* ``pal_zs``: a single prompt asking for a completed ``solution()``.

``run_self_consistency`` is the one per-instance path: it runs the whole
phase set ``samples_k`` times and majority-votes the normalized answers,
k=1 included. It never raises; every outcome lands in an ``EvalRecord``
with one failure class. The instance's thread runs its samples one phase
at a time: it builds each auxiliary prompt once and sends all k*len(aux)
auxiliary requests together, then the codegen request of each sample
whose auxiliary phases all answered, then it processes each response and
runs every runnable script. Each step ends only after all its calls
ended. A sample's error is its first failed phase's, in phase order.

A run has two thread pools. ``run_many``'s instance pool of
``concurrency`` workers (at concurrency 1, the caller's thread) runs
``run_self_consistency`` once per instance. Each task of its work pool
is one request or one guest (``_work_pool``). A step of one call runs
it on the instance's thread, and so does every request to an
``in_memory`` backend (a replay store with no live backend behind it),
which answers faster than a hand-off to a pool thread. ``concurrency``
is the only limit on a run: at most ``concurrency * k`` guests run at
once, and at most ``concurrency * k * max(len(aux), 1)`` requests are in
flight, or ``concurrency`` with an ``in_memory`` backend.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
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


def _attempt(fn, args):
    """``(fn(*args), None)``, or ``(None, error)`` when the call raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # returned, so every call of an _each list ends
        return None, exc


def _each(fn, calls, pool):
    """``_attempt(fn, args)`` for each ``args`` of ``calls``, in call order.

    Returns only after every call ended. The calls run at once on ``pool``
    when it is given and there is more than one; otherwise one after
    another on this thread.
    """
    if pool is None or len(calls) < 2:
        return [_attempt(fn, args) for args in calls]
    return list(pool.map(_attempt, repeat(fn), calls))


def _failed(sample: _SampleResult, exc: Exception) -> None:
    sample.failure_class = "backend_error"
    if isinstance(exc, BackendError):
        sample.error = str(exc)
    else:  # orchestration bug; still no exception escapes
        sample.error = f"{type(exc).__name__}: {exc}"


def _run_samples(
    instance, backend, config: RunConfig, library, helper, pool
) -> "list[_SampleResult]":
    k, question = config.samples_k, instance.prompt
    aux = _AUX_PHASES[config.mode]
    samples = [_SampleResult() for _ in range(k)]
    # a backend that answers in memory answers faster than a hand-off
    sender = None if getattr(backend, "in_memory", False) else pool
    builders = {
        prompts.PHASE_INPUT: prompts.build_input_extraction,
        prompts.PHASE_STEPS: prompts.build_step_extraction,
    }
    # every sample sends the same auxiliary prompts: each is built once, and
    # all k*len(aux) requests go at once, phase by phase, sample by sample
    calls = []
    try:
        for phase in aux:
            text = builders[phase](question, library)
            calls += [(backend, phase, text, config, s) for s in range(k)]
    except Exception as exc:
        for sample in samples:
            _failed(sample, exc)
        return samples
    answered = _each(_complete_phase, calls, sender)

    calls = []
    for s, sample in enumerate(samples):
        own = answered[s::k]  # the sample's phases, in phase order
        errors = [error for _, error in own if error is not None]
        if errors:
            _failed(sample, errors[0])  # and keeps no transcript
            continue
        for (transcript, latency_ms), _ in own:
            sample.transcripts.append(transcript)
            sample.latency_ms.append(latency_ms)
        out = {t["phase"]: t["response_text"] for t in sample.transcripts}
        try:
            if config.mode == "pal_zs":
                text = prompts.build_pal_zs(question, library)
            else:
                text = prompts.build_codegen(
                    question,
                    library,
                    steps=out.get(prompts.PHASE_STEPS),
                    inputs=out.get(prompts.PHASE_INPUT),
                )
        except Exception as exc:
            _failed(sample, exc)
            continue
        calls.append((backend, prompts.PHASE_CODEGEN, text, config, s))

    guests, scripts = [], []
    for call, (answer, error) in zip(calls, _each(_complete_phase, calls, sender)):
        sample = samples[call[-1]]
        if error is not None:
            _failed(sample, error)  # and keeps its auxiliary transcripts
            continue
        transcript, latency_ms = answer
        sample.transcripts.append(transcript)
        sample.latency_ms.append(latency_ms)
        script = codeproc.process_response(transcript["response_text"])
        sample.script = script.to_json_dict()
        if script.error == codeproc.ERROR_NO_CODE:
            sample.failure_class = "no_code"
        elif script.repaired is None:
            # needs_arguments / unrepairable: no point spawning a process
            sample.failure_class = "exec_error"
        else:
            guests.append(sample)
            scripts.append((script.repaired,))
    if not scripts:
        return samples

    execute = partial(executor.execute, timeout_s=config.exec_timeout_s, helper=helper)
    for sample, (outcome, error) in zip(guests, _each(execute, scripts, pool)):
        if error is not None:
            raise error  # execute reports a guest's failure in its outcome
        sample.outcome = outcome.to_json_dict()
        sample.guest_ms = outcome.wall_ms
        if outcome.exit == "timeout":
            sample.failure_class = "timeout"
        elif outcome.exit in ("nonzero", "spawn_error"):
            sample.failure_class = "exec_error"
        else:
            sample.answer = scoring.extract_answer(
                outcome.stdout, instance.gold.kind, case_sensitive=config.case_sensitive
            )
            if sample.answer is None:
                sample.failure_class = "no_answer"
    return samples


def _work_pool(config: RunConfig, instances: int = 1) -> ThreadPoolExecutor:
    """The pool for the requests and guests of ``instances`` at once.

    Each task is one request or one guest and waits on no other task, so
    the pool cannot deadlock at any size. An in-flight instance has at most
    k*max(len(aux), 1) tasks here at a time: its auxiliary requests, then
    its k codegen requests, then its k guests. The size lets every
    in-flight instance have them all running at once. It is an upper bound:
    threads start on submit, and only when no started thread is idle. An
    ``in_memory`` backend's requests and a lone guest run on the instance's
    own thread, so a replayed run at k=1 starts no thread here at all.
    """
    per_instance = config.samples_k * max(len(_AUX_PHASES[config.mode]), 1)
    return ThreadPoolExecutor(max_workers=instances * per_instance)


def run_self_consistency(
    instance, backend, config: RunConfig, library=None, helper=None, pool=None
) -> EvalRecord:
    """Run ``config.samples_k`` samples of ``instance`` and vote on the answers.

    The calling thread runs the samples one phase at a time and hands a
    phase's calls to ``pool``, or to a pool made for this call when it is
    None (see ``_work_pool``). The answer most samples agree on wins; a tie
    goes to the earliest sample. When no sample yields an answer, the
    record keeps the first sample's script, outcome and error, and its
    failure class is that sample's own at k=1 and ``no_answer`` at k>1.
    """
    if library is None:
        library = prompts.load_templates()
    config.validate()
    start = time.monotonic()
    with executor.helper_scope(helper) as helper, (
        _work_pool(config) if pool is None else contextlib.nullcontext(pool)
    ) as pool:
        samples = _run_samples(instance, backend, config, library, helper, pool)
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
