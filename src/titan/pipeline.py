"""Per-instance orchestration: prompts -> completions -> script -> verdict.

Modes:

* ``titan``: input extraction and step extraction run first (concurrently
  when allowed), then code generation consumes both raw outputs.
* ``titan_no_input`` / ``titan_no_steps``: ablations that drop exactly one
  of the two auxiliary phases.
* ``pal_zs``: a single prompt asking for a completed ``solution()``.

``run_instance`` never raises; every outcome lands in an ``EvalRecord``
with one failure class. Self-consistency repeats the whole phase set per
sample and majority-votes the normalized answers.

Guests run through one ``executor.Helper`` per run: ``run_many`` owns it
for all its instances, and a direct ``run_instance`` or
``run_self_consistency`` call owns one for its own duration. The helper
starts on the run's first guest and is closed when the run ends.

Backends that declare ``deterministic`` get their persisted timing fields
zeroed so a replayed run serializes byte-for-byte.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from . import codeproc, executor, prompts, scoring
from .backend import BackendError

MODES = ("titan", "titan_no_input", "titan_no_steps", "pal_zs")

FAILURE_CLASSES = (
    "none",
    "no_code",
    "exec_error",
    "timeout",
    "no_answer",
    "mismatch",
    "backend_error",
)

PHASES_PER_MODE = {
    "titan": 3,
    "titan_no_input": 2,
    "titan_no_steps": 2,
    "pal_zs": 1,
}


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
    phase_parallel: bool = True

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.samples_k < 1:
            raise ConfigError("samples_k must be >= 1")
        if self.samples_k > 1 and not self.temperature > 0.0:
            raise ConfigError("samples_k > 1 requires temperature > 0")
        if not self.exec_timeout_s > 0:
            raise ConfigError("exec_timeout_s must be positive")
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
    wall_ms: int = 0
    sample_answers: "list" = field(default_factory=list)
    error: Optional[str] = None

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
            "wall_ms": self.wall_ms,
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


def _transcript(phase: str, messages, response) -> dict:
    return {
        "phase": phase,
        "request_messages": messages,
        "response_text": response.text,
        "usage": response.usage,
        "latency_ms": response.latency_ms,
    }


def _complete_phase(backend, phase, prompt_text, config, sample_index):
    messages = prompts.messages_for(prompt_text, system=config.system_prompt)
    response = backend.complete(
        phase, messages, config.temperature, sample_index=sample_index
    )
    return _transcript(phase, messages, response)


def _auxiliary_phases(mode: str) -> "list[str]":
    if mode == "titan":
        return [prompts.PHASE_INPUT, prompts.PHASE_STEPS]
    if mode == "titan_no_input":
        return [prompts.PHASE_STEPS]
    if mode == "titan_no_steps":
        return [prompts.PHASE_INPUT]
    return []


def _run_sample(
    instance, backend, config: RunConfig, library, sample_index: int, helper
) -> _SampleResult:
    result = _SampleResult()
    question = instance.prompt

    aux = _auxiliary_phases(config.mode)
    builders = {
        prompts.PHASE_INPUT: prompts.build_input_extraction,
        prompts.PHASE_STEPS: prompts.build_step_extraction,
    }
    aux_out = {}
    try:
        if len(aux) > 1 and config.phase_parallel:
            with ThreadPoolExecutor(max_workers=len(aux)) as pool:
                futures = [
                    (
                        phase,
                        pool.submit(
                            _complete_phase,
                            backend,
                            phase,
                            builders[phase](question, library),
                            config,
                            sample_index,
                        ),
                    )
                    for phase in aux
                ]
                # collect in fixed phase order, not completion order, so
                # transcripts serialize identically to a sequential run
                for phase, future in futures:
                    aux_out[phase] = future.result()
        else:
            for phase in aux:
                aux_out[phase] = _complete_phase(
                    backend, phase, builders[phase](question, library), config,
                    sample_index,
                )
        for phase in aux:
            result.transcripts.append(aux_out[phase])

        if config.mode == "pal_zs":
            codegen_prompt = prompts.build_pal_zs(question, library)
        else:
            codegen_prompt = prompts.build_codegen(
                question,
                library,
                steps=aux_out.get(prompts.PHASE_STEPS, {}).get("response_text"),
                inputs=aux_out.get(prompts.PHASE_INPUT, {}).get("response_text"),
            )
        codegen = _complete_phase(
            backend, prompts.PHASE_CODEGEN, codegen_prompt, config, sample_index
        )
        result.transcripts.append(codegen)
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


def _zero_timing(record: EvalRecord) -> None:
    record.wall_ms = 0
    for transcript in record.transcripts:
        transcript["latency_ms"] = 0
    if record.outcome is not None:
        record.outcome["wall_ms"] = 0


def run_instance(
    instance, backend, config: RunConfig, library=None, helper=None
) -> EvalRecord:
    if library is None:
        library = prompts.load_templates()
    config.validate()
    start = time.monotonic()
    with executor.helper_scope(helper) as helper:
        sample = _run_sample(instance, backend, config, library, 0, helper)
    record = EvalRecord(
        instance_id=instance.id,
        dataset=instance.dataset,
        mode=config.mode,
        transcripts=sample.transcripts,
        script=sample.script,
        outcome=sample.outcome,
        error=sample.error,
    )
    if sample.answer is not None:
        record.predicted = sample.answer.canonical
        record.correct = scoring.is_match(
            sample.answer, instance.gold, case_sensitive=config.case_sensitive
        )
        record.failure_class = "none" if record.correct else "mismatch"
    else:
        record.failure_class = sample.failure_class
    record.sample_answers = [record.predicted]
    record.wall_ms = int((time.monotonic() - start) * 1000)
    if getattr(backend, "deterministic", False):
        _zero_timing(record)
    return record


def run_self_consistency(
    instance, backend, config: RunConfig, library=None, helper=None
) -> EvalRecord:
    if library is None:
        library = prompts.load_templates()
    config.validate()
    if config.samples_k == 1:
        return run_instance(instance, backend, config, library, helper)

    start = time.monotonic()
    with executor.helper_scope(helper) as helper:
        samples = [
            _run_sample(instance, backend, config, library, i, helper)
            for i in range(config.samples_k)
        ]
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
        record.failure_class = "no_answer"
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
    record.wall_ms = int((time.monotonic() - start) * 1000)
    if getattr(backend, "deterministic", False):
        _zero_timing(record)
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
    with executor.Helper() as helper:
        if config.concurrency <= 1:
            for instance in instances:
                yield run_self_consistency(instance, backend, config, library, helper)
            return
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            yield from pool.map(
                lambda inst: run_self_consistency(
                    inst, backend, config, library, helper
                ),
                instances,
            )
