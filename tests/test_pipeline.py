import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titan import pipeline, prompts
from titan.backend import (
    BackendConfig,
    BackendError,
    ChatResponse,
    HttpBackend,
    ReplayBackend,
    request_key,
)
from titan.executor import Helper
from titan.pipeline import (
    MODES,
    PHASES_PER_MODE,
    ConfigError,
    EvalRecord,
    RunConfig,
    run_many,
    run_self_consistency,
)
from titan.pipeline import run_self_consistency as run_instance
from titan.taskgen import GroundTruth, TaskInstance

from conftest import ScriptedBackend, write_replay

QUESTION = (
    "Ed had 22 more marbles than Doug. Doug lost 8 of his marbles at the "
    "playground. How many more marbles did Ed have than Doug then?"
)

GOOD_SCRIPT = """```python
def solution():
    initial_difference = 22
    doug_lost = 8
    new_difference = initial_difference + doug_lost
    return new_difference
```"""


def marble_instance():
    return TaskInstance(
        id="marbles-1",
        dataset="external",
        prompt=QUESTION,
        gold=GroundTruth("number", "30"),
    )


def scripted_for(mode, codegen=GOOD_SCRIPT, k=1):
    queues = {"codegen": [codegen] * k}
    if mode in ("titan", "titan_no_steps"):
        queues["input_extraction"] = ["initial_difference = 22\ndoug_lost = 8"] * k
    if mode in ("titan", "titan_no_input"):
        queues["step_extraction"] = ["1. Calculate the New Difference."] * k
    return ScriptedBackend(queues)


# --- happy paths per mode ----------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_solves_the_marble_question(mode, library):
    record = run_instance(
        marble_instance(), scripted_for(mode), RunConfig(mode=mode), library
    )
    assert record.correct
    assert record.predicted == "30"
    assert record.failure_class == "none"
    assert record.mode == mode
    assert len(record.transcripts) == PHASES_PER_MODE[mode]


def test_titan_phase_order_is_stable(library):
    record = run_instance(
        marble_instance(), scripted_for("titan"), RunConfig(mode="titan"), library
    )
    assert [t["phase"] for t in record.transcripts] == [
        "input_extraction",
        "step_extraction",
        "codegen",
    ]


def test_codegen_consumes_both_phase_outputs(library):
    record = run_instance(
        marble_instance(), scripted_for("titan"), RunConfig(mode="titan"), library
    )
    codegen_prompt = record.transcripts[-1]["request_messages"][-1]["content"]
    assert "initial_difference = 22" in codegen_prompt
    assert "Calculate the New Difference" in codegen_prompt


# --- ablation isolation ------------------------------------------------


def test_ablation_no_input_never_issues_input_phase(library):
    record = run_instance(
        marble_instance(),
        scripted_for("titan_no_input"),
        RunConfig(mode="titan_no_input"),
        library,
    )
    phases = [t["phase"] for t in record.transcripts]
    assert "input_extraction" not in phases
    codegen_prompt = record.transcripts[-1]["request_messages"][-1]["content"]
    assert "For the inputs" not in codegen_prompt
    assert "smaller steps" in codegen_prompt


def test_ablation_no_steps_never_issues_step_phase(library):
    record = run_instance(
        marble_instance(),
        scripted_for("titan_no_steps"),
        RunConfig(mode="titan_no_steps"),
        library,
    )
    phases = [t["phase"] for t in record.transcripts]
    assert "step_extraction" not in phases
    codegen_prompt = record.transcripts[-1]["request_messages"][-1]["content"]
    assert "For the inputs" in codegen_prompt
    assert "smaller steps" not in codegen_prompt


def test_pal_zs_is_single_call(library):
    record = run_instance(
        marble_instance(), scripted_for("pal_zs"), RunConfig(mode="pal_zs"), library
    )
    assert [t["phase"] for t in record.transcripts] == ["codegen"]
    prompt = record.transcripts[0]["request_messages"][-1]["content"]
    assert prompt.startswith(QUESTION)


# --- failure classification --------------------------------------------


@pytest.mark.parametrize(
    "codegen,expected",
    [
        ("I cannot write code for this.", "no_code"),
        ("```python\ndef solution(:\n    pass\n```", "exec_error"),
        ("```python\ndef solution(a, b):\n    return a + b\n```", "exec_error"),
        ("```python\ndef solution():\n    return 1 / 0\n```", "exec_error"),
        ("```python\ndef solution():\n    return 29\n```", "mismatch"),
    ],
)
def test_failure_classes(codegen, expected, library):
    record = run_instance(
        marble_instance(),
        scripted_for("titan", codegen=codegen),
        RunConfig(mode="titan"),
        library,
    )
    assert record.failure_class == expected
    assert not record.correct


def test_unanswerable_stdout_is_no_answer(library):
    silent = "```python\ndef solution():\n    return None\n```"
    record = run_instance(
        marble_instance(),
        scripted_for("titan", codegen=silent),
        RunConfig(mode="titan"),
        library,
    )
    assert record.failure_class == "no_answer"
    assert record.predicted is None


def test_timeout_failure_class(library):
    slow = "```python\nimport time\ndef solution():\n    time.sleep(9)\n    return 1\n```"
    record = run_instance(
        marble_instance(),
        scripted_for("titan", codegen=slow),
        RunConfig(mode="titan", exec_timeout_s=0.5),
        library,
    )
    assert record.failure_class == "timeout"
    assert record.outcome["exit"] == "timeout"


def test_backend_failure_never_raises(library):
    record = run_instance(
        marble_instance(),
        ScriptedBackend({"codegen": []}),
        RunConfig(mode="pal_zs"),
        library,
    )
    assert record.failure_class == "backend_error"
    assert record.error is not None
    assert record.transcripts == []
    assert not record.correct


def test_failed_phases_report_the_first_in_phase_order(library):
    class SlowInputFails:
        deterministic = True

        def complete(self, phase, messages, temperature, sample_index=0):
            if phase == "input_extraction":
                time.sleep(0.05)  # fails after step extraction has failed
            raise BackendError(f"{phase} failed")

    record = run_instance(
        marble_instance(), SlowInputFails(), RunConfig(mode="titan"), library
    )
    assert record.failure_class == "backend_error"
    assert record.error == "input_extraction failed"
    assert record.transcripts == []


def test_a_prompt_that_cannot_be_built_fails_its_samples_without_raising(library):
    class NumberSteps(ScriptedBackend):
        def complete(self, phase, messages, temperature, sample_index=0):
            response = super().complete(phase, messages, temperature, sample_index)
            if phase == "step_extraction" and sample_index == 1:
                return ChatResponse(text=7)  # an endpoint answered a number
            return response

    config = RunConfig(mode="titan", samples_k=3, temperature=0.7)
    backend = NumberSteps(
        {"input_extraction": ["i"] * 3, "step_extraction": ["s"] * 3,
         "codegen": [GOOD_SCRIPT] * 3}
    )
    record = run_self_consistency(marble_instance(), backend, config, library)
    assert record.sample_answers == ["30", None, "30"]
    # the failed sample keeps its auxiliary transcripts and sends no codegen
    phases = [t["phase"] for t in record.transcripts]
    assert phases == [
        "input_extraction", "step_extraction", "codegen",
        "input_extraction", "step_extraction",
        "input_extraction", "step_extraction", "codegen",
    ]
    assert backend.remaining("codegen") == 1

    broken = dict(library)
    del broken["step_extraction.txt"]
    record = run_self_consistency(
        marble_instance(), scripted_for("titan", k=3), config, broken
    )
    assert record.failure_class == "no_answer"
    assert record.sample_answers == [None, None, None]
    assert record.error == "KeyError: 'step_extraction.txt'"
    assert record.transcripts == []


def test_unrepairable_script_skips_execution(library):
    record = run_instance(
        marble_instance(),
        scripted_for("titan", codegen="```python\ndef solution(:\n    x\n```"),
        RunConfig(mode="titan"),
        library,
    )
    assert record.outcome is None
    assert record.script is not None
    assert record.script["error"] == "unrepairable"


# Lines of a solution() body: return, print, raise, exit, read stdin or
# overrun the output cap.
_BODY_LINES = [
    "    return 30",
    "    return 29",
    "    return [1, 2]",
    "    return 'yes'",
    "    return None",
    "    return 1 / 0",
    "    raise ValueError('bad')",
    "    print('x' * 100000)",
    "    import sys; sys.exit(3)",
    "    return input()",
    "print(solution())",
]
_CODEGEN_FRAGMENTS = ["```python", "```", "def solution():", "x = ", "\t", "答案是 30"]

_codegen_texts = st.one_of(
    st.text(max_size=120),
    # fragments and arbitrary text in any order
    st.lists(
        st.one_of(
            st.sampled_from(_CODEGEN_FRAGMENTS + _BODY_LINES), st.text(max_size=20)
        ),
        max_size=10,
    ).map("\n".join),
    # a fenced solution() whose body lines are fuzzed
    st.builds(
        lambda prose, body, close: (
            f"{prose}\n```python\ndef solution():\n" + "\n".join(body)
            + ("\n```" if close else "")
        ),
        st.text(max_size=20),
        st.lists(
            st.one_of(
                st.sampled_from(_BODY_LINES),
                st.text(max_size=20).map("    # {}".format),
                st.text(max_size=20),
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    ),
)


@pytest.fixture(scope="module")
def shared_helper():
    with Helper() as helper:
        yield helper


@given(_codegen_texts)
@settings(max_examples=100, deadline=None)
def test_run_instance_never_raises_on_arbitrary_codegen(
    library, shared_helper, codegen
):
    record = run_instance(
        marble_instance(),
        scripted_for("pal_zs", codegen=codegen),
        RunConfig(mode="pal_zs", exec_timeout_s=2.0),
        library,
        shared_helper,
    )
    assert record.failure_class in pipeline.FAILURE_CLASSES
    assert [t["phase"] for t in record.transcripts] == ["codegen"]


# --- timing ------------------------------------------------------------


@pytest.mark.parametrize(
    "deterministic", [True, False], ids=["deterministic", "nondeterministic"]
)
def test_records_carry_no_timing(library, deterministic):
    backend = answers_backend([None, 30])  # no guest runs for the first sample
    backend.deterministic = deterministic
    config = RunConfig(mode="titan", samples_k=2, temperature=0.7)
    record = run_self_consistency(marble_instance(), backend, config, library)
    data = record.to_json_dict()
    assert "wall_ms" not in data and "timing" not in data
    assert all("latency_ms" not in t for t in data["transcripts"])
    assert "wall_ms" not in data["outcome"]

    timing = record.timing
    assert timing["instance_id"] == "marbles-1"
    assert len(timing["latency_ms"]) == len(record.transcripts) == 6
    assert all(ms > 0 for ms in timing["latency_ms"])
    no_guest, guest_ms = timing["guest_ms"]
    assert no_guest is None
    assert 0 < guest_ms < timing["wall_ms"]


# --- self-consistency --------------------------------------------------


def answers_backend(answers):
    scripts = [
        a if a is None else f"```python\ndef solution():\n    return {a}\n```"
        for a in answers
    ]
    scripts = [s if s is not None else "no code here" for s in scripts]
    return ScriptedBackend(
        {
            "input_extraction": ["i"] * len(answers),
            "step_extraction": ["s"] * len(answers),
            "codegen": scripts,
        }
    )


def test_majority_vote_two_of_three(library):
    config = RunConfig(mode="titan", samples_k=3, temperature=0.7)
    record = run_self_consistency(
        marble_instance(), answers_backend([30, 28, 30]), config, library
    )
    assert record.predicted == "30"
    assert record.correct
    assert record.sample_answers == ["30", "28", "30"]
    assert len(record.transcripts) == 3 * PHASES_PER_MODE["titan"]


def test_tie_breaks_to_earliest_sample(library):
    config = RunConfig(mode="titan", samples_k=2, temperature=0.7)
    record = run_self_consistency(
        marble_instance(), answers_backend([28, 30]), config, library
    )
    assert record.predicted == "28"
    assert record.failure_class == "mismatch"


def test_failed_samples_are_excluded_from_vote(library):
    config = RunConfig(mode="titan", samples_k=3, temperature=0.7)
    record = run_self_consistency(
        marble_instance(), answers_backend([None, None, 30]), config, library
    )
    assert record.predicted == "30"
    assert record.correct
    assert record.sample_answers == [None, None, "30"]


def test_all_samples_failing_is_no_answer(library):
    config = RunConfig(mode="titan", samples_k=3, temperature=0.7)
    record = run_self_consistency(
        marble_instance(), answers_backend([None, None, None]), config, library
    )
    assert record.failure_class == "no_answer"
    assert record.predicted is None
    assert record.sample_answers == [None, None, None]


def test_samples_running_at_once_keep_their_own_answers(library, shared_helper):
    # more sample threads than cores, switching often: each sample still
    # gets its own scripted item, and answers stay in sample order
    answers = [30, 28, 27, 30, 26, 30]
    config = RunConfig(mode="titan", samples_k=len(answers), temperature=0.7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            record = run_self_consistency(
                marble_instance(), answers_backend(answers), config, library,
                shared_helper,
            )
            assert record.sample_answers == [str(a) for a in answers]
            assert record.predicted == "30"
    finally:
        sys.setswitchinterval(interval)


def test_k1_delegates_bit_identically(library):
    config = RunConfig(mode="titan", samples_k=1)
    via_sc = run_self_consistency(
        marble_instance(), scripted_for("titan"), config, library
    )
    direct = run_instance(marble_instance(), scripted_for("titan"), config, library)
    assert via_sc.to_json_dict() == direct.to_json_dict()


# --- config validation -------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(mode="unknown"),
        RunConfig(samples_k=0),
        RunConfig(samples_k=3, temperature=0.0),
        RunConfig(exec_timeout_s=0.0),
        RunConfig(exec_timeout_s=float("inf")),
        RunConfig(exec_timeout_s=float("nan")),
        RunConfig(exec_timeout_s=1e7),  # beyond what select.poll accepts
        RunConfig(temperature=float("inf")),
        RunConfig(temperature=float("nan")),
        RunConfig(temperature=-3.0),
        RunConfig(concurrency=0),
    ],
)
def test_invalid_configs_rejected(config):
    with pytest.raises(ConfigError):
        config.validate()


def test_valid_config_passes():
    RunConfig(mode="titan", samples_k=3, temperature=0.5).validate()


# --- run_many ----------------------------------------------------------


def _pal_replay(tmp_path, library, instances):
    path = tmp_path / "replay.jsonl"
    entries = []
    for i, inst in enumerate(instances):
        messages = prompts.messages_for(prompts.build_pal_zs(inst.prompt, library))
        script = f"```python\ndef solution():\n    return {2 * i}\n```"
        entries.append(("codegen", messages, 0.0, 0, script))
    write_replay(path, entries)
    return ReplayBackend.from_path(path)


def test_run_many_preserves_submission_order(tmp_path, library):
    instances = [
        TaskInstance(
            id=f"q-{i}",
            dataset="external",
            prompt=f"What is {i} plus {i}?",
            gold=GroundTruth("number", str(2 * i)),
        )
        for i in range(6)
    ]
    backend = _pal_replay(tmp_path, library, instances)
    config = RunConfig(mode="pal_zs", concurrency=3)
    records = list(run_many(instances, backend, config, library))
    assert [r.instance_id for r in records] == [i.id for i in instances]
    assert all(r.correct for r in records)

    solo = list(
        run_many(instances, backend, RunConfig(mode="pal_zs"), library)
    )
    assert [r.to_json_dict() for r in records] == [r.to_json_dict() for r in solo]


def _run_to_inflight_peak(library, config, peak):
    """Run three instances, each request blocking until ``peak`` are in flight.

    Returns the peak reached and the records' failure classes.
    """
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}
    all_in = threading.Event()

    def transport(url, headers, payload, timeout_s):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
            if state["peak"] == peak:
                all_in.set()
        all_in.wait(timeout=5.0)
        with lock:
            state["now"] -= 1
        return 200, json.dumps({"choices": [{"message": {"content": GOOD_SCRIPT}}]})

    backend = HttpBackend(
        BackendConfig(kind="http", endpoint_url="http://unit.test/v1", model="m"),
        transport=transport,
        sleep=lambda s: None,
    )
    records = list(run_many([marble_instance()] * 3, backend, config, library))
    return state["peak"], [r.failure_class for r in records]


def test_run_many_concurrency_bounds_inflight_requests(library):
    # titan mode runs its two auxiliary phases at once, so three workers
    # put six requests in flight; no other limit may hold any of them back
    config = RunConfig(mode="titan", concurrency=3)
    assert _run_to_inflight_peak(library, config, 6) == (6, ["none"] * 3)


def test_run_many_runs_every_sample_of_an_instance_at_once(library):
    # 3 instances x 3 samples x 2 auxiliary phases
    config = RunConfig(mode="titan", samples_k=3, temperature=0.7, concurrency=3)
    assert _run_to_inflight_peak(library, config, 18) == (18, ["none"] * 3)


def test_sample_returns_only_after_all_its_requests_end(library):
    release = threading.Event()
    ended = []

    class StepsBlock:
        deterministic = True

        def complete(self, phase, messages, temperature, sample_index=0):
            if phase == "step_extraction":
                release.wait(timeout=5.0)
                ended.append(phase)
            raise BackendError(f"{phase} failed")

    records = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        worker = threading.Thread(
            target=lambda: records.append(
                run_instance(
                    marble_instance(), StepsBlock(), RunConfig(mode="titan"),
                    library, pool=pool,
                )
            )
        )
        worker.start()
        worker.join(timeout=0.3)
        returned_early = not worker.is_alive()
        release.set()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
    assert not returned_early
    assert ended == ["step_extraction"]
    assert records[0].error == "input_extraction failed"


def test_in_memory_backend_sends_every_phase_from_the_sample_thread(
    tmp_path, library, monkeypatch
):
    path = tmp_path / "replay.jsonl"
    recording = ReplayBackend({}, scripted_for("titan"), path)
    expected = run_instance(marble_instance(), recording, RunConfig(), library)

    threads = []

    class WatchedReplay(ReplayBackend):
        def complete(self, phase, messages, temperature, sample_index=0):
            threads.append((phase, threading.current_thread()))
            return super().complete(phase, messages, temperature, sample_index)

    pools, submits = [], []
    work_pool = pipeline._work_pool

    def spied_pool(config, instances=1):
        pool = work_pool(config, instances)
        submit = pool.submit
        pool.submit = lambda *args: (submits.append(args), submit(*args))[1]
        pools.append(pool)
        return pool

    monkeypatch.setattr(pipeline, "_work_pool", spied_pool)
    backend = WatchedReplay.from_path(path)
    records = list(run_many([marble_instance()], backend, RunConfig(), library))
    assert [r.to_json_dict() for r in records] == [expected.to_json_dict()]
    assert len(pools) == 1
    assert submits == []
    assert not pools[0]._threads  # no pool thread ever started
    me = threading.current_thread()
    assert threads == [
        ("input_extraction", me), ("step_extraction", me), ("codegen", me)
    ]


def test_replayed_samples_send_every_request_from_the_calling_thread_by_phase(
    tmp_path, library
):
    path = tmp_path / "replay.jsonl"
    config = RunConfig(mode="titan", samples_k=3, temperature=0.7)
    recording = ReplayBackend({}, answers_backend([30, 28, 30]), path)
    expected = run_self_consistency(marble_instance(), recording, config, library)

    sent = []

    class WatchedReplay(ReplayBackend):
        def complete(self, phase, messages, temperature, sample_index=0):
            sent.append((phase, sample_index, threading.current_thread()))
            return super().complete(phase, messages, temperature, sample_index)

    backend = WatchedReplay.from_path(path)
    with ThreadPoolExecutor(max_workers=6) as pool:
        record = run_self_consistency(
            marble_instance(), backend, config, library, pool=pool
        )
    assert record.to_json_dict() == expected.to_json_dict()
    me = threading.current_thread()
    assert sent == [
        (phase, s, me)
        for phase in ("input_extraction", "step_extraction", "codegen")
        for s in range(3)
    ]


def test_one_worker_pool_runs_every_sample(library):
    # each pool task is one request or one guest and waits on no other, so
    # a single worker still gets through three samples' requests and guests
    question = "What is 2 plus 2?"
    aux_prompts = {
        prompts.build_input_extraction(question, library),
        prompts.build_step_extraction(question, library),
    }

    def transport(url, headers, payload, timeout_s):
        text = "```python\ndef solution():\n    return 4\n```"
        if payload["messages"][-1]["content"] in aux_prompts:
            text = "x = 2"
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})

    backend = HttpBackend(
        BackendConfig(kind="http", endpoint_url="http://unit.test/v1", model="m"),
        transport=transport,
        sleep=lambda s: None,
    )
    instance = TaskInstance(
        id="four", dataset="external", prompt=question,
        gold=GroundTruth("number", "4"),
    )
    config = RunConfig(mode="titan", samples_k=3, temperature=0.7)
    with ThreadPoolExecutor(max_workers=1) as pool:
        record = run_self_consistency(instance, backend, config, library, pool=pool)
    assert record.sample_answers == ["4", "4", "4"]
    assert record.correct


def test_null_completion_content_is_a_backend_error(library):
    # an OpenAI-compatible server sends null content for a filtered completion
    def transport(url, headers, payload, timeout_s):
        return 200, json.dumps({"choices": [{"message": {"content": None}}]})

    backend = HttpBackend(
        BackendConfig(kind="http", endpoint_url="http://unit.test/v1", model="m"),
        transport=transport,
        sleep=lambda s: None,
    )
    record = run_self_consistency(
        marble_instance(), backend, RunConfig(mode="pal_zs"), library
    )
    assert record.failure_class == "backend_error"
    assert record.error.startswith("malformed completion body")


def test_in_memory_failed_phase_still_sends_the_later_phases(library):
    class InputFailsFirst(ScriptedBackend):
        failed = False

        def complete(self, phase, messages, temperature, sample_index=0):
            if phase == "input_extraction" and not self.failed:
                self.failed = True
                raise BackendError("input_extraction failed")
            return super().complete(phase, messages, temperature, sample_index)

    backend = InputFailsFirst(
        {
            "input_extraction": ["initial_difference = 22\ndoug_lost = 8"],
            "step_extraction": ["steps of instance 1", "steps of instance 2"],
            "codegen": [GOOD_SCRIPT],
        }
    )
    assert backend.in_memory
    first, second = run_many([marble_instance()] * 2, backend, RunConfig(), library)
    assert first.failure_class == "backend_error"
    assert first.error == "input_extraction failed"
    assert first.transcripts == []
    assert [t["response_text"] for t in second.transcripts[:2]] == [
        "initial_difference = 22\ndoug_lost = 8",
        "steps of instance 2",
    ]
    assert second.correct
    assert backend.remaining("step_extraction") == 0


def test_eval_record_serialization_shape(library):
    record = run_instance(
        marble_instance(), scripted_for("titan"), RunConfig(mode="titan"), library
    )
    blob = json.loads(json.dumps(record.to_json_dict()))
    assert blob["instance_id"] == "marbles-1"
    assert blob["dataset"] == "external"
    assert blob["correct"] is True
    assert blob["failure_class"] == "none"
    assert "error" not in blob  # only present when something went wrong
    assert isinstance(blob["sample_answers"], list)


def test_eval_record_defaults():
    record = EvalRecord(instance_id="x", dataset="d", mode="titan")
    assert record.failure_class == "none"
    assert record.transcripts == []
