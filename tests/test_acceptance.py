"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Each test is self-contained and carries its own timing
budget where one applies.
"""

import json
import random
import time

from titan import codeproc, executor, pipeline, prompts, scoring, taskgen
from titan.backend import (
    BackendConfig,
    HttpBackend,
    ReplayBackend,
    make_backend,
)
from titan.pipeline import RunConfig, run_many, run_self_consistency
from titan.pipeline import run_self_consistency as run_instance

from conftest import ScriptedBackend, literal_solution_code, write_replay


def _report(number, description, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    print(line)
    assert ok, line


# --- criterion 1: worked three-phase example replays correctly ---------

MARBLE_QUESTION = (
    "Ed had 22 more marbles than Doug. Doug lost 8 of his marbles at the "
    "playground. How many more marbles did Ed have than Doug then?"
)

MARBLE_INPUTS = (
    "The inputs mentioned in the query are:\n"
    "initial_difference = 22  (Ed had 22 more marbles than Doug)\n"
    "doug_lost = 8  (Doug lost 8 marbles at the playground)"
)

MARBLE_STEPS = (
    "Goal: find how many more marbles Ed has than Doug after the loss.\n"
    "1. Start from the initial difference of 22.\n"
    "2. Calculate the New Difference: losing marbles widens the gap, so add "
    "the 8 lost marbles.\n"
    "3. It only changes how many more marbles Ed has compared to Doug."
)

MARBLE_CODE = """Here is a general function:

```python
def solution():
    initial_difference = 22
    doug_lost = 8
    new_difference = initial_difference + doug_lost
    return new_difference
```"""


def _marble_instance():
    return taskgen.TaskInstance(
        id="marbles-worked-example",
        dataset="external",
        prompt=MARBLE_QUESTION,
        gold=taskgen.GroundTruth("number", "30"),
    )


def _titan_replay(tmp_path, library, question, inputs_text, steps_text, code_text):
    entries = []
    msg_inputs = prompts.messages_for(
        prompts.build_input_extraction(question, library)
    )
    msg_steps = prompts.messages_for(prompts.build_step_extraction(question, library))
    entries.append(("input_extraction", msg_inputs, 0.0, 0, inputs_text))
    entries.append(("step_extraction", msg_steps, 0.0, 0, steps_text))
    msg_code = prompts.messages_for(
        prompts.build_codegen(question, library, steps=steps_text, inputs=inputs_text)
    )
    entries.append(("codegen", msg_code, 0.0, 0, code_text))
    path = tmp_path / "titan-replay.jsonl"
    write_replay(path, entries)
    return ReplayBackend.from_path(path)


def test_criterion_1_worked_example_replay(tmp_path, library):
    start = time.monotonic()
    backend = _titan_replay(
        tmp_path, library, MARBLE_QUESTION, MARBLE_INPUTS, MARBLE_STEPS, MARBLE_CODE
    )
    record = run_instance(
        _marble_instance(), backend, RunConfig(mode="titan"), library
    )
    elapsed = time.monotonic() - start
    ok = (
        record.predicted == "30"
        and record.correct
        and record.failure_class == "none"
        and len(record.transcripts) == 3
        and elapsed < 5.0
    )
    _report(1, f"worked example replays to 30 in {elapsed:.2f}s", ok)


# --- criterion 2: shared failure mode fixture scores as mismatch -------

ALEX_QUESTION = (
    "Alex is planning her birthday party. She sent email invitations to 8 "
    "friends and each invited friend will bring 2 of their own friends. She "
    "also phoned 6 other friends, and each phoned friend will bring their "
    "spouse. How many seats does Alex need to book at the restaurant?"
)

# Neither script seats Alex herself: 8 + 16 + 6 + 6 = 36, gold is 37.
ALEX_BAD_CODE = """```python
def solution():
    email_invited = 8
    friends_of_invited = email_invited * 2
    phoned = 6
    spouses = phoned
    return email_invited + friends_of_invited + phoned + spouses
```"""


def _alex_instance():
    return taskgen.TaskInstance(
        id="alex-seat-count",
        dataset="external",
        prompt=ALEX_QUESTION,
        gold=taskgen.GroundTruth("number", "37"),
    )


def test_criterion_2_shared_failure_is_mismatch(tmp_path, library):
    start = time.monotonic()
    titan_backend = _titan_replay(
        tmp_path,
        library,
        ALEX_QUESTION,
        "email_invited = 8\nfriends_each = 2\nphoned = 6\nspouses = 6",
        "1. Count the email invitees and their friends.\n"
        "2. Count the phoned invitees and their spouses.\n"
        "3. Add the groups together.",
        ALEX_BAD_CODE,
    )
    titan_record = run_instance(
        _alex_instance(), titan_backend, RunConfig(mode="titan"), library
    )

    pal_path = tmp_path / "pal-replay.jsonl"
    pal_messages = prompts.messages_for(
        prompts.build_pal_zs(ALEX_QUESTION, library)
    )
    write_replay(pal_path, [("codegen", pal_messages, 0.0, 0, ALEX_BAD_CODE)])
    pal_record = run_instance(
        _alex_instance(),
        ReplayBackend.from_path(pal_path),
        RunConfig(mode="pal_zs"),
        library,
    )
    elapsed = time.monotonic() - start

    ok = True
    for record in (titan_record, pal_record):
        ok = ok and not record.correct
        ok = ok and record.failure_class == "mismatch"
        ok = ok and record.predicted == "36"
    ok = ok and elapsed < 5.0
    _report(2, f"both modes score the shared failure as mismatch in {elapsed:.2f}s", ok)


# --- criterion 3: oracle soundness against brute force -----------------


def _brute_force(template_id, p):
    """Independent re-derivation of every template's answer."""
    if template_id == "find_without_substring":
        target = p["target"]
        winners = []
        for w in p["options"]:
            found = False
            for i in range(len(w) - len(target) + 1):
                if w[i : i + len(target)] == target:
                    found = True
            if not found:
                winners.append(w)
        assert len(winners) == 1
        return ("text", winners[0])
    if template_id == "find_most_distinct_letters":
        l1, l2 = p["letter1"], p["letter2"]
        best_word, best_count = None, -1
        tie = False
        for w in p["options"]:
            seen = []
            for ch in w.lower():
                ch = l1 if ch == l2 else ch
                if ch.isalpha() and ch not in seen:
                    seen.append(ch)
            if len(seen) > best_count:
                best_word, best_count, tie = w, len(seen), False
            elif len(seen) == best_count:
                tie = True
        assert not tie
        return ("text", best_word)
    if template_id == "find_same_count":
        target = p["target"]
        assert len(target) == 1
        matches = []
        for w in p["options"]:
            occurrences = 0
            for ch in w:
                if ch == target:
                    occurrences += 1
            if occurrences == 1:
                matches.append(w)
        return ("list", set(matches))
    if template_id == "find_starts_with":
        hits = [w for w in p["options"] if w[:1] == p["letter"]]
        assert len(hits) == 1
        return ("text", hits[0])
    if template_id == "count_long_words":
        tokens = [t for t in p["sentence"].split(" ") if t]
        return ("number", str(len([t for t in tokens if len(t) >= 4])))
    if template_id == "count_digits":
        return (
            "number",
            str(len([ch for ch in p["word"] if ch in "0123456789"])),
        )
    if template_id == "count_letter_ignorecase":
        want = p["letter"].lower()
        total = 0
        for ch in p["word"]:
            if ch.lower() == want:
                total += 1
        return ("number", str(total))
    if template_id == "count_distinct_letters":
        seen = []
        for ch in p["word"].lower():
            if ch.isalpha() and ch not in seen:
                seen.append(ch)
        return ("number", str(len(seen)))
    if template_id == "count_vowels":
        total = 0
        for ch in p["word"].lower():
            if ch in ("a", "e", "i", "o", "u"):
                total += 1
        return ("number", str(total))
    if template_id == "space_in_words":
        return ("binary", "1" if any(ch == " " for ch in p["word2"]) else "0")
    if template_id == "capitalization_difference":
        w1, w2 = p["word1"], p["word2"]
        assert w1.casefold() == w2.casefold()
        differs = len(w1) != len(w2) or any(a != b for a, b in zip(w1, w2))
        return ("binary", "1" if differs else "0")
    if template_id == "more_than_three_spaces":
        spaces = len([ch for ch in p["sentence"] if ch == " "])
        return ("binary", "1" if spaces > 3 else "0")
    if template_id == "repeated_word":
        tokens = p["sentence"].split(" ")
        duplicate = False
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens)):
                if tokens[i] == tokens[j]:
                    duplicate = True
        return ("binary", "1" if duplicate else "0")
    if template_id == "spelling_difference":
        l1, l2 = p["letter1"], p["letter2"]

        def canon(word):
            return "".join(l1 if ch == l2 else ch for ch in word)

        return ("binary", "1" if canon(p["word1"]) != canon(p["word2"]) else "0")
    if template_id == "acronym_from_sentence":
        tokens = [t for t in p["sentence"].split(" ") if t]
        return ("text", "".join(t[0] for t in tokens))
    if template_id == "swap_first_two_letters":
        w = p["word"]
        return ("text", "".join([w[1], w[0]] + list(w[2:])))
    if template_id == "replace_last_letter_s":
        return ("text", p["word"][:-1] + "s")
    if template_id == "capitalize_first_letter":
        w = p["word"]
        return ("text", w[0].upper() + w[1:])
    if template_id == "swap_first_letters_across":
        words = p["words"]
        out = []
        for i, w in enumerate(words):
            donor = words[(i + 1) % len(words)]
            out.append(donor[0] + w[1:])
        return ("list", out)
    raise AssertionError(f"unknown template {template_id}")


def test_criterion_3_oracle_soundness(corpus):
    start = time.monotonic()
    per_template = 200
    checked = 0
    mismatches = []
    for dataset in taskgen.DATASETS:
        template_count = len(taskgen.DATASET_TEMPLATES[dataset])
        instances = taskgen.generate(
            dataset, per_template * template_count, rng_seed=20240817, corpus=corpus
        )
        for inst in instances:
            kind, value = _brute_force(inst.template_id, inst.seed_params)
            gold_value = inst.gold.value
            if isinstance(value, set):
                agree = kind == inst.gold.kind and set(gold_value) == value
            else:
                agree = kind == inst.gold.kind and gold_value == value
            if not agree:
                mismatches.append((inst.template_id, inst.seed_params))
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == per_template * 19 and not mismatches and elapsed < 10.0
    _report(
        3,
        f"oracles agree with brute force on {checked} instances in {elapsed:.2f}s",
        ok,
    )


# --- criterion 4: perfect scripted backend scores 100% -----------------


def test_criterion_4_perfect_backend_full_marks(corpus, library):
    start = time.monotonic()
    per_dataset = 20
    all_correct = True
    total = 0
    for dataset in taskgen.DATASETS:
        instances = taskgen.generate(dataset, per_dataset, rng_seed=7, corpus=corpus)
        backend = ScriptedBackend(
            {
                "input_extraction": ["inputs noted"] * per_dataset,
                "step_extraction": ["steps noted"] * per_dataset,
                "codegen": [literal_solution_code(i.gold) for i in instances],
            }
        )
        config = RunConfig(mode="titan", concurrency=1)
        for record in run_many(instances, backend, config, library):
            total += 1
            if not record.correct:
                all_correct = False
    elapsed = time.monotonic() - start
    ok = all_correct and total == per_dataset * 4 and elapsed < 60.0
    _report(
        4,
        f"perfect backend scores {total}/{total} across datasets in {elapsed:.1f}s",
        ok,
    )


# --- criterion 5: self-consistency vote --------------------------------


def test_criterion_5_self_consistency_vote(library):
    start = time.monotonic()
    instance = _marble_instance()

    def backend_for(answers):
        return ScriptedBackend(
            {
                "input_extraction": ["i"] * len(answers),
                "step_extraction": ["s"] * len(answers),
                "codegen": [
                    f"```python\ndef solution():\n    return {a}\n```"
                    for a in answers
                ],
            }
        )

    voted = run_self_consistency(
        instance,
        backend_for([30, 28, 30]),
        RunConfig(mode="titan", samples_k=3, temperature=0.7),
        library,
    )
    single_config = RunConfig(mode="titan", samples_k=1)
    via_sc = run_self_consistency(
        instance, backend_for([30]), single_config, library
    )
    direct = run_instance(instance, backend_for([30]), single_config, library)
    elapsed = time.monotonic() - start
    ok = (
        voted.predicted == "30"
        and voted.correct
        and voted.sample_answers == ["30", "28", "30"]
        and via_sc.to_json_dict() == direct.to_json_dict()
        and elapsed < 5.0
    )
    _report(5, f"majority vote picks 30 and k=1 is bit-identical in {elapsed:.2f}s", ok)


# --- criterion 6: ablations drop exactly one phase ---------------------


def test_criterion_6_ablation_isolation(library):
    instance = _marble_instance()
    script = "```python\ndef solution():\n    return 30\n```"

    def run_mode(mode):
        queues = {"codegen": [script]}
        if mode in ("titan", "titan_no_steps"):
            queues["input_extraction"] = ["the inputs"]
        if mode in ("titan", "titan_no_input"):
            queues["step_extraction"] = ["the steps"]
        return run_instance(
            instance, ScriptedBackend(queues), RunConfig(mode=mode), library
        )

    ok = True
    full = run_mode("titan")
    phases = [t["phase"] for t in full.transcripts]
    ok = ok and phases == ["input_extraction", "step_extraction", "codegen"]

    no_input = run_mode("titan_no_input")
    phases = [t["phase"] for t in no_input.transcripts]
    prompt_text = no_input.transcripts[-1]["request_messages"][-1]["content"]
    ok = ok and phases == ["step_extraction", "codegen"]
    ok = ok and "For the inputs" not in prompt_text
    ok = ok and "smaller steps" in prompt_text

    no_steps = run_mode("titan_no_steps")
    phases = [t["phase"] for t in no_steps.transcripts]
    prompt_text = no_steps.transcripts[-1]["request_messages"][-1]["content"]
    ok = ok and phases == ["input_extraction", "codegen"]
    ok = ok and "For the inputs" in prompt_text
    ok = ok and "smaller steps" not in prompt_text

    _report(6, "each ablation drops exactly one phase and its clause", ok)


# --- criterion 7: aggregation reproduces the headline table ------------

HEADLINE_ACCURACIES = {
    "gsm8k": 84.2,
    "gsmhard": 69.6,
    "asdiv": 91.4,
    "svamp": 84.3,
    "addsub": 89.8,
    "multiarith": 96.8,
    "penguin": 94.3,
    "finding": 98.4,
    "counting": 87.8,
    "truefalse": 76.7,
    "generative": 94.1,
}

BASELINE_GSM8K = 76.6


def _bucket(dataset, accuracy, n=1000):
    correct = round(accuracy * n / 100)
    records = []
    for i in range(n):
        ok = i < correct
        records.append(
            {
                "dataset": dataset,
                "correct": ok,
                "failure_class": "none" if ok else "mismatch",
            }
        )
    return records


def test_criterion_7_headline_aggregation():
    records = []
    for dataset, accuracy in HEADLINE_ACCURACIES.items():
        records.extend(_bucket(dataset, accuracy))
    baseline_report = scoring.aggregate(_bucket("gsm8k", BASELINE_GSM8K))
    report = scoring.aggregate(records, baseline=baseline_report)

    average_ok = abs(report.average - 87.9) <= 0.05
    delta_ok = abs(report.deltas["gsm8k"] - 7.6) <= 0.05
    per_dataset_ok = all(
        abs(report.datasets[d].accuracy - acc) < 0.05
        for d, acc in HEADLINE_ACCURACIES.items()
    )
    ok = average_ok and delta_ok and per_dataset_ok
    _report(
        7,
        f"average {report.average} (target 87.9) and gsm8k delta "
        f"{report.deltas['gsm8k']:+.1f} (target +7.6)",
        ok,
    )


# --- criterion 8: live endpoint runs are out of scope here -------------


def test_criterion_8_live_surface_exists():
    config = BackendConfig(
        kind="http", endpoint_url="http://example.invalid/v1", model="m"
    )
    backend = make_backend(config)
    ok = (
        isinstance(backend, HttpBackend)
        and not backend.deterministic
        and config.max_retries == 3
        and hasattr(backend, "complete")
    )
    print(
        "EXCLUDED criterion 8: live-endpoint accuracy needs network access "
        "and an API key; the http surface is present and exercised by unit "
        "tests instead"
    )
    assert ok


# --- criterion 9: fuzzing and timeout tightness ------------------------

_FRAGMENTS = [
    "",
    " ",
    "\n",
    "\t",
    "```",
    "```python",
    "```python\n",
    scoring.RESULT_BEGIN,
    scoring.RESULT_END,
    "def solution():",
    "    return 42",
    "print(",
    ")",
    "x = ",
    "-1.5e300",
    "$1,234.50",
    "1e999999",
    "yes",
    "no",
    "[a, b]",
    "答案是 42",
    "émoji 🙂",
    "0" * 40,
    "nan",
    "inf",
    "-",
    ".",
    '"',
    "'",
    "#",
]


def _random_blob(rng):
    pieces = [rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.3:
        pieces.append(
            "".join(chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(1, 30)))
        )
    return rng.choice(["", "\n"]).join(pieces)


def test_criterion_9_fuzz_and_timeout():
    rng = random.Random(1337)
    crashes = 0
    for _ in range(10_000):
        blob = _random_blob(rng)
        try:
            scoring.extract_answer(blob, rng.choice(scoring.KINDS))
        except Exception:
            crashes += 1
    for _ in range(10_000):
        blob = _random_blob(rng)
        try:
            codeproc.extract_code(blob)
        except Exception:
            crashes += 1

    start = time.monotonic()
    outcome = executor.execute("import time\ntime.sleep(30)\n", timeout_s=1.0)
    elapsed = time.monotonic() - start
    timeout_ok = outcome.exit == "timeout" and elapsed <= 1.5

    ok = crashes == 0 and timeout_ok
    _report(
        9,
        f"20000 fuzz inputs, {crashes} crashes; timeout honored in {elapsed:.2f}s",
        ok,
    )
