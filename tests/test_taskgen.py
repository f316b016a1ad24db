import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titan import taskgen
from titan.taskgen import (
    DATASET_TEMPLATES,
    DATASETS,
    TEMPLATES,
    GenerationError,
    GroundTruth,
    OracleError,
    WordCorpus,
    generate,
    instance_from_json,
    oracle,
    read_jsonl,
    render_prompt,
    write_jsonl,
)


def test_registry_shape():
    assert len(TEMPLATES) == 19
    assert {d: len(v) for d, v in DATASET_TEMPLATES.items()} == {
        "finding": 4,
        "counting": 5,
        "truefalse": 5,
        "generative": 5,
    }
    for dataset, template_ids in DATASET_TEMPLATES.items():
        for tid in template_ids:
            assert TEMPLATES[tid].dataset == dataset


def test_gold_kinds_per_dataset():
    kinds = {tid: t.gold_kind for tid, t in TEMPLATES.items()}
    assert all(kinds[t] == "number" for t in DATASET_TEMPLATES["counting"])
    assert all(kinds[t] == "binary" for t in DATASET_TEMPLATES["truefalse"])
    assert kinds["find_same_count"] == "list"
    assert kinds["swap_first_letters_across"] == "list"
    assert kinds["find_without_substring"] == "text"
    assert kinds["acronym_from_sentence"] == "text"


# --- frozen oracle examples --------------------------------------------

FROZEN = [
    ("count_letter_ignorecase", {"letter": "a", "word": "Alabama"}, "number", "4"),
    ("count_vowels", {"word": "playground"}, "number", "3"),
    ("acronym_from_sentence", {"sentence": "take it to night"}, "text", "titn"),
    ("swap_first_two_letters", {"word": "ab"}, "text", "ba"),
    ("capitalization_difference", {"word1": "Word", "word2": "word"}, "binary", "1"),
    ("capitalization_difference", {"word1": "word", "word2": "word"}, "binary", "0"),
    ("more_than_three_spaces", {"sentence": "one two three four"}, "binary", "0"),
    ("more_than_three_spaces", {"sentence": "one two three four five"}, "binary", "1"),
    ("replace_last_letter_s", {"word": "cat"}, "text", "cas"),
    ("capitalize_first_letter", {"word": "apple"}, "text", "Apple"),
    ("count_digits", {"word": "ab1c23"}, "number", "3"),
    ("count_distinct_letters", {"word": "Banana"}, "number", "3"),
    (
        "count_long_words",
        {"sentence": "the cat sat on a long windowsill today"},
        "number",
        "3",
    ),
    ("repeated_word", {"sentence": "the cat saw the dog"}, "binary", "1"),
    ("repeated_word", {"sentence": "the cat saw a dog"}, "binary", "0"),
    ("space_in_words", {"word1": "a b", "word2": "plain"}, "binary", "0"),
    ("space_in_words", {"word1": "plain", "word2": "a b"}, "binary", "1"),
    (
        "spelling_difference",
        {"letter1": "a", "letter2": "e", "word1": "bat", "word2": "bet"},
        "binary",
        "0",
    ),
    (
        "spelling_difference",
        {"letter1": "a", "letter2": "e", "word1": "bat", "word2": "bit"},
        "binary",
        "1",
    ),
    (
        "find_without_substring",
        {"target": "an", "options": ["banana", "canal", "orbit"]},
        "text",
        "orbit",
    ),
    (
        "find_starts_with",
        {"letter": "k", "options": ["apple", "kite", "moon"]},
        "text",
        "kite",
    ),
    (
        "find_most_distinct_letters",
        {"letter1": "a", "letter2": "b", "options": ["aba", "cde", "zz"]},
        "text",
        "cde",
    ),
]


@pytest.mark.parametrize("tid,params,kind,value", FROZEN)
def test_frozen_oracle_examples(tid, params, kind, value):
    got = oracle(tid, params)
    assert got.kind == kind
    assert got.value == value


def test_list_oracles():
    got = oracle("swap_first_letters_across", {"words": ["apple", "berry"]})
    assert got.kind == "list" and got.value == ["bpple", "aerry"]
    assert not got.order_free
    rotated = oracle(
        "swap_first_letters_across", {"words": ["one", "two", "six"]}
    )
    assert rotated.value == ["tne", "swo", "oix"]

    found = oracle(
        "find_same_count",
        {"reference": "cat", "target": "a", "options": ["hat", "tree", "banana"]},
    )
    assert found.value == ["hat"] and found.order_free


@pytest.mark.parametrize(
    "tid,params",
    [
        ("find_without_substring", {"target": "a", "options": ["bob", "cod", "dud"]}),
        ("find_without_substring", {"target": "q", "options": ["bob", "cod", "dud"]}),
        ("find_most_distinct_letters", {"letter1": "a", "letter2": "b", "options": ["xy", "yx", "q"]}),
        ("find_same_count", {"reference": "banana", "target": "a", "options": ["hat"]}),
        ("find_same_count", {"reference": "cat", "target": "a", "options": ["tree"]}),
        ("find_starts_with", {"letter": "z", "options": ["zig", "zag", "hum"]}),
        ("swap_first_two_letters", {"word": "x"}),
        ("capitalization_difference", {"word1": "cat", "word2": "dog"}),
        ("count_letter_ignorecase", {"letter": "ab", "word": "cab"}),
        ("acronym_from_sentence", {"sentence": "   "}),
        ("replace_last_letter_s", {"word": ""}),
        ("swap_first_letters_across", {"words": ["only"]}),
        ("count_vowels", {}),
    ],
)
def test_oracle_preconditions(tid, params):
    with pytest.raises(OracleError):
        oracle(tid, params)


def test_unknown_template_raises():
    with pytest.raises(OracleError):
        oracle("no_such_template", {})
    with pytest.raises(OracleError):
        render_prompt("no_such_template", {})


# --- rendering ---------------------------------------------------------


def test_option_lists_render_in_bracket_quote_style():
    prompt = render_prompt(
        "find_starts_with", {"letter": "k", "options": ["apple", "kite", "moon"]}
    )
    assert "``['apple', 'kite', 'moon']``" in prompt
    assert "``k``" in prompt


def test_binary_prompts_state_the_return_convention():
    for tid in DATASET_TEMPLATES["truefalse"]:
        text = TEMPLATES[tid].text
        assert "return ``1``" in text and "return ``0``" in text


# --- generation --------------------------------------------------------


def test_generate_cycles_templates_uniformly(corpus):
    for dataset in DATASETS:
        k = len(DATASET_TEMPLATES[dataset])
        instances = generate(dataset, 3 * k + 1, rng_seed=5, corpus=corpus)
        counts = {}
        for inst in instances:
            counts[inst.template_id] = counts.get(inst.template_id, 0) + 1
        values = sorted(counts.values())
        assert values[-1] - values[0] <= 1
        assert set(counts) == set(DATASET_TEMPLATES[dataset])


def test_generate_is_deterministic(corpus):
    first = generate("truefalse", 30, rng_seed=99, corpus=corpus)
    second = generate("truefalse", 30, rng_seed=99, corpus=corpus)
    assert [i.to_json_dict() for i in first] == [i.to_json_dict() for i in second]
    third = generate("truefalse", 30, rng_seed=100, corpus=corpus)
    assert [i.to_json_dict() for i in first] != [i.to_json_dict() for i in third]


def test_generated_instances_verify_and_rerender(corpus):
    for dataset in DATASETS:
        for inst in generate(dataset, 12, rng_seed=3, corpus=corpus):
            again = oracle(inst.template_id, inst.seed_params)
            assert (again.kind, again.value) == (inst.gold.kind, inst.gold.value)
            assert render_prompt(inst.template_id, inst.seed_params) == inst.prompt
            assert inst.id.startswith(dataset + "-")
            assert inst.dataset == dataset


def test_ids_are_unique_and_content_derived(corpus):
    instances = generate("counting", 50, rng_seed=8, corpus=corpus)
    ids = [i.id for i in instances]
    assert len(set(ids)) == 50
    # same content, same id
    again = generate("counting", 50, rng_seed=8, corpus=corpus)
    assert ids == [i.id for i in again]


def test_instance_id_bytes_are_pinned():
    # task files written by earlier versions keep their ids
    instance_id = taskgen._instance_id("counting", "count_vowels", {"word": "bée", "n": 3})
    assert instance_id == "counting-ab116d694ee9"


def test_order_free_only_for_find_same_count(corpus):
    instances = generate("finding", 8, rng_seed=2, corpus=corpus)
    for inst in instances:
        assert inst.gold.order_free == (inst.template_id == "find_same_count")
    for inst in generate("generative", 10, rng_seed=2, corpus=corpus):
        assert not inst.gold.order_free


def test_generate_rejects_bad_arguments(corpus):
    with pytest.raises(GenerationError):
        generate("nope", 5, rng_seed=0, corpus=corpus)
    with pytest.raises(GenerationError):
        generate("finding", 0, rng_seed=0, corpus=corpus)
    tiny = WordCorpus(words=["ab", "cd"], sentences=["ab cd"])
    with pytest.raises(GenerationError):
        generate("finding", 5, rng_seed=0, corpus=tiny)


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(DATASETS))
@settings(max_examples=25, deadline=None)
def test_generate_handles_any_seed(corpus, seed, dataset):
    instances = generate(dataset, 6, rng_seed=seed, corpus=corpus)
    assert len(instances) == 6
    assert len({i.id for i in instances}) == 6


# --- persistence -------------------------------------------------------


def test_jsonl_round_trip(tmp_path, corpus):
    instances = generate("generative", 15, rng_seed=4, corpus=corpus)
    path = tmp_path / "tasks.jsonl"
    assert write_jsonl(instances, path) == 15
    loaded = read_jsonl(path)
    assert [i.to_json_dict() for i in loaded] == [i.to_json_dict() for i in instances]
    # rewriting what we loaded is byte-stable
    second = tmp_path / "again.jsonl"
    write_jsonl(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_instance_from_json_restores_order_free():
    record = {
        "id": "finding-abc",
        "dataset": "finding",
        "template_id": "find_same_count",
        "prompt": "p",
        "gold_kind": "list",
        "gold_value": ["hat"],
        "seed_params": {},
    }
    inst = instance_from_json(record)
    assert inst.gold.order_free
    record["template_id"] = "swap_first_letters_across"
    assert not instance_from_json(record).gold.order_free


def test_ground_truth_defaults():
    gt = GroundTruth("number", "3")
    assert not gt.order_free
