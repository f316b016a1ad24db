import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titan import taskgen
from titan.taskgen import (
    DATASET_TEMPLATES,
    DATASETS,
    TEMPLATES,
    MAX_SAMPLER_ATTEMPTS,
    GenerationError,
    GroundTruth,
    OracleError,
    WordCorpus,
    _LOWER,
    _pick,
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


# --- pinned generation bytes --------------------------------------------

# sha256 of write_jsonl(generate(dataset, 256, seed)) over the bundled
# corpus; any change to a sampler's draws or to the instance format shows here
PINNED_SHA256 = {
    (0, "finding"): "0bf5090327bb1ce07479393eb56286bcde3926efec3fc1fec197889959e2a17e",
    (0, "counting"): "68608e74542bb71c24f213c7fa62ad75d8f965c6bd9327217278fcd9f42328b3",
    (0, "truefalse"): "71e54074c3d02f1759d204bdacabbf54b3a976d30eba207fa0f5a82e053e3df8",
    (0, "generative"): "5643aef660451135ff0a6dc4da9aeafb94d10ef22d01ac7191f020d2bf0bfb55",
    (1, "finding"): "692c0e87a35c2f79fd168460bbe4561d90fa85f1fc86a859c41bd46e9592a1df",
    (1, "counting"): "c2ad2d268ec12125cdd9f925dd8274df96d7411dec3252a3b4f7a7debf46e526",
    (1, "truefalse"): "77bfe5a33a647afbf56a032d4404e50c0c54e729a8df6da9c22f631588db7ae1",
    (1, "generative"): "d64e76e6b9ba6d904c8578a5942cb90c4ba34a4eaece74cb0444114be39fe269",
}


@pytest.mark.parametrize("seed,dataset", sorted(PINNED_SHA256))
def test_generated_bytes_are_pinned(tmp_path, corpus, seed, dataset):
    path = tmp_path / "tasks.jsonl"
    write_jsonl(generate(dataset, 256, rng_seed=seed, corpus=corpus), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[seed, dataset]


# --- sampler draws match the full-scan samplers ---------------------------
# The two functions below are the samplers as they were before the per-letter
# index, kept verbatim: every draw of the current samplers must match them.


def _reference_find_without_substring(rng, corpus):
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        base = _pick(rng, corpus.words, lambda w: len(w) >= 3)
        length = rng.choice((1, 2, 2, 3))
        length = min(length, len(base))
        start = rng.randrange(0, len(base) - length + 1)
        target = base[start : start + length]
        containing = [w for w in corpus.words if target in w]
        lacking = [w for w in corpus.words if target not in w]
        if len(containing) < 2 or not lacking:
            continue
        picked = rng.sample(containing, 2) + [rng.choice(lacking)]
        if len(set(picked)) != 3:
            continue
        rng.shuffle(picked)
        return {"target": target, "options": picked}
    raise GenerationError("find_without_substring: no viable substring found")


def _reference_find_same_count(rng, corpus):
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        target = rng.choice(_LOWER)
        with_one = [w for w in corpus.words if w.count(target) == 1]
        if len(with_one) < 2:
            continue
        reference = rng.choice(with_one)
        options = rng.sample(corpus.words, 3)
        if reference in options:
            continue
        if not any(w.count(target) == 1 for w in options):
            continue
        return {"reference": reference, "target": target, "options": options}
    raise GenerationError("find_same_count: no viable reference/options found")


SMALL_CORPORA = {
    # "q" and "z" are each held once by a single word: len(with_one) < 2
    "lone_letter": ["cat", "cot", "act", "tack", "coat", "quit", "zoo", "taco"],
    # every word holds "ab": targets "a", "b" and "ab" leave nothing lacking
    "shared_substring": ["abc", "abd", "cab", "dab", "abba", "tabs", "crab"],
    # duplicates make rng.sample pick the same word twice
    "duplicates": ["cat", "cat", "cat", "cot", "dog", "dog", "cog", "act"],
    # no draw can succeed: every attempt is spent, then GenerationError
    "hopeless": ["aaa", "aaa", "aaa", "aaa"],
    # a --words file may hold any character: the index keys on characters
    "any_character": [
        "café", "Café", "naïve", "NAÏVE", "don't", "it's", "R2D2", "b52s",
        "über", "tea", "cat", "x-ray", "Zoë", "ça", "100%", "l'été",
    ],
}


def _draw(sampler, seed, corpus):
    rng = random.Random(seed)
    try:
        result = sampler(rng, corpus)
    except GenerationError as exc:
        result = ("raised", str(exc))
    return result, rng.getstate()


@pytest.mark.parametrize(
    "sampler,reference",
    [
        (taskgen._sample_find_without_substring, _reference_find_without_substring),
        (taskgen._sample_find_same_count, _reference_find_same_count),
    ],
    ids=["find_without_substring", "find_same_count"],
)
@pytest.mark.parametrize("corpus_name", ["bundled"] + sorted(SMALL_CORPORA))
def test_samplers_draw_like_the_full_scan(corpus, sampler, reference, corpus_name):
    if corpus_name != "bundled":
        corpus = WordCorpus(words=SMALL_CORPORA[corpus_name], sentences=["a b"])
    # a hopeless corpus spends every attempt on each seed, so it gets fewer
    for seed in range(20 if corpus_name == "hopeless" else 200):
        assert _draw(sampler, seed, corpus) == _draw(reference, seed, corpus), seed


def test_nth_outside_skips_taken_indices():
    taken = [0, 2, 3, 7]
    outside = [i for i in range(12) if i not in taken]
    assert [taskgen._nth_outside(taken, n) for n in range(len(outside))] == outside
    assert taskgen._nth_outside([], 5) == 5


def _scan_holding(words, c):
    return [i for i, w in enumerate(words) if c in w]


def test_letter_index_never_goes_stale(corpus):
    def corpus_of(words):
        return WordCorpus(words=words, sentences=corpus.sentences)

    words_a = list(corpus.words[:500])
    words_b = list(corpus.words[500:1000])
    first = corpus_of(words_a)
    for used, words in [(first, words_a), (corpus_of(words_b), words_b), (first, words_a)]:
        got = generate("finding", 64, rng_seed=11, corpus=used)
        fresh = generate("finding", 64, rng_seed=11, corpus=corpus_of(words))
        assert [i.to_json_dict() for i in got] == [i.to_json_dict() for i in fresh]
        for c in "ceq":
            assert list(used.holding(c)) == _scan_holding(words, c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.words = tuple(words_b)
    assert first.words == tuple(words_a) and isinstance(first.sentences, tuple)
    assert first.holding_once("c") == tuple(w for w in words_a if w.count("c") == 1)


@pytest.mark.parametrize("corpus_name", ["bundled"] + sorted(SMALL_CORPORA))
def test_holding_lists_every_character_like_a_full_scan(corpus, corpus_name):
    if corpus_name != "bundled":
        corpus = WordCorpus(words=SMALL_CORPORA[corpus_name], sentences=["a b"])
    chars = set("".join(corpus.words))
    for c in chars:
        assert list(corpus.holding(c)) == _scan_holding(corpus.words, c), c
    absent = next(c for c in "\x00€#" if c not in chars)
    assert list(corpus.holding(absent)) == []
    for letter in _LOWER:
        assert corpus.holding_once(letter) == tuple(
            w for w in corpus.words if w.count(letter) == 1
        )


class _CountedWords(tuple):
    """A tuple that counts the passes iteration makes over it to the end."""

    passes = 0

    def __iter__(self):
        yield from super().__iter__()
        self.passes += 1


def _counted_corpus(corpus):
    fresh = WordCorpus(words=corpus.words, sentences=corpus.sentences)
    object.__setattr__(fresh, "words", _CountedWords(corpus.words))
    return fresh


def test_finding_scans_the_vocabulary_at_most_once(corpus):
    counted = _counted_corpus(corpus)
    plain = generate("finding", 256, rng_seed=0, corpus=corpus)
    got = generate("finding", 256, rng_seed=0, corpus=counted)
    assert [i.to_json_dict() for i in got] == [i.to_json_dict() for i in plain]
    assert counted.words.passes <= 1


@pytest.mark.parametrize("dataset", ["counting", "truefalse", "generative"])
def test_other_families_never_build_the_word_indexes(corpus, dataset):
    counted = _counted_corpus(corpus)
    generate(dataset, 256, rng_seed=0, corpus=counted)
    assert counted.words.passes == 0
    assert "_holding" not in vars(counted) and counted._once == {}
