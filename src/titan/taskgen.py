"""Synthetic task datasets with deterministic ground-truth oracles.

Four dataset families (finding, counting, truefalse, generative) are
generated from fixed prompt templates over a word/sentence corpus. Every
template carries an oracle: a pure function of the template's fillers that
computes the gold answer by directly executing the task the prompt
describes. Generation cycles uniformly over a dataset's templates and is a
pure function of (dataset, count, rng_seed, corpus).

``finding`` draws scan the vocabulary at most once each. ``find_same_count``
reads a per-corpus letter index, the words holding each letter exactly once,
filled on first use of a letter and kept with the frozen ``WordCorpus``; for
the bundled corpus it costs about 0.5 MB once all 26 letters are drawn.
"""

from __future__ import annotations

import hashlib
import json
import random
import string as string_mod
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Optional

from .backend import canonical, json_lines
from .scoring import KINDS

DATASETS = ("finding", "counting", "truefalse", "generative")

MAX_SAMPLER_ATTEMPTS = 1000

_LOWER = string_mod.ascii_lowercase
_VOWELS = "aeiou"
_DIGITS = "0123456789"


class OracleError(ValueError):
    """Seed params violate a template's preconditions."""


class GenerationError(ValueError):
    """The corpus cannot satisfy a template within the attempt bound."""


@dataclass(frozen=True)
class GroundTruth:
    kind: str  # number | text | binary | list
    value: object  # str, or list of str for kind=list
    order_free: bool = False


@dataclass
class TaskInstance:
    id: str
    dataset: str
    prompt: str
    gold: GroundTruth
    template_id: Optional[str] = None
    seed_params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "dataset": self.dataset,
            "template_id": self.template_id,
            "prompt": self.prompt,
            "gold_kind": self.gold.kind,
            "gold_value": self.gold.value,
            "seed_params": self.seed_params,
        }


def instance_from_json(record: dict) -> TaskInstance:
    """A missing field raises ``KeyError``, a mistyped one ``ValueError``."""
    for name in ("id", "dataset", "prompt"):
        if not isinstance(record[name], str):
            raise ValueError(f"{name} must be a string")
    template_id = record.get("template_id")
    if not isinstance(template_id, (str, type(None))):
        raise ValueError("template_id must be a string or null")
    if record["gold_kind"] not in KINDS:
        raise ValueError(f"gold_kind must be one of {', '.join(KINDS)}")
    template = TEMPLATES.get(template_id)
    return TaskInstance(
        id=record["id"],
        dataset=record["dataset"],
        prompt=record["prompt"],
        gold=GroundTruth(
            kind=record["gold_kind"],
            value=record["gold_value"],
            order_free=template is not None and template.order_free,
        ),
        template_id=template_id,
        seed_params=record.get("seed_params") or {},
    )


@dataclass(frozen=True)
class WordCorpus:
    """Words and sentences, stored as tuples; frozen so the letter index never goes stale."""

    words: "tuple[str, ...]"
    sentences: "tuple[str, ...]"
    _once: "dict[str, tuple[str, ...]]" = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def holding_once(self, letter: str) -> "tuple[str, ...]":
        """The words that hold ``letter`` exactly once, in corpus order."""
        hits = self._once.get(letter)
        if hits is None:
            hits = tuple(w for w in self.words if w.count(letter) == 1)
            self._once[letter] = hits
        return hits

    @classmethod
    def bundled(cls) -> "WordCorpus":
        data = resources.files("titan").joinpath("data")
        with resources.as_file(data.joinpath("words.txt")) as words:
            with resources.as_file(data.joinpath("sentences.txt")) as sentences:
                return cls.from_paths(words, sentences)

    @classmethod
    def from_paths(cls, words_path, sentences_path) -> "WordCorpus":
        """Words split on whitespace; one sentence per non-blank line."""
        words = Path(words_path).read_text(encoding="utf-8").split()
        sentences = [
            line.strip()
            for line in Path(sentences_path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        return cls(words=words, sentences=sentences)


def default_manifest() -> dict:
    data = resources.files("titan").joinpath("data")
    return json.loads(data.joinpath("manifest.json").read_text(encoding="utf-8"))


def _render_word_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in words) + "]"


def _req(params: dict, key: str):
    if key not in params:
        raise OracleError(f"missing seed param {key!r}")
    return params[key]


# --- oracles -----------------------------------------------------------


def _oracle_find_without_substring(p: dict):
    target = _req(p, "target")
    options = _req(p, "options")
    hits = [w for w in options if target not in w]
    if len(hits) != 1:
        raise OracleError(
            f"expected exactly one option without {target!r}, found {len(hits)}"
        )
    return hits[0]


def _distinct_letter_count(word: str, letter1: str, letter2: str) -> int:
    collapsed = word.lower().replace(letter2, letter1)
    return len({c for c in collapsed if c.isalpha()})


def _oracle_find_most_distinct_letters(p: dict):
    letter1 = _req(p, "letter1")
    letter2 = _req(p, "letter2")
    options = _req(p, "options")
    counts = [_distinct_letter_count(w, letter1, letter2) for w in options]
    best = max(counts)
    winners = [w for w, c in zip(options, counts) if c == best]
    if len(winners) != 1:
        raise OracleError("no unique word with the most distinct letters")
    return winners[0]


def _oracle_find_same_count(p: dict):
    reference = _req(p, "reference")
    target = _req(p, "target")
    options = _req(p, "options")
    if reference.count(target) != 1:
        raise OracleError(f"reference {reference!r} must contain {target!r} exactly once")
    matches = [w for w in options if w.count(target) == 1]
    if not matches:
        raise OracleError("no option matches the reference count")
    return matches


def _oracle_find_starts_with(p: dict):
    letter = _req(p, "letter")
    options = _req(p, "options")
    hits = [w for w in options if w.startswith(letter)]
    if len(hits) != 1:
        raise OracleError(
            f"expected exactly one option starting with {letter!r}, found {len(hits)}"
        )
    return hits[0]


def _oracle_count_long_words(p: dict):
    sentence = _req(p, "sentence")
    count = sum(1 for token in sentence.split() if len(token) >= 4)
    return str(count)


def _oracle_count_digits(p: dict):
    word = _req(p, "word")
    return str(sum(1 for ch in word if ch.isdigit()))


def _oracle_count_letter_ignorecase(p: dict):
    letter = _req(p, "letter")
    word = _req(p, "word")
    if len(letter) != 1:
        raise OracleError("letter must be a single character")
    return str(word.lower().count(letter.lower()))


def _oracle_count_distinct_letters(p: dict):
    word = _req(p, "word")
    return str(len({c for c in word.lower() if c.isalpha()}))


def _oracle_count_vowels(p: dict):
    word = _req(p, "word")
    return str(sum(1 for c in word.lower() if c in _VOWELS))


def _oracle_space_in_words(p: dict):
    _req(p, "word1")
    word2 = _req(p, "word2")
    return "1" if " " in word2 else "0"


def _oracle_capitalization_difference(p: dict):
    word1 = _req(p, "word1")
    word2 = _req(p, "word2")
    if word1.casefold() != word2.casefold():
        raise OracleError("words must agree ignoring case")
    return "1" if word1 != word2 else "0"


def _oracle_more_than_three_spaces(p: dict):
    sentence = _req(p, "sentence")
    return "1" if sentence.count(" ") > 3 else "0"


def _oracle_repeated_word(p: dict):
    tokens = _req(p, "sentence").split()
    return "1" if len(set(tokens)) < len(tokens) else "0"


def _oracle_spelling_difference(p: dict):
    letter1 = _req(p, "letter1")
    letter2 = _req(p, "letter2")
    word1 = _req(p, "word1")
    word2 = _req(p, "word2")
    canon1 = word1.replace(letter2, letter1)
    canon2 = word2.replace(letter2, letter1)
    return "1" if canon1 != canon2 else "0"


def _oracle_acronym_from_sentence(p: dict):
    tokens = _req(p, "sentence").split()
    if not tokens:
        raise OracleError("sentence has no words")
    return "".join(t[0] for t in tokens)


def _oracle_swap_first_two_letters(p: dict):
    word = _req(p, "word")
    if len(word) < 2:
        raise OracleError("word must have at least two letters")
    return word[1] + word[0] + word[2:]


def _oracle_replace_last_letter_s(p: dict):
    word = _req(p, "word")
    if not word:
        raise OracleError("word is empty")
    return word[:-1] + "s"


def _oracle_capitalize_first_letter(p: dict):
    word = _req(p, "word")
    if not word:
        raise OracleError("word is empty")
    return word[0].upper() + word[1:]


def _oracle_swap_first_letters_across(p: dict):
    words = _req(p, "words")
    if len(words) < 2:
        raise OracleError("need at least two words")
    if any(not w for w in words):
        raise OracleError("words must be non-empty")
    swapped = [words[(i + 1) % len(words)][0] + words[i][1:] for i in range(len(words))]
    return swapped


# --- samplers ----------------------------------------------------------


def _pick(rng: random.Random, items, predicate=None):
    if predicate is None:
        return rng.choice(items)
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        candidate = rng.choice(items)
        if predicate(candidate):
            return candidate
    raise GenerationError("corpus cannot satisfy a filler predicate")


def _nth_outside(taken: "list[int]", n: int) -> int:
    """The ``n``-th (from 0) non-negative index absent from ascending ``taken``."""
    lo, hi = n, n + len(taken)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid - bisect_right(taken, mid) < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _sample_find_without_substring(rng: random.Random, corpus: WordCorpus) -> dict:
    words = corpus.words
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        base = _pick(rng, words, lambda w: len(w) >= 3)
        length = rng.choice((1, 2, 2, 3))
        length = min(length, len(base))
        start = rng.randrange(0, len(base) - length + 1)
        target = base[start : start + length]
        hits = [i for i, w in enumerate(words) if target in w]
        if len(hits) < 2 or len(hits) == len(words):
            continue
        picked = [words[i] for i in rng.sample(hits, 2)]
        # draws as rng.choice(lacking) would, without building the lacking list
        lacking = rng.choice(range(len(words) - len(hits)))
        picked.append(words[_nth_outside(hits, lacking)])
        if len(set(picked)) != 3:
            continue
        rng.shuffle(picked)
        return {"target": target, "options": picked}
    raise GenerationError("find_without_substring: no viable substring found")


def _sample_find_most_distinct_letters(rng: random.Random, corpus: WordCorpus) -> dict:
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        letter1, letter2 = rng.sample(_LOWER, 2)
        options = rng.sample(corpus.words, 3)
        counts = [_distinct_letter_count(w, letter1, letter2) for w in options]
        if counts.count(max(counts)) == 1:
            return {"letter1": letter1, "letter2": letter2, "options": options}
    raise GenerationError("find_most_distinct_letters: no unique winner found")


def _sample_find_same_count(rng: random.Random, corpus: WordCorpus) -> dict:
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        target = rng.choice(_LOWER)
        with_one = corpus.holding_once(target)
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


def _sample_find_starts_with(rng: random.Random, corpus: WordCorpus) -> dict:
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        winner = rng.choice(corpus.words)
        letter = winner[0]
        others = rng.sample(corpus.words, 2)
        if winner in others or any(w.startswith(letter) for w in others):
            continue
        options = [winner] + others
        rng.shuffle(options)
        return {"letter": letter, "options": options}
    raise GenerationError("find_starts_with: no viable option set found")


def _sample_count_long_words(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"sentence": rng.choice(corpus.sentences)}


def _sample_count_digits(rng: random.Random, corpus: WordCorpus) -> dict:
    word = rng.choice(corpus.words)
    chars = list(word)
    for _ in range(rng.randint(0, 4)):
        chars.insert(rng.randrange(0, len(chars) + 1), rng.choice(_DIGITS))
    return {"word": "".join(chars)}


def _mixed_case(rng: random.Random, word: str, p: float = 0.3) -> str:
    return "".join(c.upper() if rng.random() < p else c for c in word)


def _sample_count_letter_ignorecase(rng: random.Random, corpus: WordCorpus) -> dict:
    base = rng.choice(corpus.words)
    word = _mixed_case(rng, base)
    if rng.random() < 0.8:
        letter = rng.choice(sorted(set(base)))
    else:
        letter = rng.choice(_LOWER)
    if rng.random() < 0.3:
        letter = letter.upper()
    return {"letter": letter, "word": word}


def _sample_count_distinct_letters(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"word": _mixed_case(rng, rng.choice(corpus.words))}


def _sample_count_vowels(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"word": rng.choice(corpus.words)}


def _word_or_phrase(rng: random.Random, corpus: WordCorpus) -> str:
    if rng.random() < 0.5:
        return rng.choice(corpus.words)
    return rng.choice(corpus.words) + " " + rng.choice(corpus.words)


def _sample_space_in_words(rng: random.Random, corpus: WordCorpus) -> dict:
    return {
        "word1": _word_or_phrase(rng, corpus),
        "word2": _word_or_phrase(rng, corpus),
    }


def _sample_capitalization_difference(rng: random.Random, corpus: WordCorpus) -> dict:
    base = rng.choice(corpus.words)
    if rng.random() < 0.5:
        position = rng.randrange(0, len(base))
        variant = base[:position] + base[position].upper() + base[position + 1 :]
        return {"word1": base, "word2": variant}
    return {"word1": base, "word2": base}


def _sample_more_than_three_spaces(rng: random.Random, corpus: WordCorpus) -> dict:
    tokens = rng.choice(corpus.sentences).split()
    keep = rng.randint(2, min(7, len(tokens)))
    return {"sentence": " ".join(tokens[:keep])}


def _sample_repeated_word(rng: random.Random, corpus: WordCorpus) -> dict:
    tokens = rng.choice(corpus.sentences).split()
    if rng.random() < 0.5:
        tokens.insert(rng.randrange(0, len(tokens) + 1), rng.choice(tokens))
    return {"sentence": " ".join(tokens)}


def _sample_spelling_difference(rng: random.Random, corpus: WordCorpus) -> dict:
    for _ in range(MAX_SAMPLER_ATTEMPTS):
        letter1, letter2 = rng.sample(_LOWER, 2)
        if rng.random() < 0.5:
            word1 = _pick(rng, corpus.words, lambda w: letter1 in w)
            index = word1.index(letter1)
            word2 = word1[:index] + letter2 + word1[index + 1 :]
            return {
                "letter1": letter1,
                "letter2": letter2,
                "word1": word1,
                "word2": word2,
            }
        word1, word2 = rng.sample(corpus.words, 2)
        if word1.replace(letter2, letter1) != word2.replace(letter2, letter1):
            return {
                "letter1": letter1,
                "letter2": letter2,
                "word1": word1,
                "word2": word2,
            }
    raise GenerationError("spelling_difference: no viable word pair found")


def _sample_acronym_from_sentence(rng: random.Random, corpus: WordCorpus) -> dict:
    tokens = rng.choice(corpus.sentences).split()
    keep = rng.randint(4, min(8, len(tokens)))
    return {"sentence": " ".join(tokens[:keep])}


def _sample_swap_first_two_letters(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"word": _pick(rng, corpus.words, lambda w: len(w) >= 2)}


def _sample_replace_last_letter_s(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"word": rng.choice(corpus.words)}


def _sample_capitalize_first_letter(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"word": rng.choice(corpus.words)}


def _sample_swap_first_letters_across(rng: random.Random, corpus: WordCorpus) -> dict:
    return {"words": rng.sample(corpus.words, rng.randint(2, 4))}


# --- template registry -------------------------------------------------


@dataclass(frozen=True)
class Template:
    template_id: str
    dataset: str
    gold_kind: str
    text: str
    sampler: Callable
    oracle: Callable  # seed params -> the gold's value
    order_free: bool = False  # a list gold matches in any order


TEMPLATES: "dict[str, Template]" = {}


def _register(*fields, **flags) -> None:
    template = Template(*fields, **flags)
    TEMPLATES[template.template_id] = template


_register(
    "find_without_substring",
    "finding",
    "text",
    "Choose the word from the three options provided that does not have "
    "``{target}`` within it. The single word given is: ``{options}``.",
    _sample_find_without_substring,
    _oracle_find_without_substring,
)
_register(
    "find_most_distinct_letters",
    "finding",
    "text",
    "Taking into account that ``{letter1}`` is identical to ``{letter2}``, "
    "seek out the word among these three that has the most unique letter "
    "count. The words are ``{options}``.",
    _sample_find_most_distinct_letters,
    _oracle_find_most_distinct_letters,
)
_register(
    "find_same_count",
    "finding",
    "list",
    "Assuming ``{reference}`` has precisely one ``{target}``, identify from "
    "the list below the word(s) that also contain exactly one ``{target}``. "
    "The list includes: ``{options}``.",
    _sample_find_same_count,
    _oracle_find_same_count,
    # asks for "the word(s)" without imposing an order;
    # swap_first_letters_across returns positionally aligned outputs, so it
    # stays ordered even though both carry list golds
    order_free=True,
)
_register(
    "find_starts_with",
    "finding",
    "text",
    "Among the three words listed, select the one that initiates with "
    "``{letter}``. The words for consideration are ``{options}``.",
    _sample_find_starts_with,
    _oracle_find_starts_with,
)
_register(
    "count_long_words",
    "counting",
    "number",
    "Excluding words that have fewer than four letters, how many words, "
    "spaced apart by 'space', exist in this sentence? The input is: "
    "{sentence}.",
    _sample_count_long_words,
    _oracle_count_long_words,
)
_register(
    "count_digits",
    "counting",
    "number",
    "How many numeric characters are found in ``{word}``?",
    _sample_count_digits,
    _oracle_count_digits,
)
_register(
    "count_letter_ignorecase",
    "counting",
    "number",
    "What is the count of ``{letter}`` in ``{word}`` when ignoring "
    "uppercase letters?",
    _sample_count_letter_ignorecase,
    _oracle_count_letter_ignorecase,
)
_register(
    "count_distinct_letters",
    "counting",
    "number",
    "What is the total number of distinct letters in ``{word}``, "
    "disregarding case?",
    _sample_count_distinct_letters,
    _oracle_count_distinct_letters,
)
_register(
    "count_vowels",
    "counting",
    "number",
    "How many vowels can be found in the ``{word}``",
    _sample_count_vowels,
    _oracle_count_vowels,
)
_register(
    "space_in_words",
    "truefalse",
    "binary",
    "If there is a space in ``{word1}``, is there any space in ``{word2}``? "
    "If there is a space return ``1``, otherwise return ``0``.",
    _sample_space_in_words,
    _oracle_space_in_words,
)
_register(
    "capitalization_difference",
    "truefalse",
    "binary",
    "Is there a capitalization difference between ``{word1}`` and "
    "``{word2}``? If there is a difference return ``1``, otherwise return "
    "``0``.",
    _sample_capitalization_difference,
    _oracle_capitalization_difference,
)
_register(
    "more_than_three_spaces",
    "truefalse",
    "binary",
    "Does this sentence has more than 3 spaces? ``{sentence}`` If there "
    "are more than 3 spaces return ``1``, otherwise return ``0``.",
    _sample_more_than_three_spaces,
    _oracle_more_than_three_spaces,
)
_register(
    "repeated_word",
    "truefalse",
    "binary",
    "Is there any repeated word in the following sentence? ``{sentence}`` "
    "If there are repeated words return ``1``, otherwise return ``0``.",
    _sample_repeated_word,
    _oracle_repeated_word,
)
_register(
    "spelling_difference",
    "truefalse",
    "binary",
    "If we assume the letter ``{letter1}`` is equal to the letter "
    "``{letter2}``, is there any spelling difference between ``{word1}`` "
    "and ``{word2}``? If there is a difference return ``1``, otherwise "
    "return ``0``.",
    _sample_spelling_difference,
    _oracle_spelling_difference,
)
_register(
    "acronym_from_sentence",
    "generative",
    "text",
    "Take the first letter of each word within the specified sentence, "
    "join these letters to construct and return a new word. Words are "
    "spaced apart. The input is: ``{sentence}``",
    _sample_acronym_from_sentence,
    _oracle_acronym_from_sentence,
)
_register(
    "swap_first_two_letters",
    "generative",
    "text",
    "Switch the initial two letters of the word provided and return the "
    "word thus generated. The input is: ``{word}``",
    _sample_swap_first_two_letters,
    _oracle_swap_first_two_letters,
)
_register(
    "replace_last_letter_s",
    "generative",
    "text",
    "Replace the final letter of the given word with an 's' and return "
    "the newly formed word. The input is: ``{word}``",
    _sample_replace_last_letter_s,
    _oracle_replace_last_letter_s,
)
_register(
    "capitalize_first_letter",
    "generative",
    "text",
    "Capitalize the first character of the given word and return the word "
    "with the adjustment. The input is: ``{word}``",
    _sample_capitalize_first_letter,
    _oracle_capitalize_first_letter,
)
_register(
    "swap_first_letters_across",
    "generative",
    "list",
    "Replace the first letters of the words with each other and return "
    "the adjusted versions as the response. The words are: ``{words}``",
    _sample_swap_first_letters_across,
    _oracle_swap_first_letters_across,
)

DATASET_TEMPLATES = {
    dataset: [t.template_id for t in TEMPLATES.values() if t.dataset == dataset]
    for dataset in DATASETS
}


def render_prompt(template_id: str, seed_params: dict) -> str:
    template = TEMPLATES.get(template_id)
    if template is None:
        raise OracleError(f"unknown template {template_id!r}")
    prepared = {
        key: _render_word_list(value) if isinstance(value, (list, tuple)) else value
        for key, value in seed_params.items()
    }
    try:
        return template.text.format(**prepared)
    except KeyError as exc:
        raise OracleError(f"missing seed param {exc.args[0]!r}") from None


def oracle(template_id: str, seed_params: dict) -> GroundTruth:
    template = TEMPLATES.get(template_id)
    if template is None:
        raise OracleError(f"unknown template {template_id!r}")
    value = template.oracle(seed_params)
    return GroundTruth(template.gold_kind, value, template.order_free)


def _instance_id(dataset: str, template_id: str, seed_params: dict) -> str:
    blob = canonical(
        {"dataset": dataset, "template_id": template_id, "seed_params": seed_params}
    )
    return f"{dataset}-{hashlib.sha256(blob.encode('utf-8')).hexdigest()[:12]}"


def generate(
    dataset: str, count: int, rng_seed: int, corpus: Optional[WordCorpus] = None
) -> "list[TaskInstance]":
    """Produce ``count`` instances, cycling uniformly over the templates."""
    if dataset not in DATASETS:
        raise GenerationError(f"unknown dataset {dataset!r}")
    if count < 1:
        raise GenerationError("count must be >= 1")
    if corpus is None:
        corpus = WordCorpus.bundled()
    if len(corpus.words) < 10 or not corpus.sentences:
        raise GenerationError("corpus too small")

    rng = random.Random(rng_seed)
    template_ids = DATASET_TEMPLATES[dataset]
    instances = []
    seen_ids = set()
    for i in range(count):
        template = TEMPLATES[template_ids[i % len(template_ids)]]
        for attempt in range(MAX_SAMPLER_ATTEMPTS):
            params = template.sampler(rng, corpus)
            instance_id = _instance_id(dataset, template.template_id, params)
            if instance_id not in seen_ids:
                break
        else:
            raise GenerationError(
                f"{template.template_id}: could not draw a fresh instance"
            )
        seen_ids.add(instance_id)
        instances.append(
            TaskInstance(
                id=instance_id,
                dataset=dataset,
                prompt=render_prompt(template.template_id, params),
                gold=oracle(template.template_id, params),
                template_id=template.template_id,
                seed_params=params,
            )
        )
    return instances


# --- persistence and external benchmarks -------------------------------


def write_jsonl(instances: Iterable[TaskInstance], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(canonical(instance.to_json_dict()) + "\n")
            count += 1
    return count


def read_jsonl(path) -> "list[TaskInstance]":
    """Load a task file; a bad line raises ``ValueError`` naming ``path:line``."""
    instances = []
    with open(path, "rb") as fh:
        for where, record in json_lines(fh, path):
            try:
                instances.append(instance_from_json(record))
            except KeyError as exc:
                raise ValueError(f"{where}: missing field {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return instances
