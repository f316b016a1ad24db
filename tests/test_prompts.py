import hashlib
import shutil
from importlib import resources

import pytest

from titan import prompts, scoring
from titan.prompts import (
    TEMPLATE_FILES,
    TemplateError,
    build_codegen,
    build_input_extraction,
    build_pal_zs,
    build_step_extraction,
    load_templates,
    messages_for,
)

QUESTION = (
    "Ed had 22 more marbles than Doug. Doug lost 8 of his marbles at the "
    "playground. How many more marbles did Ed have than Doug then?"
)

# Frozen digests of the bundled template assets. A wording change must be
# deliberate: update these constants in the same commit.
TEMPLATE_SHA256 = {
    "input_extraction.txt": "69637ca1737bae50b9c1fb21fa9e621361c307f1ec46af6c5ded2b65a720f376",
    "step_extraction.txt": "10b7733ed72cdebadb1ad8df1ab9a2416ed8a43089dae3763cd41a288988f82e",
    "codegen_base.txt": "10d2c783520424b383a621a0a6c8196e9da163a0a43f86e72db49d151946cfc4",
    "codegen_steps.txt": "5ffb15e0b51db2e78a3fc5c2649df446e02d7b735576b0b8aa72831d421c0b82",
    "codegen_inputs.txt": "3b6f8a161adadafac8df3327ce374209d7a92c6cdea85bbf70459939665bed5d",
    "pal_zs.txt": "2a8aa1e8b84502e2a0bcac6f2d549ffbb7abbe8d74f467088feeb14b58e5d7c5",
}


def _asset_bytes(name):
    return resources.files("titan").joinpath("templates").joinpath(name).read_bytes()


def test_bundled_templates_are_pinned():
    assert set(TEMPLATE_SHA256) == set(TEMPLATE_FILES)
    for name, expected in TEMPLATE_SHA256.items():
        assert hashlib.sha256(_asset_bytes(name)).hexdigest() == expected, name


def test_verbatim_anchor_phrases(library):
    p1 = build_input_extraction(QUESTION, library)
    assert (
        "Take a step back and extract all the inputs mentioned in the "
        "client's query" in p1
    )
    p2 = build_step_extraction(QUESTION, library)
    assert "should guide us step by step on how to solve this problem" in p2
    p3 = build_codegen(QUESTION, library)
    assert (
        "Generate a general Python function to solve the following question "
        "for general purpose: " in p3
    )
    clause = build_codegen(QUESTION, library, steps="S", inputs="I")
    assert (
        'This is an example to show you how to think about it and how to '
        'break it into smaller steps: "S"' in clause
    )
    assert 'For the inputs, use "I"' in clause


def test_codegen_clause_order_and_joining(library):
    full = build_codegen(QUESTION, library, steps="STEPS", inputs="INPUTS")
    base_at = full.index("Generate a general Python function")
    steps_at = full.index("smaller steps")
    inputs_at = full.index("For the inputs")
    assert base_at < steps_at < inputs_at
    assert full.count("\n\n") == 2


def test_ablations_drop_exactly_one_clause(library):
    no_inputs = build_codegen(QUESTION, library, steps="STEPS")
    assert "smaller steps" in no_inputs and "For the inputs" not in no_inputs
    no_steps = build_codegen(QUESTION, library, inputs="INPUTS")
    assert "For the inputs" in no_steps and "smaller steps" not in no_steps
    bare = build_codegen(QUESTION, library)
    assert "smaller steps" not in bare and "For the inputs" not in bare


def test_question_appears_exactly_once(library):
    for text in (
        build_input_extraction(QUESTION, library),
        build_step_extraction(QUESTION, library),
        build_codegen(QUESTION, library, steps="S", inputs="I"),
        build_pal_zs(QUESTION, library),
    ):
        assert text.count(QUESTION) == 1


def test_pal_prompt_requests_solution_function(library):
    text = build_pal_zs(QUESTION, library)
    assert text.startswith(QUESTION)
    assert "solution()" in text


def test_braces_in_question_survive(library):
    tricky = "Compute {x} for x in {1, 2} and report len({}) too"
    assert tricky in build_codegen(tricky, library)
    assert tricky in build_input_extraction(tricky, library)


def test_phase_outputs_are_stripped_before_embedding(library):
    text = build_codegen(QUESTION, library, steps="  S  \n\n", inputs="\nI\n")
    assert '"S"' in text and '"I"' in text


def test_templates_are_zero_shot():
    for name in TEMPLATE_FILES:
        text = _asset_bytes(name).decode("utf-8")
        assert "def " not in text, name
        assert scoring.RESULT_BEGIN not in text, name
        assert scoring.RESULT_END not in text, name


def test_messages_shapes():
    assert messages_for("hi") == [{"role": "user", "content": "hi"}]
    with_system = messages_for("hi", system="be brief")
    assert with_system[0] == {"role": "system", "content": "be brief"}
    assert with_system[1]["role"] == "user"


def test_phase_constants_are_distinct():
    phases = {prompts.PHASE_INPUT, prompts.PHASE_STEPS, prompts.PHASE_CODEGEN}
    assert len(phases) == 3


def test_templates_dir_override(tmp_path):
    for name in TEMPLATE_FILES:
        (tmp_path / name).write_bytes(_asset_bytes(name))
    (tmp_path / "codegen_base.txt").write_text(
        "Write code for this: {question}", encoding="utf-8"
    )
    library = load_templates(str(tmp_path))
    assert build_codegen("Q", library) == "Write code for this: Q"


def test_partial_override_dir_is_rejected(tmp_path):
    (tmp_path / "codegen_base.txt").write_text("{question}", encoding="utf-8")
    with pytest.raises(TemplateError):
        load_templates(str(tmp_path))


def test_missing_placeholder_is_rejected(tmp_path):
    for name in TEMPLATE_FILES:
        (tmp_path / name).write_bytes(_asset_bytes(name))
    (tmp_path / "pal_zs.txt").write_text("no placeholder here", encoding="utf-8")
    with pytest.raises(TemplateError):
        load_templates(str(tmp_path))


def test_trailing_newlines_do_not_leak(tmp_path):
    for name in TEMPLATE_FILES:
        (tmp_path / name).write_bytes(_asset_bytes(name) + b"\n\n")
    library = load_templates(str(tmp_path))
    assert build_pal_zs("Q", library) == prompts.build_pal_zs(
        "Q", load_templates()
    )


def test_library_text_accessor():
    library = load_templates()
    assert isinstance(library, dict)
    assert "{question}" in library["codegen_base.txt"]
