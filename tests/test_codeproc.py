import ast
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titan import codeproc
from titan.codeproc import (
    ERROR_NEEDS_ARGUMENTS,
    ERROR_NO_CODE,
    ERROR_UNREPAIRABLE,
    HARNESS_MARKER,
    extract_code,
    process_response,
    repair,
)
from titan.scoring import RESULT_BEGIN, RESULT_END


def split_harness(repaired: str) -> "tuple[str, str]":
    """Split a repaired script back into (body, harness) at the marker."""
    index = repaired.find(HARNESS_MARKER)
    if index < 0:
        return repaired, ""
    return repaired[:index].rstrip("\n"), repaired[index:]


FIGURE_SCRIPT = """def solution():
    initial_difference = 22
    doug_lost = 8
    new_difference = initial_difference + doug_lost
    return new_difference
"""


# --- fence extraction --------------------------------------------------


def test_first_python_fence_wins():
    doc = (
        "Here is some text\n```\nnot this\n```\n"
        "```python\nx = 1\n```\n```python\ny = 2\n```\n"
    )
    assert extract_code(doc) == "x = 1"


def test_python_tag_is_case_insensitive():
    assert extract_code("```Python\nx = 1\n```") == "x = 1"
    assert extract_code("```PYTHON\nx = 2\n```") == "x = 2"


def test_any_fence_when_no_python_fence():
    doc = "explanation\n```\na = 5\n```\nafter"
    assert extract_code(doc) == "a = 5"


def test_unclosed_trailing_fence_is_tolerated():
    doc = "```python\nx = 1\nprint(x)"
    assert extract_code(doc) == "x = 1\nprint(x)"


def test_bare_heuristic_finds_code_run_and_drops_prose():
    doc = "Sure, here you go.\nx = 1\nprint(x + 1)\nHope that helps!"
    assert extract_code(doc) == "x = 1\nprint(x + 1)"


def test_bare_heuristic_keeps_indented_bodies():
    doc = "The function:\ndef solution():\n    return 9\nThat's all."
    assert extract_code(doc) == "def solution():\n    return 9"


def test_pure_prose_yields_none():
    assert extract_code("I am sorry, I cannot write that program.") is None
    assert extract_code("") is None


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_extract_code_never_raises(doc):
    result = extract_code(doc)
    assert result is None or isinstance(result, str)


@given(st.sampled_from(["x = 1", "def f():\n    return 2", "print(3)"]),
       st.text(alphabet=st.characters(blacklist_characters="`"), max_size=80))
def test_fenced_payload_round_trips(code, prose):
    doc = f"{prose}\n```python\n{code}\n```\n{prose}"
    assert extract_code(doc) == code


# --- repair ------------------------------------------------------------


def test_clean_script_gets_only_harness():
    script = repair(FIGURE_SCRIPT)
    assert script.error is None
    assert script.repairs == ["harness_injected"]
    assert script.entry == ("solution", 0)
    assert script.repaired.count(HARNESS_MARKER) == 1
    assert RESULT_BEGIN in script.repaired and RESULT_END in script.repaired


def test_leading_tabs_are_expanded():
    script = process_response("```python\ndef solution():\n\treturn 5\n```")
    assert script.error is None
    assert script.repairs == ["fence_extracted", "indent_fixed", "harness_injected"]
    assert "\t" not in split_harness(script.repaired)[0]


def test_flush_left_body_is_reindented():
    script = process_response("```python\ndef solution():\nreturn 42\n```")
    assert script.error is None
    assert "indent_fixed" in script.repairs
    body = split_harness(script.repaired)[0]
    compile(body, "<t>", "exec")


def test_indent_fix_only_attempted_on_compile_failure():
    # flush-left return at module level is legal; must not be touched
    source = "def solution():\n    return 1\n\nresult = solution()\n"
    script = repair(source)
    assert "indent_fixed" not in script.repairs


def test_module_qualified_import_injected():
    script = process_response(
        "```python\ndef solution():\n    return math.sqrt(16)\n```"
    )
    assert script.error is None
    assert "imports_injected" in script.repairs
    assert "import math" in script.repaired


def test_bare_name_import_injected():
    script = process_response(
        "```python\ndef solution():\n    return sqrt(25)\n```"
    )
    assert script.error is None
    assert "from math import sqrt" in script.repaired


def test_no_injection_when_name_is_defined():
    source = "def sqrt(x):\n    return x\n\ndef solution():\n    return sqrt(4)\n"
    script = repair(source)
    assert "imports_injected" not in script.repairs


def test_entry_prefers_solution_over_position():
    script = process_response(
        "```python\ndef helper():\n    return 1\n\ndef solution():\n    return 2\n\n"
        "def later():\n    return 3\n```"
    )
    assert script.entry == ("solution", 0)


def test_entry_falls_back_to_last_def():
    script = process_response(
        "```python\ndef a():\n    return 1\n\ndef b():\n    return 2\n```"
    )
    assert script.entry == ("b", 0)


def test_literal_call_arguments_are_recovered():
    script = process_response(
        "```python\ndef solution(a, b):\n    return a + b\n\n"
        "result = solution(3, 4)\nprint(result)\n```"
    )
    assert script.error is None
    assert script.entry == ("solution", 2)


def test_missing_arguments_is_an_error():
    script = process_response("```python\ndef solution(a, b):\n    return a + b\n```")
    assert script.error == ERROR_NEEDS_ARGUMENTS
    assert script.repaired is None


def test_shallowest_outside_call_gives_the_arguments():
    # breadth-first: the top-level call wins over an earlier one nested in an
    # ``if``, and the entry's own recursive call is never looked at
    script = repair(
        "def solution(a, b):\n"
        "    if a > 9:\n"
        "        return solution(a - 1, b)\n"
        "    return a + b\n\n"
        "if True:\n"
        "    solution(1, 2)\n"
        "solution(3, 4)\n"
    )
    assert script.error is None
    assert script.entry == ("solution", 2)
    assert "__titan_capture(lambda: solution(3, 4))" in split_harness(script.repaired)[1]


def test_recursive_call_alone_gives_no_arguments():
    script = repair(
        "def solution(a, b):\n"
        "    if a <= 0:\n"
        "        return b\n"
        "    return solution(0, 5)\n"
    )
    assert script.error == ERROR_NEEDS_ARGUMENTS
    assert script.entry == ("solution", 2)


def test_first_literal_call_decides_even_with_too_few_arguments():
    # only the last def of the entry's name is skipped; the earlier one's
    # body is searched, and its one-argument call comes first
    script = repair(
        "def solution(a):\n"
        "    return solution(9)\n\n"
        "def solution(a, b):\n"
        "    return a + b\n\n"
        "print(solution(1, 2))\n"
    )
    assert script.error == ERROR_NEEDS_ARGUMENTS
    assert script.entry == ("solution", 2)


def test_defaulted_parameters_need_no_arguments():
    script = process_response(
        "```python\ndef solution(a=1, b=2):\n    return a + b\n```"
    )
    assert script.error is None
    assert script.entry == ("solution", 0)


def test_no_def_script_is_wrapped_with_trailing_expression():
    script = process_response("```python\nx = 40\nx + 2\n```")
    assert script.error is None
    assert script.entry == ("__titan_main", 0)
    body = split_harness(script.repaired)[0]
    assert "def __titan_main():" in body
    assert "return (x + 2)" in body


def test_no_def_print_becomes_return():
    script = process_response("```python\nx = 15\nprint(x)\n```")
    body = split_harness(script.repaired)[0]
    assert "return (x)" in body


def test_sentinel_collision_is_unrepairable():
    malicious = f"```python\nprint({RESULT_BEGIN!r})\nprint(99)\nprint({RESULT_END!r})\n```"
    script = process_response(malicious)
    assert script.error == ERROR_UNREPAIRABLE
    assert script.repaired is None


def test_broken_syntax_is_unrepairable():
    script = process_response("```python\ndef solution(:\n    pass\n```")
    assert script.error == ERROR_UNREPAIRABLE


@pytest.mark.parametrize(
    "code",
    [
        "x = 1\nreturn 5",
        "def solution():\n    nonlocal x\n    return 1",
        "x = 1\x00\nprint(x)",
        "from __future__ import annotations\ndef solution():\n    return math.pi",
    ],
    ids=["top_level_return", "unbound_nonlocal", "nul_byte", "import_before_future"],
)
def test_scripts_only_compile_rejects_are_unrepairable(code):
    # ast.parse accepts the first two; compile rejects them. The last one
    # fails only once "import math" lands above its __future__ import.
    script = process_response(f"```python\n{code}\n```")
    assert script.error == ERROR_UNREPAIRABLE
    assert script.repaired is None


def test_prose_is_no_code():
    script = process_response("I refuse to write code today.")
    assert script.error == ERROR_NO_CODE
    assert script.extracted is None and script.repaired is None


def test_repair_is_idempotent():
    cases = [
        "```python\ndef solution():\n    return math.sqrt(16)\n```",
        "```python\nx = 40\nx + 2\n```",
        "```python\ndef solution():\n\treturn 5\n```",
        f"```python\n{FIGURE_SCRIPT}```",
    ]
    for doc in cases:
        script = process_response(doc)
        assert script.error is None, doc
        body, harness = split_harness(script.repaired)
        again = repair(body, prior_repairs=script.repairs)
        assert again.repaired == script.repaired, doc


def test_repaired_scripts_always_compile():
    docs = [
        "```python\ndef solution():\nreturn 1\n```",
        "```python\nimport math\nmath.pi\n```",
        "x = 3\nprint(x)",
    ]
    for doc in docs:
        script = process_response(doc)
        assert script.error is None
        compile(script.repaired, "<t>", "exec")


def test_repairs_vocabulary_is_closed():
    allowed = {
        "fence_extracted",
        "bare_heuristic",
        "indent_fixed",
        "imports_injected",
        "harness_injected",
    }
    docs = [
        "```python\ndef solution():\n    return 1\n```",
        "```python\ndef solution():\nreturn 1\n```",
        "y = 2\nprint(y)",
        "```python\nimport math\nmath.pi\n```",
        "```python\ndef solution():\n    return sqrt(4)\n```",
    ]
    for doc in docs:
        script = process_response(doc)
        assert set(script.repairs) <= allowed, doc


def test_harness_renders_collections_and_booleans():
    # rendering rules live in the harness source; check the critical ones
    script = process_response("```python\ndef solution():\n    return [3, 1, 2]\n```")
    harness = split_harness(script.repaired)[1]
    assert "__titan_render" in harness
    tree = ast.parse(script.repaired)
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert {"__titan_render", "__titan_capture"} <= names


def test_to_json_dict_shape():
    script = process_response("```python\ndef solution():\n    return 1\n```")
    blob = script.to_json_dict()
    assert blob["entry"] == ["solution", 0] or blob["entry"] == ("solution", 0)
    assert blob["error"] is None
    assert isinstance(blob["repairs"], list)
    assert blob["raw_response"].startswith("```python")


@given(st.text(max_size=400))
@settings(max_examples=200)
def test_process_response_never_raises(doc):
    script = process_response(doc)
    assert script.error in (None, ERROR_NO_CODE, ERROR_NEEDS_ARGUMENTS,
                            ERROR_UNREPAIRABLE)
    if script.error is None:
        assert script.repaired is not None


# One response of each shape the early returns in codeproc skip work for:
# CRLF and lone-CR line ends, tab indents, fenced, unclosed, bare and no code.
MIXED_RESPONSES = [
    "```python\r\ndef solution():\r\n    return 2 + 2\r\n```\r\n",
    "Here:\r```python\rdef solution():\r    x = 3\r    return x\r```\r",
    "```python\ndef solution():\n\tvalue = 7\n\treturn value\n```",
    "def solution():\n\tif True:\n\t\treturn 'tab'\n\nThat is the answer.",
    "```\nx = 5\nprint(x * 2)\n```",
    "```text ```python\ndef solution():\n    return math.sqrt(16)\n```",
    "Some prose first.\n```py\ndef f(a, b):\n    return a + b\n\nf(1, 2)\n",
    "import math\nresult = math.floor(2.5)\nprint(result)\n\nDone.",
    "return 4",
    "raise ValueError('x')\nassert True\n# a comment\n",
    "def solution(n):\n    return n + 1\n",
    "I cannot write code for this question.",
    "",
    "```python\ndef solution(:\n    return 1\n```",
    "  indented prose line\nwhile x:\n pass",
]
MIXED_RESPONSES_SHA256 = "dc6b890b7d1cf546c3032a8340896ba68f3026a0ab50de55f804985b269a5ac9"


def test_process_response_of_a_mixed_corpus_is_pinned():
    blob = json.dumps(
        [process_response(doc).to_json_dict() for doc in MIXED_RESPONSES],
        sort_keys=True,
    ).encode()
    assert hashlib.sha256(blob).hexdigest() == MIXED_RESPONSES_SHA256
