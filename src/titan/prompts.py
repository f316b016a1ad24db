"""Prompt assembly for the three-phase pipeline.

Templates live as plain text assets so their wording stays frozen and
reviewable. Placeholders are substituted with ``str.replace`` rather than
``str.format`` because question text routinely contains braces.

The code-generation prompt is built from up to three clauses joined by
blank lines: the base request, an optional reasoning-steps clause, and an
optional extracted-inputs clause. Ablation modes drop exactly one clause.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Optional

PHASE_INPUT = "input_extraction"
PHASE_STEPS = "step_extraction"
PHASE_CODEGEN = "codegen"

_REQUIRED_PLACEHOLDERS = {
    "input_extraction.txt": ("{question}",),
    "step_extraction.txt": ("{question}",),
    "codegen_base.txt": ("{question}",),
    "codegen_steps.txt": ("{steps}",),
    "codegen_inputs.txt": ("{inputs}",),
    "pal_zs.txt": ("{question}",),
}

TEMPLATE_FILES = tuple(_REQUIRED_PLACEHOLDERS)


class TemplateError(ValueError):
    """A template file is missing or lacks its required placeholder."""


def load_templates(templates_dir: Optional[str] = None) -> "dict[str, str]":
    """Load the six template assets, bundled by default, keyed by file name.

    A directory override must supply all six files; partial overlays would
    make a run's prompt set ambiguous.
    """
    if templates_dir is None:
        base = resources.files("titan").joinpath("templates")
    else:
        base = Path(templates_dir)
    loaded = {}
    for name in TEMPLATE_FILES:
        path = base.joinpath(name)
        if not path.is_file():
            raise TemplateError(f"template {name} not found in {templates_dir}")
        raw = path.read_text(encoding="utf-8")
        text = raw.rstrip("\n")
        for placeholder in _REQUIRED_PLACEHOLDERS[name]:
            if placeholder not in text:
                raise TemplateError(f"template {name} lacks {placeholder}")
        loaded[name] = text
    return loaded


def _fill(template: str, **values: str) -> str:
    out = template
    for key, value in values.items():
        out = out.replace("{" + key + "}", value)
    return out


def build_input_extraction(question: str, library: "dict[str, str]") -> str:
    return _fill(library["input_extraction.txt"], question=question)


def build_step_extraction(question: str, library: "dict[str, str]") -> str:
    return _fill(library["step_extraction.txt"], question=question)


def build_codegen(
    question: str,
    library: "dict[str, str]",
    steps: Optional[str] = None,
    inputs: Optional[str] = None,
) -> str:
    parts = [_fill(library["codegen_base.txt"], question=question)]
    if steps is not None:
        parts.append(_fill(library["codegen_steps.txt"], steps=steps.strip()))
    if inputs is not None:
        parts.append(_fill(library["codegen_inputs.txt"], inputs=inputs.strip()))
    return "\n\n".join(parts)


def build_pal_zs(question: str, library: "dict[str, str]") -> str:
    return _fill(library["pal_zs.txt"], question=question)


def messages_for(prompt_text: str, system: Optional[str] = None) -> "list[dict]":
    out = []
    if system:
        out.append({"role": "system", "content": system})
    out.append({"role": "user", "content": prompt_text})
    return out
