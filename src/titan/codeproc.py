"""Code extraction and repair for model responses.

Model responses are free-form text. This module pulls the code block out
(fenced block first, a line-shape heuristic as fallback), fixes the two
mechanical defect classes worth fixing (missing stdlib imports, flush-left
block bodies), and appends a result-capture harness so execution always
reports its answer between sentinel lines:

    <<<TITAN_RESULT>>>
    <payload, one or more lines>
    <<</TITAN_RESULT>>>

The harness calls the script's entry function and prints the rendered
return value; scripts without functions are wrapped so their final
expression or printed output is captured instead. Anything beyond that
(actual syntax repair, argument synthesis) is out of scope: such scripts
are flagged and counted as failures downstream.
"""

from __future__ import annotations

import ast
import builtins
import collections
import functools
import itertools
import math
import re
import string
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .scoring import RESULT_BEGIN, RESULT_END

HARNESS_MARKER = "# --- result capture harness ---"

ERROR_NO_CODE = "no_code"
ERROR_NEEDS_ARGUMENTS = "needs_arguments"
ERROR_UNREPAIRABLE = "unrepairable"

# Closed allowlist of modules the repairer may import into guest scripts.
_ALLOWED_MODULES = {
    "math": math,
    "re": re,
    "itertools": itertools,
    "collections": collections,
    "string": string,
    "functools": functools,
}

_BUILTIN_NAMES = set(dir(builtins))

# name -> module for unambiguous bare calls like sqrt(...). Names exported
# by more than one allowlisted module, or shadowing a builtin, are dropped.
_BARE_NAME_MODULES: dict = {}
for _mod_name, _mod in sorted(_ALLOWED_MODULES.items()):
    for _attr in dir(_mod):
        if _attr.startswith("_") or _attr in _BUILTIN_NAMES:
            continue
        if _attr in _BARE_NAME_MODULES and _BARE_NAME_MODULES[_attr] != _mod_name:
            _BARE_NAME_MODULES[_attr] = None
        else:
            _BARE_NAME_MODULES.setdefault(_attr, _mod_name)
_BARE_NAME_MODULES = {k: v for k, v in _BARE_NAME_MODULES.items() if v}

_FENCE_RE = re.compile(r"^\s{0,3}```+\s*(.*)$")

_HEADER_KEYWORDS = (
    "def ",
    "class ",
    "if ",
    "elif ",
    "else",
    "for ",
    "while ",
    "try",
    "except",
    "finally",
    "with ",
)
_STMT_KEYWORDS = _HEADER_KEYWORDS + (
    "import ",
    "from ",
    "return",
    "print",
    "pass",
    "break",
    "continue",
    "assert ",
    "raise",
    "global ",
    "del ",
    "yield",
)
_DEDENT_KEYWORDS = ("else", "elif ", "except", "finally")
_ASSIGN_RE = re.compile(r"^[A-Za-z_][\w\.\[\]\"' ,]*(=|\+=|-=|\*=|//=|/=|%=)[^=]")
_CALL_RE = re.compile(r"^[A-Za-z_][\w\.]*\(")


@dataclass
class GeneratedScript:
    """One response's journey from raw text to an executable script."""

    raw_response: str
    extracted: Optional[str] = None
    repaired: Optional[str] = None
    entry: Optional[tuple] = None  # (function name, required arity)
    repairs: "list[str]" = field(default_factory=list)
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "raw_response": self.raw_response,
            "extracted": self.extracted,
            "repaired": self.repaired,
            "entry": list(self.entry) if self.entry else None,
            "repairs": list(self.repairs),
            "error": self.error,
        }


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_fenced_blocks(text: str) -> "list[tuple[str, str]]":
    """Return (info_string, body) for each fenced block, in document order.

    An unclosed final fence is tolerated; its body runs to end of text.
    """
    blocks = []
    body: "Optional[list[str]]" = None
    info = ""
    for line in text.split("\n"):
        fence = _FENCE_RE.match(line)
        if body is None:
            if fence is not None:
                info = fence.group(1).strip()
                body = []
        else:
            if fence is not None and not fence.group(1).strip():
                blocks.append((info, "\n".join(body)))
                body = None
            elif fence is not None and body == []:
                # "```text ```python" style immediately-reopened fence:
                # treat as a new opener rather than block content.
                blocks.append((info, ""))
                info = fence.group(1).strip()
            else:
                body.append(line)
    if body is not None:
        blocks.append((info, "\n".join(body)))
    return blocks


def _line_is_codelike(line: str) -> bool:
    if not line.strip():
        return False
    if line[0] in (" ", "\t"):
        return True
    stripped = line.strip()
    if stripped.startswith("#"):
        return True
    if any(stripped.startswith(k) for k in _STMT_KEYWORDS):
        return True
    if _ASSIGN_RE.match(stripped) or _CALL_RE.match(stripped):
        return True
    return False


def _bare_code_block(text: str) -> Optional[str]:
    """First contiguous run of code-shaped lines; trailing prose discarded."""
    lines = text.split("\n")
    start = None
    for i, line in enumerate(lines):
        if _line_is_codelike(line):
            start = i
            break
    if start is None:
        return None
    end = start
    i = start
    while i < len(lines):
        if _line_is_codelike(lines[i]):
            end = i
            i += 1
        elif not lines[i].strip():
            i += 1  # interior blank; kept only if more code follows
        else:
            break
    block = "\n".join(lines[start : end + 1]).strip("\n")
    return block or None


def _extract_with_method(response: str) -> "tuple[Optional[str], Optional[str]]":
    text = _normalize_newlines(response)
    blocks = _parse_fenced_blocks(text)
    for info, block_body in blocks:
        if info.lower() == "python":
            return block_body, "fence_extracted"
    if blocks:
        return blocks[0][1], "fence_extracted"
    bare = _bare_code_block(text)
    if bare is not None:
        return bare, "bare_heuristic"
    return None, None


def extract_code(response: str) -> Optional[str]:
    """Code block of a response, or None when nothing code-shaped exists.

    Preference order: first fence marked python (case-insensitive), then
    the first fence of any marker, then the bare-line heuristic.
    """
    code, _ = _extract_with_method(response)
    if code is not None and not code.strip():
        return None
    return code


def _expand_leading_tabs(code: str) -> "tuple[str, bool]":
    out = []
    changed = False
    for line in code.split("\n"):
        i = 0
        while i < len(line) and line[i] in (" ", "\t"):
            i += 1
        prefix, rest = line[:i], line[i:]
        if "\t" in prefix:
            prefix = prefix.replace("\t", "    ")
            changed = True
        out.append(prefix + rest)
    return "\n".join(out), changed


def _opens_with(line: str, keywords: "tuple[str, ...]") -> bool:
    stripped = line.strip()
    return any(stripped.startswith(k) or stripped == k.strip() + ":" for k in keywords)


def _is_header(line: str) -> bool:
    return line.strip().endswith(":") and _opens_with(line, _HEADER_KEYWORDS)


def _fix_flush_left_bodies(code: str) -> "tuple[str, bool]":
    """Indent the body of a flush-left block header left at column zero.

    Applies one level to the contiguous non-blank run following the header.
    Only called when the code failed to compile, so false positives cannot
    damage working scripts.
    """
    lines = code.split("\n")
    out = []
    changed = False
    i = 0
    while i < len(lines):
        line = lines[i]
        out.append(line)
        i += 1
        if line[:1].isspace() or not _is_header(line):
            continue
        j = i
        while j < len(lines) and not lines[j].strip():
            j += 1
        if (
            j >= len(lines)
            or lines[j][:1].isspace()
            or _opens_with(lines[j], _DEDENT_KEYWORDS)
        ):
            continue
        out.extend(lines[i:j])
        while j < len(lines) and lines[j].strip():
            if _opens_with(lines[j], _DEDENT_KEYWORDS):
                break
            out.append("    " + lines[j])
            j += 1
        changed = True
        i = j
    return "\n".join(out), changed


def _parse(code: str) -> Optional[ast.Module]:
    """Syntax tree of ``code``, or None if it does not compile (not just parse)."""
    try:
        tree = ast.parse(code)
        compile(tree, "<script>", "exec")
    except (SyntaxError, ValueError):
        return None
    return tree


def _missing_import_lines(tree: ast.Module) -> "list[str]":
    """Import statements for allowlisted modules used but never imported."""
    imported = set()
    defined = set()
    qualified = set()
    bare_calls = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.name.split(".")[0])
                defined.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[0])
            for alias in node.names:
                defined.add(alias.asname or alias.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in _ALLOWED_MODULES:
                qualified.add(node.value.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            bare_calls.add(node.func.id)

    lines = []
    for module in sorted(qualified):
        if module not in imported and module not in defined:
            lines.append(f"import {module}")

    # A bare call like sqrt(...) needs a from-import even when the module
    # itself is imported; only an existing from-import (which lands the name
    # in ``defined``) makes it resolvable.
    from_imports: "dict[str, list[str]]" = {}
    for name in sorted(bare_calls):
        module = _BARE_NAME_MODULES.get(name)
        if module is None or name in defined:
            continue
        from_imports.setdefault(module, []).append(name)
    for module in sorted(from_imports):
        names = ", ".join(sorted(from_imports[module]))
        lines.append(f"from {module} import {names}")
    return lines


def _literal_call_args(tree: ast.Module, entry_name: str) -> "Optional[list[str]]":
    """Positional literal args from an existing call of the entry function.

    The search is breadth-first, in ``ast.walk`` order: the shallowest call
    wins, and at one depth mostly the earliest in the source. The
    entry function (the last top-level def of ``entry_name``) is never
    entered, since recursion would hand back the recursive step's
    arguments, not the problem's; an earlier def of the same name is
    searched like any other code. The first call of ``entry_name`` whose
    arguments are all positional literals decides, however many there are.
    """
    entry_node = None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == entry_name:
            entry_node = node

    def is_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return is_literal(node.operand)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return all(is_literal(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return all(
                k is not None and is_literal(k) and is_literal(v)
                for k, v in zip(node.keys, node.values)
            )
        return False

    todo = collections.deque(node for node in tree.body if node is not entry_node)
    while todo:
        node = todo.popleft()
        todo.extend(ast.iter_child_nodes(node))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == entry_name
            and not node.keywords
            and node.args
            and all(is_literal(a) for a in node.args)
        ):
            return [ast.unparse(a) for a in node.args]
    return None


def _required_arity(fn: ast.FunctionDef) -> int:
    args = fn.args
    required = len(args.posonlyargs) + len(args.args) - len(args.defaults)
    required += sum(1 for d in args.kw_defaults if d is None)
    return max(required, 0)


def _convert_trailing_expression(code: str, tree: ast.Module) -> str:
    """Rewrite a trailing bare expression (or single-arg print) to a return.

    Used only on function-less scripts right before wrapping them, so the
    wrapper function hands its value to the harness. ``tree`` is ``code``'s.
    """
    if not tree.body:
        return code
    last = tree.body[-1]
    if not isinstance(last, ast.Expr):
        return code
    target = last.value
    if (
        isinstance(target, ast.Call)
        and isinstance(target.func, ast.Name)
        and target.func.id == "print"
    ):
        if len(target.args) == 1 and not target.keywords:
            target = target.args[0]
        else:
            return code
    segment = ast.get_source_segment(code, target)
    if segment is None:
        return code
    lines = code.split("\n")
    kept = lines[: last.lineno - 1]
    trailer = lines[last.end_lineno :]
    kept.append(f"return ({segment})")
    return "\n".join(kept + trailer)


_WRAPPER_NAME = "__titan_main"

_HARNESS_TEMPLATE = (
    HARNESS_MARKER
    + """
import io as __titan_io
import sys as __titan_sys


def __titan_render(__titan_value):
    if isinstance(__titan_value, bool):
        return "1" if __titan_value else "0"
    if isinstance(__titan_value, (list, tuple)):
        return "[" + ", ".join(str(__titan_item) for __titan_item in __titan_value) + "]"
    if isinstance(__titan_value, (set, frozenset)):
        return "[" + ", ".join(
            str(__titan_item) for __titan_item in sorted(__titan_value, key=str)
        ) + "]"
    if isinstance(__titan_value, float):
        return repr(__titan_value)
    return str(__titan_value)


def __titan_capture(__titan_fn):
    __titan_buffer = __titan_io.StringIO()
    __titan_stdout = __titan_sys.stdout
    __titan_sys.stdout = __titan_buffer
    try:
        __titan_result = __titan_fn()
    finally:
        __titan_sys.stdout = __titan_stdout
    __titan_printed = __titan_buffer.getvalue()
    if __titan_printed:
        __titan_sys.stdout.write(__titan_printed)
        if not __titan_printed.endswith("\\n"):
            __titan_sys.stdout.write("\\n")
    if __titan_result is not None:
        return __titan_render(__titan_result)
    __titan_lines = [
        __titan_line.strip()
        for __titan_line in __titan_printed.splitlines()
        if __titan_line.strip()
    ]
    return __titan_lines[-1] if __titan_lines else ""


__titan_answer = __titan_capture(lambda: {call})
print("{begin}")
print(__titan_answer)
print("{end}")
"""
)


def _build_harness(call: str) -> str:
    return _HARNESS_TEMPLATE.format(call=call, begin=RESULT_BEGIN, end=RESULT_END)


def repair(
    code: str, raw_response: str = "", prior_repairs: Sequence[str] = ()
) -> GeneratedScript:
    """Turn extracted code into a standalone script with a capture harness.

    Fixes are limited to leading-tab expansion, flush-left block bodies,
    and missing allowlisted stdlib imports. Anything the repairer cannot
    make compile, or an entry function needing arguments it cannot recover
    from the code itself, comes back with ``error`` set and no script.
    """
    script = GeneratedScript(
        raw_response=raw_response,
        extracted=code,
        repairs=list(prior_repairs),
    )
    if not code or not code.strip():
        script.error = ERROR_NO_CODE
        return script
    if RESULT_BEGIN in code or RESULT_END in code:
        script.error = ERROR_UNREPAIRABLE
        return script

    work = _normalize_newlines(code).strip("\n")
    work, indent_fixed = _expand_leading_tabs(work)

    tree = _parse(work)
    if tree is None:
        fixed, changed = _fix_flush_left_bodies(work)
        tree = _parse(fixed) if changed else None
        if tree is None:
            script.error = ERROR_UNREPAIRABLE
            return script
        work = fixed
        indent_fixed = True
    if indent_fixed:
        script.repairs.append("indent_fixed")

    top_functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]

    if not top_functions:
        converted = _convert_trailing_expression(work, tree)
        wrapped_body = "\n".join(
            "    " + line if line.strip() else line for line in converted.split("\n")
        )
        work = f"def {_WRAPPER_NAME}():\n{wrapped_body}"
        tree = _parse(work)
        if tree is None:
            script.error = ERROR_UNREPAIRABLE
            return script
        entry_name, call_args = _WRAPPER_NAME, []
        arity = 0
    else:
        named_solution = [f for f in top_functions if f.name == "solution"]
        entry_fn = named_solution[-1] if named_solution else top_functions[-1]
        entry_name = entry_fn.name
        arity = _required_arity(entry_fn)
        if arity == 0:
            call_args = []
        else:
            recovered = _literal_call_args(tree, entry_name)
            if recovered is None or len(recovered) < arity:
                script.error = ERROR_NEEDS_ARGUMENTS
                script.entry = (entry_name, arity)
                return script
            call_args = recovered

    import_lines = _missing_import_lines(tree)
    if import_lines:
        work = "\n".join(import_lines) + "\n" + work
        if _parse(work) is None:
            script.error = ERROR_UNREPAIRABLE
            return script
        script.repairs.append("imports_injected")

    call = f"{entry_name}({', '.join(call_args)})"
    script.repaired = work.rstrip("\n") + "\n\n\n" + _build_harness(call)
    script.entry = (entry_name, arity)
    script.repairs.append("harness_injected")
    return script


def process_response(response: str) -> GeneratedScript:
    """extract_code + repair in one step, keeping extraction diagnostics."""
    code, method = _extract_with_method(response)
    if code is None or not code.strip():
        return GeneratedScript(raw_response=response, error=ERROR_NO_CODE)
    return repair(code, raw_response=response, prior_repairs=[method])
