"""Prompt construction for the initial and evolutionary operators, and response parsing.

Templates are plain text files with named placeholders in the packaged
`templates/` directory, each read once, on first use; `render` fills one
in. Each call purpose has its own system prompt (`system_text`): a draft
(`generate`) is sent `system.txt`, which asks for a Thought and one
fenced code block, and a critique (`feedback`) is sent
`feedback_system.txt`, which asks for plain prose. A draft's user text is
`initial.txt` or its operator's template, with these placeholders:

    {functional_description}                    the problem statement
    {parent_thought_N} {parent_code_N}
    {parent_feedback_N}                         N = 1..arity of the strategy

A critique's user text is one of four templates, picked in `evaluate` by
what the critiqued individual's outcome shows:

    critique_sim_failed.txt   a failed simulation
    critique_gate_failed.txt  a failed gate-level re-simulation
    critique_no_ppa.txt       a pass whose synthesis gave no usable PPA
    critique_ppa.txt          a pass with PPA

Each takes {functional_description} and {design_code}, the critiqued
code; `critique_ppa.txt` also {generated_ppa} and {reference_ppa}, and
the other three {log_tail}, the tail of the log they quote.
`user_templates` gives the text of every user-prompt template, which a
transcript's header holds, so a run directory rebuilds each prompt.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import logging
import re
from dataclasses import dataclass
from importlib import resources

from .model import ProblemSpec, Individual

logger = logging.getLogger(__name__)

FALLBACK_THOUGHT = "(no design strategy stated)"


class ParseError(ValueError):
    """A model response could not be split into a (thought, code) pair."""


class PromptStrategy(enum.Enum):
    FIX = "fix"
    SIMPLIFY = "simplify"
    EXPLORE = "explore"
    REFACTOR = "refactor"
    IMPROVE = "improve"
    FUSION = "fusion"

    @property
    def arity(self) -> int:
        return 2 if self is PromptStrategy.FUSION else 1


FAIL_STRATEGIES: tuple[PromptStrategy, ...] = (
    PromptStrategy.FIX,
    PromptStrategy.SIMPLIFY,
    PromptStrategy.EXPLORE,
    PromptStrategy.REFACTOR,
    PromptStrategy.IMPROVE,
)

SUCCESS_STRATEGIES: tuple[PromptStrategy, ...] = (
    PromptStrategy.SIMPLIFY,
    PromptStrategy.EXPLORE,
    PromptStrategy.REFACTOR,
    PromptStrategy.IMPROVE,
    PromptStrategy.FUSION,
)


@dataclass(frozen=True)
class PromptBundle:
    """One ready-to-send prompt: user text and provenance, and the system
    text of its purpose (`system_text`).

    A draft's `parent_ids` are the `strategy.arity` parents the engine's
    plan drew; a critique's are the one individual it critiques. `key` is
    (generation, n), given by the engine to every call it makes when it
    builds the prompt: n numbers a generation's calls in slot order, each
    slot's critiques of the parents it is the first to choose before its
    draft. A scripted provider's `call:G/N` entries match it.
    """

    user_text: str
    key: tuple[int, int]
    strategy: PromptStrategy | None = None
    parent_ids: tuple[int, ...] = ()
    purpose: str = "generate"

    @property
    def system_text(self) -> str:
        """The system prompt of every call made for this bundle's purpose."""
        return system_text(self.purpose)


# every template a call's user text is rendered from, as a transcript's header holds them
USER_TEMPLATES = (
    "initial",
    *(strategy.value for strategy in PromptStrategy),
    "critique_sim_failed",
    "critique_gate_failed",
    "critique_no_ppa",
    "critique_ppa",
)


@functools.cache
def _template(name: str) -> str:
    return (resources.files("rtlevo") / "templates" / f"{name}.txt").read_text(encoding="utf-8")


def render(name: str, mapping: dict[str, str], templates: dict[str, str] | None = None) -> str:
    """The template `name`, from `templates` when given and else the
    packaged one, with its placeholders filled from `mapping`. A template
    `templates` lacks, or one naming a placeholder `mapping` lacks, is a
    KeyError."""
    text = _template(name) if templates is None else templates.get(name)
    if text is None:
        raise KeyError(f"no template {name!r}")
    try:
        return text.format_map(mapping)
    except KeyError as exc:
        raise KeyError(
            f"template {name!r} references unknown placeholder {exc.args[0]!r}"
        ) from None


def user_templates() -> dict[str, str]:
    """The text of every user-prompt template, keyed by name."""
    return {name: _template(name) for name in USER_TEMPLATES}


def prompt_digest(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of `text` in UTF-8, which a
    transcript entry stores in place of its prompt."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_SYSTEM_TEMPLATES = {"generate": "system", "feedback": "feedback_system"}


def system_text(purpose: str) -> str:
    """The system prompt of every call made for `purpose`."""
    return _template(_SYSTEM_TEMPLATES[purpose]).strip()


def system_texts() -> dict[str, str]:
    """Each call purpose's system prompt, keyed by purpose."""
    return {purpose: system_text(purpose) for purpose in _SYSTEM_TEMPLATES}


def build_initial_prompt(
    spec: ProblemSpec,
    key: tuple[int, int],
    templates: dict[str, str] | None = None,
) -> PromptBundle:
    """The parent-free prompt used once per slot to create generation 0,
    for the call `key`, rendered from `templates` when given (see `render`)."""
    return PromptBundle(
        user_text=render("initial", {"functional_description": spec.description}, templates),
        key=key,
    )


def build_evolutionary_prompt(
    strategy: PromptStrategy,
    spec: ProblemSpec,
    parents: list[Individual],
    key: tuple[int, int],
    templates: dict[str, str] | None = None,
) -> PromptBundle:
    """A strategy prompt carrying each parent's thought, code and feedback
    verbatim, for the `strategy.arity` parents the engine's plan draws and
    the call `key`, rendered from `templates` when given (see `render`).
    Each parent is critiqued, or is a placeholder with its fixed feedback."""
    mapping = {"functional_description": spec.description}
    for n, parent in enumerate(parents, start=1):
        mapping[f"parent_thought_{n}"] = parent.thought
        mapping[f"parent_code_{n}"] = parent.code
        mapping[f"parent_feedback_{n}"] = parent.feedback
    return PromptBundle(
        user_text=render(strategy.value, mapping, templates),
        strategy=strategy,
        parent_ids=tuple(p.id for p in parents),
        key=key,
    )


_FENCE_RE = re.compile(r"^[ \t]*```[^\n`]*\n(.*?)\n?^[ \t]*```[ \t]*$", re.DOTALL | re.MULTILINE)
_THOUGHT_HEADER_RE = re.compile(r"^#{1,4}[ \t]*thought\b[: \t]*$", re.IGNORECASE | re.MULTILINE)
_ANY_HEADER_RE = re.compile(r"^#{1,4}[ \t]*\S.*$", re.MULTILINE)
_MODULE_RE = re.compile(r"\bmodule\b")


def parse_llm_response(text: str) -> tuple[str, str]:
    """Split a raw completion into (thought, code).

    The code is the first fenced block, fence markers stripped; it must
    declare a module, since the prompts ask for a complete one and the
    testbench can instantiate nothing else. The thought is the tagged
    section when present, otherwise all prose preceding the code block (a
    degraded parse, logged).
    """
    fence = _FENCE_RE.search(text)
    if fence is None:
        raise ParseError("response contains no fenced code block")
    code = fence.group(1).strip()
    if not code:
        raise ParseError("response's first fenced code block is empty")
    if not _MODULE_RE.search(code):
        raise ParseError("response's first fenced code block declares no module")

    header = _THOUGHT_HEADER_RE.search(text)
    if header is not None and header.start() < fence.start():
        tail = text[header.end():fence.start()]
        next_header = _ANY_HEADER_RE.search(tail)
        thought = (tail[: next_header.start()] if next_header else tail).strip()
    else:
        prose = text[: fence.start()]
        thought = _ANY_HEADER_RE.sub("", prose).strip()
        logger.warning("response has no tagged thought section; using preceding prose")
    return (thought or FALLBACK_THOUGHT, code)


def render_response(thought: str, code: str, language: str = "verilog") -> str:
    """Render a (thought, code) pair in the response format the prompts instruct.

    Inverse of `parse_llm_response` for well-formed pairs; used by scripted
    providers and tests.
    """
    return f"## Thought\n{thought}\n\n## Code\n```{language}\n{code}\n```\n"
