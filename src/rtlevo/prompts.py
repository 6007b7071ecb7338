"""Prompt construction for the initial and evolutionary operators, and response parsing.

Templates are plain text files with named placeholders, loaded from the
packaged `templates/` directory by default and overridable with any
directory of files with the same names. Available placeholders:

    {functional_description}                    the problem statement
    {parent_thought_N} {parent_code_N}
    {parent_feedback_N}                         N = 1..arity of the strategy
    {testbench}                                 testbench source (not used by
                                                the default templates)
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .model import PopulationLabel, ProblemSpec, Individual

logger = logging.getLogger(__name__)

FALLBACK_THOUGHT = "(no design strategy stated)"


class ParseError(ValueError):
    """A model response could not be split into a (thought, code) pair."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


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


def allowed_strategies(label: PopulationLabel) -> tuple[PromptStrategy, ...]:
    """The five operators available to one population, in canonical order."""
    if label is PopulationLabel.FAIL:
        return FAIL_STRATEGIES
    return SUCCESS_STRATEGIES


@dataclass(frozen=True)
class PromptBundle:
    """One ready-to-send prompt: system text, user text, and provenance.

    `key` is the (generation, slot) of the offspring slot a draft prompt
    belongs to, set by the engine; providers that serve calls in a fixed
    order use it. Other prompts carry no key.
    """

    system_text: str
    user_text: str
    strategy: PromptStrategy | None = None
    parent_ids: tuple[int, ...] = ()
    purpose: str = "generate"
    key: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.purpose == "generate":
            arity = 0 if self.strategy is None else self.strategy.arity
            if len(self.parent_ids) != arity:
                raise ValueError(
                    f"prompt for {self.strategy} needs {arity} parents, got {len(self.parent_ids)}"
                )


class TemplateSet:
    """Loads and caches the prompt templates from one directory."""

    _NAMES = ("system", "initial", "fix", "simplify", "explore", "refactor", "improve", "fusion")

    def __init__(self, directory: str | Path | None = None):
        self._texts: dict[str, str] = {}
        if directory is None:
            base = resources.files("rtlevo").joinpath("templates")
            for name in self._NAMES:
                self._texts[name] = base.joinpath(f"{name}.txt").read_text(encoding="utf-8")
        else:
            base = Path(directory)
            for name in self._NAMES:
                path = base / f"{name}.txt"
                if not path.is_file():
                    raise FileNotFoundError(f"missing prompt template: {path}")
                self._texts[name] = path.read_text(encoding="utf-8")

    def render(self, name: str, mapping: dict[str, str]) -> str:
        try:
            return self._texts[name].format_map(mapping)
        except KeyError as exc:
            raise KeyError(
                f"template {name!r} references unknown placeholder {exc.args[0]!r}"
            ) from None

    def system_text(self) -> str:
        return self._texts["system"].strip()


_default_templates: TemplateSet | None = None


def default_templates() -> TemplateSet:
    global _default_templates
    if _default_templates is None:
        _default_templates = TemplateSet()
    return _default_templates


def _base_mapping(spec: ProblemSpec) -> dict[str, str]:
    return {
        "functional_description": spec.functional_description,
        "testbench": spec.testbench_source,
    }


def build_initial_prompt(spec: ProblemSpec, templates: TemplateSet | None = None) -> PromptBundle:
    """The parent-free prompt used once per slot to create generation 0."""
    templates = templates or default_templates()
    return PromptBundle(
        system_text=templates.system_text(),
        user_text=templates.render("initial", _base_mapping(spec)),
        strategy=None,
        parent_ids=(),
    )


def build_evolutionary_prompt(
    strategy: PromptStrategy,
    spec: ProblemSpec,
    parents: list[Individual],
    templates: TemplateSet | None = None,
) -> PromptBundle:
    """A strategy prompt carrying each parent's thought, code and feedback verbatim."""
    templates = templates or default_templates()
    if len(parents) != strategy.arity:
        raise ValueError(
            f"strategy {strategy.value} takes {strategy.arity} parent(s), got {len(parents)}"
        )
    mapping = _base_mapping(spec)
    for n, parent in enumerate(parents, start=1):
        if parent.feedback is None or not parent.feedback.strip():
            raise ValueError(f"parent {parent.id} has no feedback; evaluate it first")
        mapping[f"parent_thought_{n}"] = parent.thought
        mapping[f"parent_code_{n}"] = parent.code
        mapping[f"parent_feedback_{n}"] = parent.feedback
    return PromptBundle(
        system_text=templates.system_text(),
        user_text=templates.render(strategy.value, mapping),
        strategy=strategy,
        parent_ids=tuple(p.id for p in parents),
    )


_FENCE_RE = re.compile(r"^[ \t]*```[^\n`]*\n(.*?)\n?^[ \t]*```[ \t]*$", re.DOTALL | re.MULTILINE)
_THOUGHT_HEADER_RE = re.compile(r"^#{1,4}[ \t]*thought\b[: \t]*$", re.IGNORECASE | re.MULTILINE)
_ANY_HEADER_RE = re.compile(r"^#{1,4}[ \t]*\S.*$", re.MULTILINE)


def parse_llm_response(text: str) -> tuple[str, str]:
    """Split a raw completion into (thought, code).

    The code is the first fenced block, fence markers stripped; the thought
    is the tagged section when present, otherwise all prose preceding the
    code block (a degraded parse, logged).
    """
    fence = _FENCE_RE.search(text)
    if fence is None:
        raise ParseError("no_code", "response contains no fenced code block")
    code = fence.group(1).strip()
    if not code:
        raise ParseError("empty_code", "response's first fenced code block is empty")

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
