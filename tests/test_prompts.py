from __future__ import annotations

import logging
import random

import pytest

from rtlevo.model import CircuitKind, EvalOutcome, Individual, PpaMetrics, ProblemSpec
from rtlevo.prompts import (
    FAIL_STRATEGIES,
    FALLBACK_THOUGHT,
    SUCCESS_STRATEGIES,
    ParseError,
    PromptBundle,
    PromptStrategy,
    build_evolutionary_prompt,
    build_initial_prompt,
    default_templates,
    parse_llm_response,
    render_response,
)

SPEC = ProblemSpec(
    name="mod",
    functional_description="a 4-entry FIFO with synchronous reset",
    testbench_source="",
    reference_ppa=PpaMetrics(1.0, 100.0, 1.0),
    circuit_kind=CircuitKind.SEQUENTIAL,
    target_clock_period=0.01,
)


def make_parent(ind_id: int, feedback: str = "shrink the mux tree") -> Individual:
    return Individual(
        id=ind_id,
        thought=f"thought of parent {ind_id}",
        code=f"module p{ind_id}; endmodule",
        feedback=feedback,
        outcome=EvalOutcome(True, True, PpaMetrics(1, 1, 1), sim_log="ok", synth_log="ok"),
        fitness=0.0,
    )


def test_strategy_sets():
    assert PromptStrategy.FIX in FAIL_STRATEGIES
    assert PromptStrategy.FUSION not in FAIL_STRATEGIES
    assert PromptStrategy.FUSION in SUCCESS_STRATEGIES
    assert PromptStrategy.FIX not in SUCCESS_STRATEGIES
    union = set(FAIL_STRATEGIES) | set(SUCCESS_STRATEGIES)
    both = set(FAIL_STRATEGIES) & set(SUCCESS_STRATEGIES)
    assert union == set(PromptStrategy)
    assert len(both) == 4


def test_arity():
    for strategy in PromptStrategy:
        assert strategy.arity == (2 if strategy is PromptStrategy.FUSION else 1)


def test_initial_prompt_embeds_description():
    bundle = build_initial_prompt(SPEC)
    assert SPEC.functional_description in bundle.user_text
    assert bundle.strategy is None
    assert bundle.parent_ids == ()
    # the output-format contract asks for exactly one fenced block
    assert "```" in bundle.system_text
    assert "## Thought" in bundle.system_text


def test_evolutionary_prompt_carries_parent_verbatim():
    parent = make_parent(7)
    for strategy in (PromptStrategy.FIX, PromptStrategy.IMPROVE, PromptStrategy.SIMPLIFY):
        bundle = build_evolutionary_prompt(strategy, SPEC, [parent])
        assert parent.thought in bundle.user_text
        assert parent.code in bundle.user_text
        assert parent.feedback in bundle.user_text
        assert SPEC.functional_description in bundle.user_text
        assert bundle.parent_ids == (7,)
        assert bundle.strategy is strategy


def test_fusion_prompt_carries_both_parents():
    p1, p2 = make_parent(1), make_parent(2, feedback="lower the fanout")
    bundle = build_evolutionary_prompt(PromptStrategy.FUSION, SPEC, [p1, p2])
    for parent in (p1, p2):
        assert parent.thought in bundle.user_text
        assert parent.code in bundle.user_text
        assert parent.feedback in bundle.user_text
    assert bundle.parent_ids == (1, 2)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        build_evolutionary_prompt(PromptStrategy.FUSION, SPEC, [make_parent(1)])
    with pytest.raises(ValueError):
        build_evolutionary_prompt(PromptStrategy.FIX, SPEC, [make_parent(1), make_parent(2)])


def test_missing_feedback_rejected():
    parent = make_parent(1, feedback=" ")
    with pytest.raises(ValueError):
        build_evolutionary_prompt(PromptStrategy.FIX, SPEC, [parent])


def test_bundle_parent_count_invariant():
    with pytest.raises(ValueError):
        PromptBundle(system_text="s", user_text="u", strategy=PromptStrategy.FUSION, parent_ids=(1,))
    with pytest.raises(ValueError):
        PromptBundle(system_text="s", user_text="u", strategy=None, parent_ids=(1,))


THOUGHT_WORDS = "pipeline carry mux register latch tree shared gated balanced onehot".split()
CODE_BODIES = [
    "assign y = a & b;",
    "always @(posedge clk) q <= d;",
    "wire [3:0] s = x + y; // adder",
    "genvar i;\n  for (i = 0; i < 4; i = i + 1) begin end",
]


def random_pair(rng: random.Random) -> tuple[str, str]:
    thought = " ".join(rng.choices(THOUGHT_WORDS, k=rng.randrange(3, 12)))
    if rng.random() < 0.3:
        thought += "\nsecond line of rationale"
    body = rng.choice(CODE_BODIES)
    code = f"module m{rng.randrange(100)}(input a, b, clk, d, output y);\n  {body}\nendmodule"
    return thought, code


def test_parse_render_roundtrip_50_fixtures():
    rng = random.Random(2024)
    for i in range(50):
        thought, code = random_pair(rng)
        language = rng.choice(["verilog", "systemverilog", ""])
        text = render_response(thought, code, language=language)
        if rng.random() < 0.3:
            text += "\nSome trailing commentary that should be ignored.\n"
        if rng.random() < 0.3:
            text = "Preamble chatter.\n\n" + text
        parsed_thought, parsed_code = parse_llm_response(text)
        assert parsed_thought == thought, f"fixture {i}"
        assert parsed_code == code, f"fixture {i}"


def test_parse_header_variants():
    for header in ("# Thought", "### Thought:", "## thought"):
        text = f"{header}\nuse a carry-save tree\n\n## Code\n```verilog\nmodule m; endmodule\n```"
        thought, code = parse_llm_response(text)
        assert thought == "use a carry-save tree"
        assert code == "module m; endmodule"


def test_parse_first_of_two_blocks_wins():
    text = (
        "## Thought\nsplit datapath\n\n```verilog\nmodule first; endmodule\n```\n"
        "and an alternative:\n```verilog\nmodule second; endmodule\n```\n"
    )
    _, code = parse_llm_response(text)
    assert code == "module first; endmodule"


def test_parse_no_code_block():
    with pytest.raises(ParseError) as err:
        parse_llm_response("## Thought\nall prose, no code")
    assert err.value.code == "no_code"


def test_parse_empty_code_block():
    with pytest.raises(ParseError) as err:
        parse_llm_response("## Thought\nt\n\n```verilog\n\n```")
    assert err.value.code == "empty_code"


@pytest.mark.parametrize(
    "code",
    [
        "// placeholder: the response could not be parsed",
        "assign sum = a + b;",
        "submodule_x u0(.a(a));  // modules are named, not declared",
    ],
)
def test_parse_code_without_module_rejected(code):
    with pytest.raises(ParseError) as err:
        parse_llm_response(render_response("t", code))
    assert err.value.code == "no_module"


def test_parse_accepts_module_after_preamble():
    code = "`timescale 1ns/1ps\n// adder\nmodule m(input a, output y);\n  assign y = a;\nendmodule"
    assert parse_llm_response(render_response("t", code))[1] == code


def test_parse_missing_thought_degrades_to_prose(caplog):
    text = "I went with a simple approach here.\n\n```verilog\nmodule m; endmodule\n```"
    with caplog.at_level(logging.WARNING, logger="rtlevo.prompts"):
        thought, code = parse_llm_response(text)
    assert thought == "I went with a simple approach here."
    assert code == "module m; endmodule"
    assert any("thought" in r.message.lower() for r in caplog.records)


def test_parse_nothing_before_code_uses_fallback_thought():
    thought, _ = parse_llm_response("```verilog\nmodule m; endmodule\n```")
    assert thought == FALLBACK_THOUGHT


def test_template_unknown_placeholder():
    templates = default_templates()
    with pytest.raises(KeyError):
        templates.render("fix", {"functional_description": "d"})
