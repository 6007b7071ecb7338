"""Evaluation pipeline: shell stages, report parsing, stand-in evaluator,
feedback generation."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from rtlevo.evaluate import (
    DEFAULT_PASS_PATTERN,
    DEFAULT_SIMULATOR_COMMAND,
    DEFAULT_SYNTHESIZER_COMMAND,
    SyntheticEvaluator,
    SyntheticEvaluatorConfig,
    ToolchainConfig,
    ToolchainEvaluator,
    ToolEnvironmentError,
    ReportError,
    evaluate,
    generate_feedback,
    parse_ppa_report,
    preflight,
    simulate,
    synthesize,
    _command_executables,
)
from rtlevo.fitness import SYNTH_FAIL_FITNESS, FitnessWeights, compute_fitness
from rtlevo.llm import CompletionResult, ProviderError, ScriptedProvider
from rtlevo.model import NEG_INF, CircuitKind, EvalOutcome, Individual, PpaMetrics, ProblemSpec

REF = PpaMetrics(power=1.0, area=100.0, effective_clock_period=1.0)

SPEC = ProblemSpec(
    name="add2",
    functional_description="a two bit adder named add2 with carry out",
    testbench_source="// tb placeholder\n",
    reference_ppa=REF,
    circuit_kind=CircuitKind.COMBINATIONAL,
    target_clock_period=0.01,
)

WEIGHTS = FitnessWeights(alpha=0.5, beta=0.5, gamma=0.0)


def fake_cfg(**overrides):
    """Toolchain config whose stages are plain shell commands."""
    fields = dict(
        simulator_command="echo all tests passed",
        synthesizer_command=(
            "printf 'Chip area for module top: 42.18\\n"
            "Total power: 0.0031\\nWorst slack: -0.37\\n'"
        ),
        clock_period=0.01,
        per_stage_timeout=10.0,
    )
    fields.update(overrides)
    return ToolchainConfig(**fields)


class RecordingProvider:
    """Captures each bundle and replies with a fixed string."""

    def __init__(self, reply="provider critique"):
        self.reply = reply
        self.bundles = []

    def complete(self, bundle):
        self.bundles.append(bundle)
        return CompletionResult(text=self.reply)


class FailingProvider:
    def complete(self, bundle):
        raise ProviderError("transient", "endpoint is down")


# --- report parsing ---------------------------------------------------------


def test_parse_ppa_report_defaults():
    raw = (
        "=== design hierarchy ===\n"
        "Chip area for module '\\top': 42.18\n"
        "Total internal power: 0.0031\n"
        "Worst slack: -0.37\n"
    )
    ppa = parse_ppa_report(raw, fake_cfg())
    assert ppa.area == 42.18
    assert ppa.power == 0.0031
    # negative slack stretches the usable period past the target clock
    assert abs(ppa.effective_clock_period - 0.38) < 1e-12


def test_parse_ppa_report_positive_slack():
    raw = "Chip area for module top: 10\nPower: 2.5\nWorst slack: 0.004\n"
    ppa = parse_ppa_report(raw, fake_cfg())
    assert abs(ppa.effective_clock_period - 0.006) < 1e-12


def test_parse_ppa_report_missing_power_names_field():
    raw = "Chip area for module top: 10\nWorst slack: 0.0\n"
    with pytest.raises(ReportError) as err:
        parse_ppa_report(raw, fake_cfg())
    assert err.value.field == "power"


def test_parse_ppa_report_negative_area_rejected():
    cfg = fake_cfg(area_pattern=r"area:\s*(-?[0-9.]+)")
    raw = "area: -5\nPower: 1\nWorst slack: 0\n"
    with pytest.raises(ReportError) as err:
        parse_ppa_report(raw, cfg)
    assert err.value.field == "area"


# --- shell stages -----------------------------------------------------------


def test_simulate_pass_needs_token_and_zero_exit(tmp_path):
    passed, log = simulate("module m; endmodule", SPEC, fake_cfg(), tmp_path / "a")
    assert passed is True
    assert "all tests passed" in log.lower()

    cfg = fake_cfg(simulator_command="echo all tests passed && false")
    passed, _ = simulate("x", SPEC, cfg, tmp_path / "b")
    assert passed is False

    cfg = fake_cfg(simulator_command="echo compile finished")
    passed, _ = simulate("x", SPEC, cfg, tmp_path / "c")
    assert passed is False


def test_simulate_writes_design_and_testbench(tmp_path):
    workdir = tmp_path / "w"
    simulate("module add2; endmodule", SPEC, fake_cfg(), workdir)
    assert (workdir / "design.v").read_text(encoding="utf-8") == "module add2; endmodule"
    assert (workdir / "tb.v").read_text(encoding="utf-8") == SPEC.testbench_source


def test_stage_timeout_is_reported_not_raised(tmp_path):
    cfg = fake_cfg(simulator_command="sleep 5", per_stage_timeout=0.2)
    passed, log = simulate("x", SPEC, cfg, tmp_path / "t")
    assert passed is False
    assert "TIMEOUT" in log


def test_missing_tool_at_runtime_is_environment_error(tmp_path):
    cfg = fake_cfg(simulator_command="rtlevo-no-such-tool {code_file}")
    with pytest.raises(ToolEnvironmentError):
        simulate("x", SPEC, cfg, tmp_path / "m")


def test_synthesize_prefers_report_file(tmp_path):
    cfg = fake_cfg(
        synthesizer_command=(
            "printf 'Chip area for module top: 7.5\\nPower: 0.25\\n"
            "Worst slack: 0.0\\n' > {out_report} && echo noise on stdout"
        )
    )
    report, ok = synthesize("module m; endmodule", cfg, tmp_path / "s")
    assert ok is True
    assert "7.5" in report
    assert "noise" not in report
    ppa = parse_ppa_report(report, cfg)
    assert ppa.area == 7.5


def test_synthesize_falls_back_to_stdout(tmp_path):
    report, ok = synthesize("module m; endmodule", fake_cfg(), tmp_path / "s2")
    assert ok is True
    assert "42.18" in report


def test_unknown_placeholder_raises(tmp_path):
    cfg = fake_cfg(simulator_command="echo {not_a_placeholder}")
    with pytest.raises(KeyError) as err:
        simulate("x", SPEC, cfg, tmp_path / "p")
    assert "not_a_placeholder" in str(err.value)


def test_preflight_missing_executable():
    cfg = fake_cfg(synthesizer_command="rtlevo-no-such-tool {code_file}")
    with pytest.raises(ToolEnvironmentError) as err:
        preflight(cfg)
    assert "rtlevo-no-such-tool" in str(err.value)


@pytest.mark.parametrize(
    "template, expected",
    [
        (DEFAULT_SYNTHESIZER_COMMAND, ["yosys"]),
        (DEFAULT_SIMULATOR_COMMAND, ["iverilog", "vvp"]),
        ("if true; then echo ok; fi", ["true", "echo"]),
        ("X=1 tool 2>&1 | tee log; (other '{a;b}')", ["tool", "tee", "other"]),
    ],
)
def test_command_executables_splits_only_on_unquoted_operators(template, expected):
    assert _command_executables(template) == expected


def test_preflight_checks_liberty_when_referenced(tmp_path):
    cfg = fake_cfg(synthesizer_command="echo {liberty}", liberty_path="")
    with pytest.raises(ToolEnvironmentError):
        preflight(cfg)
    lib = tmp_path / "cells.lib"
    lib.write_text("library(t){}", encoding="utf-8")
    preflight(fake_cfg(synthesizer_command="echo {liberty}", liberty_path=str(lib)))


def test_toolchain_config_validation():
    with pytest.raises(ValueError):
        ToolchainConfig(clock_period=0.0)
    with pytest.raises(ValueError):
        ToolchainConfig(per_stage_timeout=-1.0)


# --- toolchain evaluator ----------------------------------------------------


def test_toolchain_evaluator_full_outcome(tmp_path):
    ev = ToolchainEvaluator(fake_cfg(), workdir_root=tmp_path)
    outcome = ev.outcome_for("module m; endmodule", SPEC, individual_id=3)
    assert outcome.sim_passed is True
    assert outcome.synth_succeeded is True
    assert outcome.ppa is not None
    assert outcome.ppa.area == 42.18
    assert (tmp_path / "ind_000003" / "design.v").exists()


def test_toolchain_evaluator_sim_fail_short_circuits(tmp_path):
    cfg = fake_cfg(simulator_command="echo mismatch at vector 4 && false")
    ev = ToolchainEvaluator(cfg, workdir_root=tmp_path)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_passed is False
    assert outcome.synth_succeeded is False
    assert outcome.ppa is None
    assert "mismatch" in outcome.sim_log


def test_toolchain_evaluator_synth_fail_keeps_sim_pass(tmp_path):
    cfg = fake_cfg(synthesizer_command="echo synthesis blew up && false")
    ev = ToolchainEvaluator(cfg, workdir_root=tmp_path)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_passed is True
    assert outcome.synth_succeeded is False
    assert outcome.ppa is None


def test_toolchain_evaluator_unparseable_report_withholds_ppa(tmp_path):
    cfg = fake_cfg(synthesizer_command="echo nothing useful here")
    ev = ToolchainEvaluator(cfg, workdir_root=tmp_path)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_passed is True
    assert outcome.synth_succeeded is True
    assert outcome.ppa is None


def test_toolchain_post_synth_gate(tmp_path):
    ok_cfg = fake_cfg(post_synth_command="echo all tests passed")
    ev = ToolchainEvaluator(ok_cfg, workdir_root=tmp_path / "ok")
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.post_synth_functional is True
    assert outcome.ppa is not None

    bad_cfg = fake_cfg(post_synth_command="echo netlist mismatch && false")
    ev = ToolchainEvaluator(bad_cfg, workdir_root=tmp_path / "bad")
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.post_synth_functional is False
    assert outcome.ppa is None
    assert outcome.synth_succeeded is True


def test_toolchain_reference_ppa_and_failure(tmp_path):
    ev = ToolchainEvaluator(fake_cfg(), workdir_root=tmp_path / "r1")
    ppa = ev.reference_ppa("module ref; endmodule")
    assert ppa.area == 42.18
    bad = ToolchainEvaluator(
        fake_cfg(synthesizer_command="echo fatal && false"),
        workdir_root=tmp_path / "r2",
    )
    with pytest.raises(RuntimeError):
        bad.reference_ppa("module ref; endmodule")


def test_toolchain_evaluator_preflights_on_construction(tmp_path):
    cfg = fake_cfg(simulator_command="rtlevo-no-such-tool {code_file}")
    with pytest.raises(ToolEnvironmentError):
        ToolchainEvaluator(cfg, workdir_root=tmp_path)


def test_toolchain_cleanup_removes_scratch(tmp_path):
    root = tmp_path / "scratch"
    ev = ToolchainEvaluator(fake_cfg(), workdir_root=root)
    ev.outcome_for("x", SPEC, 5)
    assert root.exists()
    ev.cleanup()
    assert not root.exists()


# --- synthetic evaluator ----------------------------------------------------


def test_synthetic_bug_marker_fails_simulation():
    ev = SyntheticEvaluator()
    outcome = ev.outcome_for("module m; // BUG: wrong carry\nendmodule", SPEC)
    assert outcome.sim_passed is False
    assert outcome.ppa is None
    assert outcome.sim_log


def test_synthetic_ppa_marker_is_exact():
    ev = SyntheticEvaluator()
    code = "module m; endmodule\n// PPA: power=0.8 area=90 period=1.25\n"
    outcome = ev.outcome_for(code, SPEC)
    assert outcome.sim_passed is True
    assert outcome.ppa == PpaMetrics(power=0.8, area=90.0, effective_clock_period=1.25)
    assert ev.reference_ppa(code) == outcome.ppa


def test_synthetic_hash_fallback_deterministic_and_bounded():
    ev = SyntheticEvaluator(SyntheticEvaluatorConfig(seed=3))
    rng = random.Random(11)
    for _ in range(50):
        code = f"module m_{rng.randrange(10**9)}; endmodule"
        a = ev.reference_ppa(code)
        b = ev.reference_ppa(code)
        assert a == b
        assert 0.5 <= a.power < 1.5
        assert 50.0 <= a.area < 150.0
        assert 0.5 <= a.effective_clock_period < 1.5


def test_synthetic_seed_changes_hash_ppa():
    code = "module m; endmodule"
    a = SyntheticEvaluator(SyntheticEvaluatorConfig(seed=1)).reference_ppa(code)
    b = SyntheticEvaluator(SyntheticEvaluatorConfig(seed=2)).reference_ppa(code)
    assert a != b


def test_synthetic_callable_overrides():
    cfg = SyntheticEvaluatorConfig(
        pass_predicate=lambda code: "ok" in code,
        ppa_function=lambda code: PpaMetrics(1.0, 2.0, 3.0),
    )
    ev = SyntheticEvaluator(cfg)
    assert ev.outcome_for("nope", SPEC).sim_passed is False
    outcome = ev.outcome_for("ok", SPEC)
    assert outcome.ppa == PpaMetrics(1.0, 2.0, 3.0)


def test_synthetic_pass_log_matches_default_pass_pattern():
    import re

    outcome = SyntheticEvaluator().outcome_for("module m; endmodule", SPEC)
    assert re.search(DEFAULT_PASS_PATTERN, outcome.sim_log)


# --- feedback ---------------------------------------------------------------


def failing_individual(log="expected sum 2 got 3\nexpected carry 1 got 0"):
    return Individual(
        id=4,
        thought="t",
        code="module add2; // broken\nendmodule",
        feedback="",
        outcome=EvalOutcome(False, False, None, sim_log=log),
        fitness=NEG_INF,
    )


def passing_individual():
    ppa = PpaMetrics(power=0.8, area=90.0, effective_clock_period=1.0)
    return Individual(
        id=5,
        thought="t",
        code="module add2; // fine\nendmodule",
        feedback="",
        outcome=EvalOutcome(True, True, ppa, sim_log="all tests passed", synth_log="rpt"),
        fitness=0.15,
    )


def test_feedback_prompt_for_failure_carries_context():
    provider = RecordingProvider("the carry bit is inverted")
    text = generate_feedback(failing_individual(), SPEC, provider)
    assert text == "the carry bit is inverted"
    sent = provider.bundles[0]
    assert sent.purpose == "feedback"
    assert SPEC.functional_description in sent.user_text
    assert "// broken" in sent.user_text
    assert "expected carry 1 got 0" in sent.user_text


def test_feedback_prompt_for_success_carries_both_ppa():
    provider = RecordingProvider("try a smaller adder")
    generate_feedback(passing_individual(), SPEC, provider)
    sent = provider.bundles[0]
    assert "power=0.8" in sent.user_text
    assert "area=90" in sent.user_text
    assert "power=1" in sent.user_text
    assert "area=100" in sent.user_text


def test_feedback_log_tail_truncation():
    provider = RecordingProvider()
    long_log = "x" * 9000 + "the real error is here"
    generate_feedback(failing_individual(log=long_log), SPEC, provider, tail_chars=4000)
    sent = provider.bundles[0].user_text
    assert "the real error is here" in sent
    assert "..." in sent
    assert "x" * 5000 not in sent


def test_feedback_provider_outage_degrades_to_fallback():
    text = generate_feedback(failing_individual(), SPEC, FailingProvider())
    assert text
    assert "Simulation failed" in text
    assert "expected sum 2 got 3" in text


def test_feedback_empty_reply_degrades_to_fallback():
    text = generate_feedback(passing_individual(), SPEC, RecordingProvider(reply="  "))
    assert text
    assert "0.8" in text and "90" in text


def test_feedback_requires_evaluated_individual():
    ind = Individual(id=1, thought="t", code="c", feedback="", outcome=None, fitness=None)
    with pytest.raises(ValueError):
        generate_feedback(ind, SPEC, RecordingProvider())


def test_feedback_scripted_passthrough():
    provider = ScriptedProvider.from_script([("purpose:feedback", "bug: reset polarity")])
    text = generate_feedback(failing_individual(), SPEC, provider)
    assert text == "bug: reset polarity"


# --- evaluate() composition -------------------------------------------------


def test_evaluate_fills_outcome_fitness_feedback():
    ind = Individual(
        id=7,
        thought="t",
        code="module m; endmodule\n// PPA: power=0.5 area=50 period=0.5\n",
        feedback="",
        outcome=None,
        fitness=None,
    )
    provider = RecordingProvider("looks lean")
    done = evaluate(ind, SPEC, SyntheticEvaluator(), provider, WEIGHTS)
    assert done.outcome is not None
    assert done.outcome.sim_passed is True
    expected = compute_fitness(done.outcome.ppa, REF, WEIGHTS)
    assert done.fitness == expected == 0.5
    assert done.feedback == "looks lean"
    assert ind.outcome is None  # input untouched


def test_evaluate_sim_failure_is_neg_inf():
    ind = Individual(
        id=8, thought="t", code="// BUG\nmodule m; endmodule",
        feedback="", outcome=None, fitness=None,
    )
    done = evaluate(ind, SPEC, SyntheticEvaluator(), RecordingProvider(), WEIGHTS)
    assert done.fitness == NEG_INF
    assert done.feedback


def test_evaluate_synth_fail_sentinel():
    class SimPassNoPpa:
        def outcome_for(self, code, spec, individual_id=0):
            return EvalOutcome(True, False, None, sim_log="all tests passed")

        def reference_ppa(self, code):
            raise AssertionError("not used")

    done = evaluate(
        Individual(id=9, thought="t", code="c", feedback="", outcome=None, fitness=None),
        SPEC,
        SimPassNoPpa(),
        RecordingProvider(),
        WEIGHTS,
    )
    assert done.fitness == SYNTH_FAIL_FITNESS
    assert done.fitness > NEG_INF
