"""Evaluation pipeline: shell stages, report parsing, stand-in evaluator,
feedback generation."""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import os
import pkgutil
import shutil
import signal
import time
from pathlib import Path

import pytest

from rtlevo.evaluate import (
    CAPTURE_BYTES,
    DEFAULT_PASS_PATTERN,
    DEFAULT_SIMULATOR_COMMAND,
    DEFAULT_SYNTHESIZER_COMMAND,
    LOG_CLIP_CHARS,
    SyntheticEvaluator,
    ToolchainConfig,
    ToolchainEvaluator,
    ToolEnvironmentError,
    ReportError,
    critique,
    evaluate,
    generate_feedback,
    parse_ppa_report,
    preflight,
    simulate,
    synthesize,
    _command_executables,
    _run_shell,
)
from rtlevo.fitness import SYNTH_FAIL_FITNESS, FitnessWeights, compute_fitness
from rtlevo.llm import CompletionResult, ProviderError, ScriptEntry, ScriptedProvider
from rtlevo.model import (
    NEG_INF,
    CircuitKind,
    ConfigError,
    EvalOutcome,
    Individual,
    PpaMetrics,
    ProblemSpec,
)
from rtlevo.prompts import system_text

from support import REF, FixedOutcome

SPEC = ProblemSpec(
    name="add2",
    description="a two bit adder named add2 with carry out",
    testbench="// tb placeholder\n",
    reference_ppa=REF,
    circuit_kind=CircuitKind.COMBINATIONAL,
    target_clock_period=0.01,
)

WEIGHTS = FitnessWeights(alpha=0.5, beta=0.5, gamma=0.0)

# the engine's call key of a feedback prompt: generation 1, first call
KEY = (1, 0)


def test_package_names_do_not_shadow_submodules():
    import rtlevo
    import rtlevo.evaluate as evaluate_module

    assert inspect.ismodule(evaluate_module)
    for info in pkgutil.iter_modules(rtlevo.__path__):
        if info.name == "__main__":
            continue
        importlib.import_module(f"rtlevo.{info.name}")
        assert inspect.ismodule(getattr(rtlevo, info.name)), info.name


def fake_cfg(**overrides):
    """Toolchain config whose stages are plain shell commands."""
    fields = dict(
        simulator_command="echo all tests passed",
        synthesizer_command=(
            "printf 'Chip area for module top: 42.18\\n"
            "Total power: 0.0031\\nWorst slack: -0.37\\n'"
        ),
        per_stage_timeout=10.0,
    )
    fields.update(overrides)
    return ToolchainConfig(**fields)


# a stage that prints its workdir, then the files in it, then passes
LIST_WORKDIR = "echo {workdir}; ls {workdir}; echo all tests passed"


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
    ppa = parse_ppa_report(raw, fake_cfg(), 0.01)
    assert ppa.area == 42.18
    assert ppa.power == 0.0031
    # negative slack stretches the usable period past the target clock
    assert abs(ppa.effective_clock_period - 0.38) < 1e-12


def test_parse_ppa_report_positive_slack():
    raw = "Chip area for module top: 10\nPower: 2.5\nWorst slack: 0.004\n"
    ppa = parse_ppa_report(raw, fake_cfg(), 0.01)
    assert abs(ppa.effective_clock_period - 0.006) < 1e-12


def test_parse_ppa_report_missing_power_names_field():
    raw = "Chip area for module top: 10\nWorst slack: 0.0\n"
    with pytest.raises(ReportError, match=r"evaluator\.power_pattern"):
        parse_ppa_report(raw, fake_cfg(), 0.01)


def test_parse_ppa_report_unparseable_value_names_field():
    raw = "Chip area: 1.2.3\nPower: 1\nWorst slack: 0\n"
    with pytest.raises(ReportError, match=r"^unparseable area value '1\.2\.3' in report$"):
        parse_ppa_report(raw, fake_cfg(), 0.01)


def test_parse_ppa_report_negative_area_rejected():
    cfg = fake_cfg(area_pattern=r"area:\s*(-?[0-9.]+)")
    raw = "area: -5\nPower: 1\nWorst slack: 0\n"
    with pytest.raises(ReportError, match=r"PpaMetrics\.area must be finite and >= 0"):
        parse_ppa_report(raw, cfg, 0.01)


@pytest.mark.parametrize(
    "raw, field",
    [
        ("Chip area: 1e999\nPower: 1\nWorst slack: 0\n", "area"),
        ("Chip area: 10\nPower: 1\nWorst slack: -1e999\n", "effective_clock_period"),
    ],
)
def test_parse_ppa_report_infinite_value_is_report_error(raw, field):
    with pytest.raises(ReportError, match=rf"PpaMetrics\.{field} must be finite") as err:
        parse_ppa_report(raw, fake_cfg(), 0.01)
    assert isinstance(err.value, RuntimeError)


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
    assert (workdir / "tb.v").read_text(encoding="utf-8") == SPEC.testbench


def test_stage_timeout_is_reported_not_raised(tmp_path):
    cfg = fake_cfg(simulator_command="sleep 5", per_stage_timeout=0.2)
    passed, log = simulate("x", SPEC, cfg, tmp_path / "t")
    assert passed is False
    assert "TIMEOUT" in log


def test_runaway_stage_log_is_bounded_and_ends_with_timeout(tmp_path):
    returncode, log = _run_shell("yes runaway", 0.3, tmp_path)
    assert returncode == -1
    assert len(log.encode()) <= CAPTURE_BYTES + 200
    assert log.startswith("runaway\nrunaway\n")
    assert "bytes cut ...]" in log
    assert log.endswith("\nTIMEOUT: stage exceeded 0.3s and was killed")


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_timed_out_stage_leaves_no_process_behind(tmp_path):
    returncode, log = _run_shell("sleep 30 & echo $! > pid; wait", 0.3, tmp_path)
    assert returncode == -1 and "TIMEOUT:" in log
    pid = int((tmp_path / "pid").read_text())
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def _gone(pid: int) -> bool:
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not _running(pid)


@pytest.mark.scheduling
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_leftover_that_outlives_its_shell_is_killed(tmp_path):
    returncode, log = _run_shell("sleep 30 >/dev/null 2>&1 & echo $! > pid", 10.0, tmp_path)
    assert (returncode, log) == (0, "(no output, exit status 0)")
    assert _gone(int((tmp_path / "pid").read_text()))


@pytest.mark.scheduling
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_leftover_holding_the_pipe_does_not_hold_the_stage(tmp_path):
    # the background sleep keeps the output pipe open after its shell exits
    returncode, log = _run_shell("sleep 30 & echo $! > pid; echo started", 5.0, tmp_path)
    assert (returncode, log) == (0, "started\n")
    assert _gone(int((tmp_path / "pid").read_text()))


@pytest.mark.scheduling
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_passing_design_whose_leftover_keeps_writing_passes(tmp_path):
    # `yes` keeps the pipe full after its shell exits; it is killed then
    cfg = fake_cfg(simulator_command="echo all tests passed; yes & echo $! > pid")
    start = time.monotonic()
    passed, log = simulate("x", SPEC, cfg, tmp_path)
    assert time.monotonic() - start < 2
    assert passed is True
    assert log.startswith("all tests passed\n") and "TIMEOUT:" not in log
    assert _gone(int((tmp_path / "pid").read_text()))


@pytest.mark.scheduling
@pytest.mark.skipif(
    shutil.which("setsid") is None or not Path("/proc/self/stat").exists(),
    reason="needs setsid and /proc",
)
def test_a_writer_that_left_the_session_holds_the_stage_briefly(tmp_path):
    # `setsid yes` is out of the stage's process group, so killing the group
    # misses it; the pipe is read for EXIT_POLL_SECONDS after the shell exits
    start = time.monotonic()
    try:
        returncode, log = _run_shell(
            "setsid yes & echo $! > pid; sleep 0.2; echo started", 10.0, tmp_path
        )
        elapsed = time.monotonic() - start
    finally:
        with contextlib.suppress(FileNotFoundError, ValueError, ProcessLookupError):
            os.kill(int((tmp_path / "pid").read_text()), signal.SIGKILL)
    assert returncode == 0 and "TIMEOUT:" not in log
    assert elapsed < 2


def test_what_a_leftover_writes_after_its_shell_exits_is_not_kept(tmp_path):
    returncode, log = _run_shell("(sleep 1; echo late) & echo early", 5.0, tmp_path)
    assert (returncode, log) == (0, "early\n")


def test_a_stage_that_closes_its_output_still_times_out(tmp_path):
    # EOF comes at once, and the shell is still running at the deadline
    returncode, log = _run_shell("exec >/dev/null 2>&1; sleep 5", 0.5, tmp_path)
    assert returncode == -1
    assert log == "\nTIMEOUT: stage exceeded 0.5s and was killed"


def test_long_finite_output_keeps_its_true_last_line(tmp_path):
    # about 3.9 MB of output, more than CAPTURE_BYTES
    returncode, log = _run_shell("seq 1 600000", 10.0, tmp_path)
    assert returncode == 0
    assert len(log.encode()) <= CAPTURE_BYTES + 200
    assert log.startswith("1\n2\n3\n")
    assert "bytes cut ...]" in log
    assert log.splitlines()[-1] == "600000"


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
    report, ok = synthesize("module m; endmodule", SPEC, cfg, tmp_path / "s")
    assert ok is True
    assert "7.5" in report
    assert "noise" not in report
    ppa = parse_ppa_report(report, cfg, 0.01)
    assert ppa.area == 7.5


def test_synthesize_reads_a_long_report_file_bounded(tmp_path):
    # 3 MiB of filler lines, then the three metrics
    metrics = "Chip area for module top: 7.5\nPower: 0.25\nWorst slack: 0.0\n"
    cfg = fake_cfg(
        synthesizer_command=(
            "yes filler | head -c 3145728 > {out_report}; printf 'Chip area for module top: "
            "7.5\\nPower: 0.25\\nWorst slack: 0.0\\n' >> {out_report}"
        )
    )
    report, ok = synthesize("module m; endmodule", SPEC, cfg, tmp_path / "s")
    assert ok is True
    marker = f"\n[... {3145728 + len(metrics) - CAPTURE_BYTES} bytes cut ...]\n"
    assert marker in report
    assert len(report.encode()) <= CAPTURE_BYTES + len(marker)
    assert report.startswith("filler\nfiller\n") and report.endswith(metrics)
    assert parse_ppa_report(report, cfg, 0.01) == PpaMetrics(0.25, 7.5, 0.01)


def test_synthesize_falls_back_to_stdout(tmp_path):
    report, ok = synthesize("module m; endmodule", SPEC, fake_cfg(), tmp_path / "s2")
    assert ok is True
    assert "42.18" in report


def test_unknown_placeholder_raises():
    with pytest.raises(ConfigError) as err:
        fake_cfg(simulator_command="echo {not_a_placeholder}")
    assert "evaluator.simulator_command" in str(err.value)
    assert "{not_a_placeholder}" in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("synthesizer_command", "echo {"),
        ("post_synth_command", "echo {0}"),
        ("pass_pattern", "(unclosed"),
        ("area_pattern", "[0-9"),
        ("slack_pattern", "*"),
    ],
)
def test_template_or_pattern_that_cannot_run_fails_at_construction(key, value):
    with pytest.raises(ConfigError) as err:
        fake_cfg(**{key: value})
    assert str(err.value).startswith(f"evaluator.{key}: ")


def test_preflight_missing_executable():
    cfg = fake_cfg(synthesizer_command="rtlevo-no-such-tool {code_file}")
    with pytest.raises(ToolEnvironmentError) as err:
        preflight(cfg)
    assert "rtlevo-no-such-tool" in str(err.value)


def test_preflight_refuses_a_relative_tool_path(tmp_path, monkeypatch):
    # the script resolves from here, but a stage runs in a fresh scratch directory
    tool = tmp_path / "tools" / "sim.sh"
    tool.parent.mkdir()
    tool.write_text("#!/bin/sh\necho all tests passed\n", encoding="utf-8")
    tool.chmod(0o755)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ToolEnvironmentError, match="found on PATH: tools/sim.sh .*absolute path"):
        preflight(fake_cfg(simulator_command="tools/sim.sh {code_file}"))
    preflight(fake_cfg(simulator_command=f"{tool} {{code_file}}"))


@pytest.mark.parametrize(
    "template, expected",
    [
        (DEFAULT_SYNTHESIZER_COMMAND, ["yosys"]),
        (DEFAULT_SIMULATOR_COMMAND, ["iverilog", "vvp"]),
        ("if true; then echo ok; fi", ["true", "echo"]),
        ("X=1 tool 2>&1 | tee log; (other '{a;b}')", ["tool", "tee", "other"]),
        ("for x in a b; do tool $x; done", ["tool"]),
        ("case {clock_ns} in 1) tool;; *) other;; esac", ["tool", "other"]),
        ('/opt/"my tools"/sim {code_file}', ["/opt/my tools/sim"]),
        ("echo ';' next", ["echo"]),
    ],
)
def test_command_executables_splits_only_on_unquoted_operators(template, expected):
    assert _command_executables(template) == expected


def test_preflight_refuses_an_empty_command_word_with_its_key():
    with pytest.raises(ConfigError) as err:
        preflight(fake_cfg(simulator_command='"" {code_file}'))
    assert str(err.value) == "evaluator.simulator_command: a command word is empty"


def test_preflight_finds_shell_builtins(tmp_path):
    # `cd` and `read` are builtins of /bin/sh, not files on PATH
    cfg = fake_cfg(simulator_command="cd {workdir} && read x < /dev/null; echo all tests passed")
    ev = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    assert ev.outcome_for("module m; endmodule", SPEC, 1).sim_passed


def test_preflight_checks_liberty_when_referenced(tmp_path):
    lib = tmp_path / "cells.lib"
    lib.write_text("library(t){}", encoding="utf-8")
    # every stage that names the liberty file reads it
    for key in ("synthesizer_command", "simulator_command", "post_synth_command"):
        with pytest.raises(ToolEnvironmentError, match="liberty file not readable"):
            preflight(fake_cfg(**{key: "cat {liberty}"}, liberty_path=""))
        preflight(fake_cfg(**{key: "cat {liberty}"}, liberty_path=str(lib)))


def test_toolchain_config_validation():
    with pytest.raises(ValueError):
        ToolchainConfig(per_stage_timeout=-1.0)


# --- toolchain evaluator ----------------------------------------------------


def test_toolchain_evaluator_full_outcome(tmp_path):
    ev = ToolchainEvaluator(fake_cfg(), artifacts_dir=tmp_path)
    outcome = ev.outcome_for("module m; endmodule", SPEC, individual_id=3)
    assert outcome.sim_passed is True
    assert outcome.synth_succeeded is True
    assert outcome.ppa is not None
    assert outcome.ppa.area == 42.18
    assert (tmp_path / "ind_000003" / "design.v").exists()


def test_toolchain_evaluator_sim_fail_short_circuits(tmp_path):
    cfg = fake_cfg(simulator_command="echo mismatch at vector 4 && false")
    ev = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_passed is False
    assert outcome.synth_succeeded is False
    assert outcome.ppa is None
    assert "mismatch" in outcome.sim_log


def test_toolchain_evaluator_synth_fail_keeps_sim_pass(tmp_path):
    cfg = fake_cfg(synthesizer_command="echo synthesis blew up && false")
    ev = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_passed is True
    assert outcome.synth_succeeded is False
    assert outcome.ppa is None


def test_toolchain_evaluator_unparseable_report_withholds_ppa(tmp_path):
    cfg = fake_cfg(synthesizer_command="echo nothing useful here")
    ev = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_passed is True
    assert outcome.synth_succeeded is True
    assert outcome.ppa is None


def test_toolchain_post_synth_gate(tmp_path):
    ok_cfg = fake_cfg(post_synth_command="echo all tests passed")
    ev = ToolchainEvaluator(ok_cfg, artifacts_dir=tmp_path / "ok")
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.post_synth_functional is True
    assert outcome.ppa is not None

    bad_cfg = fake_cfg(post_synth_command="echo netlist mismatch && false")
    ev = ToolchainEvaluator(bad_cfg, artifacts_dir=tmp_path / "bad")
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.post_synth_functional is False
    assert outcome.ppa is None
    assert outcome.synth_succeeded is True


def test_a_failed_gate_level_resimulation_is_critiqued_from_its_output(tmp_path):
    cfg = fake_cfg(post_synth_command="echo netlist mismatch at a=3 b=1 && false")
    ev = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    done = evaluate(Individual(id=11, thought="t", code="module add2; endmodule"), SPEC, ev, WEIGHTS)
    outcome = done.outcome
    assert outcome.post_synth_functional is False and outcome.ppa is None
    # the stored synth log is the report, then the re-simulation's output
    assert outcome.sim_log == ""
    assert outcome.synth_log.startswith("Chip area for module top: 42.18")
    assert outcome.synth_log.endswith(
        "\n[gate-level re-simulation output]\nnetlist mismatch at a=3 b=1\n"
    )
    provider = RecordingProvider()
    generate_feedback(done, SPEC, provider, KEY)
    prompt = provider.bundles[0].user_text
    assert "netlist mismatch at a=3 b=1" in prompt
    assert "gate-level re-simulation of its synthesized netlist failed" in prompt
    assert "no usable PPA report" not in prompt
    assert generate_feedback(done, SPEC, FailingProvider(), KEY) == (
        "Simulation passed but the gate-level re-simulation of the synthesized netlist failed. "
        "Log tail:\nChip area for module top: 42.18\nTotal power: 0.0031\nWorst slack: -0.37\n"
        "\n[gate-level re-simulation output]\nnetlist mismatch at a=3 b=1"
    )


def test_toolchain_reference_ppa_and_failure(tmp_path):
    ev = ToolchainEvaluator(fake_cfg(), artifacts_dir=tmp_path / "r1")
    ppa = ev.reference_ppa("module ref; endmodule", SPEC)
    assert ppa.area == 42.18
    bad = ToolchainEvaluator(
        fake_cfg(synthesizer_command="echo fatal && false"),
        artifacts_dir=tmp_path / "r2",
    )
    with pytest.raises(RuntimeError):
        bad.reference_ppa("module ref; endmodule", SPEC)


def test_toolchain_evaluator_preflights_on_construction(tmp_path):
    cfg = fake_cfg(simulator_command="rtlevo-no-such-tool {code_file}")
    with pytest.raises(ToolEnvironmentError):
        ToolchainEvaluator(cfg, artifacts_dir=tmp_path)


def test_toolchain_evaluator_preflights_post_synth_stage(tmp_path):
    cfg = fake_cfg(
        simulator_command="true",
        synthesizer_command="true",
        post_synth_command="rtlevo-no-such-tool {workdir}",
    )
    with pytest.raises(ToolEnvironmentError) as err:
        ToolchainEvaluator(cfg, artifacts_dir=tmp_path / "w")
    assert "rtlevo-no-such-tool" in str(err.value)
    # raised before any individual ran
    assert not (tmp_path / "w").exists()


def test_toolchain_cleanup_removes_scratch(tmp_path):
    parent = tmp_path / "scratch"
    ev = ToolchainEvaluator(fake_cfg(workdir_root=str(parent), simulator_command=LIST_WORKDIR))
    outcome = ev.outcome_for("x", SPEC, 5)
    # the stage ran in a directory of its own, directly under workdir_root
    own, *listing = outcome.sim_log.splitlines()[:-1]
    assert Path(own).parent == parent and Path(own).name.startswith("rtlevo-")
    assert listing == ["design.v", "tb.v"]
    assert not Path(own).exists()
    assert parent.is_dir() and list(parent.iterdir()) == []


def test_toolchain_cleanup_keeps_given_and_unrelated_files(tmp_path):
    parent = tmp_path / "work"
    parent.mkdir()
    (parent / "notes.txt").write_text("mine", encoding="utf-8")
    ev = ToolchainEvaluator(fake_cfg(workdir_root=str(parent), simulator_command=LIST_WORKDIR))
    assert ev.outcome_for("x", SPEC, 1).sim_passed
    assert [p.name for p in parent.iterdir()] == ["notes.txt"]

    kept = tmp_path / "artifacts"
    ev = ToolchainEvaluator(fake_cfg(simulator_command=LIST_WORKDIR), artifacts_dir=kept)
    outcome = ev.outcome_for("x", SPEC, 1)
    assert outcome.sim_log.splitlines()[0] == str(kept / "ind_000001")
    assert (kept / "ind_000001" / "design.v").exists()


def test_a_failed_stage_leaves_no_scratch_directory(tmp_path):
    parent = tmp_path / "scratch"
    cfg = fake_cfg(workdir_root=str(parent), simulator_command="sleep 5", per_stage_timeout=0.2)
    assert "TIMEOUT:" in ToolchainEvaluator(cfg).outcome_for("x", SPEC, 1).sim_log
    assert list(parent.iterdir()) == []
    cfg = fake_cfg(workdir_root=str(parent), synthesizer_command="echo gone; exit 127")
    with pytest.raises(ToolEnvironmentError):
        ToolchainEvaluator(cfg).outcome_for("x", SPEC, 1)
    assert list(parent.iterdir()) == []


def test_kept_workdir_holds_each_stage_log_whole(tmp_path):
    cfg = fake_cfg(
        simulator_command="seq 1 3000; echo all tests passed",
        post_synth_command="echo gate level: all tests passed",
    )
    ev = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    ind = evaluate(Individual(id=2, thought="t", code="x"), SPEC, ev, WEIGHTS)
    workdir = tmp_path / "ind_000002"
    sim_log = (workdir / "sim.log").read_text(encoding="utf-8")
    assert len(ind.outcome.sim_log) <= LOG_CLIP_CHARS < len(sim_log)
    assert "\n1500\n" in sim_log and "1500" not in ind.outcome.sim_log
    assert "Chip area for module top: 42.18" in (workdir / "synth.log").read_text(encoding="utf-8")
    assert (workdir / "post_synth.log").read_text(encoding="utf-8").startswith("gate level")


def test_scratch_workdir_gets_stage_logs_and_is_removed(tmp_path):
    parent = tmp_path / "scratch"
    # synthesis lists the directory the simulation ran in
    cfg = fake_cfg(workdir_root=str(parent), synthesizer_command=LIST_WORKDIR)
    outcome = ToolchainEvaluator(cfg).outcome_for("x", SPEC, 1)
    assert outcome.synth_log.splitlines()[1:-1] == ["design.v", "sim.log", "tb.v"]
    assert list(parent.iterdir()) == []


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
    assert ev.reference_ppa(code, SPEC) == outcome.ppa


def test_synthetic_code_without_ppa_marker_gets_no_ppa():
    # what the toolchain evaluator gives a synthesis report with no PPA line
    code = "module m; endmodule"
    done = evaluate(
        Individual(id=3, thought="t", code=code, outcome=None, fitness=None),
        SPEC, SyntheticEvaluator(), WEIGHTS,
    )
    assert done.outcome.sim_passed is True and done.outcome.synth_succeeded is True
    assert done.outcome.ppa is None
    assert done.fitness == SYNTH_FAIL_FITNESS
    with pytest.raises(RuntimeError, match="no '// PPA:' marker"):
        SyntheticEvaluator().reference_ppa(code, SPEC)


def test_synthetic_pass_log_matches_default_pass_pattern():
    import re

    code = "module m; endmodule\n// PPA: power=0.8 area=90 period=1.25\n"
    outcome = SyntheticEvaluator().outcome_for(code, SPEC)
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
    text = generate_feedback(failing_individual(), SPEC, provider, KEY)
    assert text == "the carry bit is inverted"
    sent = provider.bundles[0]
    assert sent.purpose == "feedback"
    assert SPEC.description in sent.user_text
    assert "// broken" in sent.user_text
    assert "expected carry 1 got 0" in sent.user_text


def test_a_critique_is_sent_the_prose_system_prompt():
    provider = RecordingProvider("the carry bit is inverted")
    for ind in (failing_individual(), passing_individual(), synth_failed_individual()):
        generate_feedback(ind, SPEC, provider, KEY)
    assert len(provider.bundles) == 3
    for sent in provider.bundles:
        assert sent.system_text == system_text("feedback")
        assert "```" not in sent.system_text and "## Code" not in sent.system_text


def test_feedback_prompt_for_success_carries_both_ppa():
    provider = RecordingProvider("try a smaller adder")
    generate_feedback(passing_individual(), SPEC, provider, KEY)
    sent = provider.bundles[0]
    assert "power=0.8" in sent.user_text
    assert "area=90" in sent.user_text
    assert "power=1" in sent.user_text
    assert "area=100" in sent.user_text


def test_feedback_log_tail_truncation():
    provider = RecordingProvider()
    long_log = "x" * 9000 + "the real error is here"
    generate_feedback(failing_individual(log=long_log), SPEC, provider, KEY)
    sent = provider.bundles[0].user_text
    assert "the real error is here" in sent
    assert "..." in sent
    assert "x" * 5000 not in sent


def synth_failed_individual():
    return Individual(
        id=6,
        thought="t",
        code="module add2; // no netlist\nendmodule",
        feedback="",
        outcome=EvalOutcome(True, False, None, sim_log="all tests passed", synth_log="boom"),
        fitness=SYNTH_FAIL_FITNESS,
    )


@pytest.mark.parametrize(
    "individual, fallback",
    [
        (
            failing_individual,
            "Simulation failed. Log tail:\nexpected sum 2 got 3\nexpected carry 1 got 0",
        ),
        (
            synth_failed_individual,
            "Simulation passed but synthesis produced no usable PPA report.",
        ),
        (
            passing_individual,
            "Design is functionally correct. PPA vs reference: power 0.8 / 1, "
            "area 90 / 100, period 1 / 1.",
        ),
    ],
    ids=["sim_failed", "no_ppa", "ppa"],
)
def test_feedback_provider_outage_degrades_to_fallback(individual, fallback):
    assert generate_feedback(individual(), SPEC, FailingProvider(), KEY) == fallback


def test_feedback_empty_reply_degrades_to_fallback():
    text = generate_feedback(passing_individual(), SPEC, RecordingProvider(reply="  "), KEY)
    assert text
    assert "0.8" in text and "90" in text


def test_feedback_scripted_passthrough():
    provider = ScriptedProvider([ScriptEntry("purpose:feedback", "bug: reset polarity")])
    text = generate_feedback(failing_individual(), SPEC, provider, KEY)
    assert text == "bug: reset polarity"


# --- evaluate() composition -------------------------------------------------


def test_evaluate_fills_outcome_and_fitness_only():
    ind = Individual(
        id=7,
        thought="t",
        code="module m; endmodule\n// PPA: power=0.5 area=50 period=0.5\n",
        outcome=None,
        fitness=None,
    )
    done = evaluate(ind, SPEC, SyntheticEvaluator(), WEIGHTS)
    assert done.outcome is not None
    assert done.outcome.sim_passed is True
    expected = compute_fitness(done.outcome.ppa, REF, WEIGHTS)
    assert done.fitness == expected == 0.5
    # the critique is asked for only when the engine picks it as a parent
    assert done.feedback is None
    assert ind.outcome is None  # input untouched


def test_evaluate_sim_failure_is_neg_inf():
    ind = Individual(
        id=8, thought="t", code="// BUG\nmodule m; endmodule", outcome=None, fitness=None,
    )
    done = evaluate(ind, SPEC, SyntheticEvaluator(), WEIGHTS)
    assert done.fitness == NEG_INF
    assert done.feedback is None


def test_evaluate_synth_fail_sentinel():
    done = evaluate(
        Individual(id=9, thought="t", code="c", feedback="", outcome=None, fitness=None),
        SPEC,
        FixedOutcome(EvalOutcome(True, False, None, sim_log="all tests passed")),
        WEIGHTS,
    )
    assert done.fitness == SYNTH_FAIL_FITNESS
    assert done.fitness > NEG_INF


def test_evaluate_keeps_short_logs_and_clips_long_ones():
    ind = Individual(id=10, thought="t", code="c", outcome=None, fitness=None)
    short = EvalOutcome(False, False, None, sim_log="FAIL: 1+1 != 2")
    assert evaluate(ind, SPEC, FixedOutcome(short), WEIGHTS).outcome is short

    sim_log = "  compiling\n" + "cycle ok\n" * 3000 + "FAIL: 1+1 != 2\n\n"
    synth_log = "Chip area: 80\n" * 1000
    sim_text, synth_text = sim_log.strip(), synth_log.strip()
    # a long log a critique quotes keeps its head, a marker and the tail it quotes
    sim_kept = sim_text[:1000] + f"\n[... {len(sim_text) - 5000} characters cut ...]\n" + sim_text[-4000:]
    synth_kept = (
        synth_text[:1000] + f"\n[... {len(synth_text) - 5000} characters cut ...]\n" + synth_text[-4000:]
    )
    ppa = PpaMetrics(power=0.8, area=80.0, effective_clock_period=1.0)
    cases = [
        # a failed simulation: its critique quotes the sim log alone
        (EvalOutcome(False, False, None, sim_log=sim_log, synth_log=synth_log), sim_kept, ""),
        (EvalOutcome(False, False, None, sim_log="FAIL", synth_log="report"), "FAIL", ""),
        # a pass without PPA: its critique quotes the synth log alone
        (EvalOutcome(True, False, None, sim_log=sim_log, synth_log=synth_log), "", synth_kept),
        (EvalOutcome(True, True, None, sim_log=sim_log, synth_log=synth_log), "", synth_kept),
        (EvalOutcome(True, True, None, sim_log="passed", synth_log="no area"), "", "no area"),
        # a failed gate-level re-simulation: its synth log, which ends in that output
        (
            EvalOutcome(
                True, True, None, sim_log="passed", synth_log=synth_log, post_synth_functional=False
            ),
            "", synth_kept,
        ),
        # a pass with PPA: its critique quotes neither, so neither is stored
        (EvalOutcome(True, True, ppa, sim_log=sim_log, synth_log=synth_log), "", ""),
        (EvalOutcome(True, True, ppa, sim_log="passed", synth_log="area 80"), "", ""),
    ]
    for outcome, sim_stored, synth_stored in cases:
        done = evaluate(ind, SPEC, FixedOutcome(outcome), WEIGHTS).outcome
        assert (done.sim_log, done.synth_log) == (sim_stored, synth_stored)
        assert max(len(done.sim_log), len(done.synth_log)) <= LOG_CLIP_CHARS
        assert dataclasses.replace(done, sim_log=sim_log, synth_log=synth_log) == dataclasses.replace(
            outcome, sim_log=sim_log, synth_log=synth_log
        )


def test_critique_fills_feedback_with_keyed_call():
    provider = RecordingProvider("the carry bit is inverted")
    done = critique(failing_individual(), SPEC, provider, key=(3, 1))
    assert done.feedback == "the carry bit is inverted"
    assert done.outcome == failing_individual().outcome
    assert provider.bundles[0].purpose == "feedback"
    assert provider.bundles[0].key == (3, 1)
