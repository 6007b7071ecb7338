"""Candidate evaluation: simulation, synthesis, report parsing, and feedback.

Two interchangeable evaluators produce an EvalOutcome from code text:

* ToolchainEvaluator shells out to a real simulator and synthesizer via
  user-editable command templates.
* SyntheticEvaluator is a pure, seeded stand-in for tool-free tests.

Per-individual tool failures become Fail outcomes; a broken environment
(missing executable, unreadable liberty file) raises ToolEnvironmentError
and aborts the whole run instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import re
import shlex
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .fitness import SYNTH_FAIL_FITNESS, FitnessWeights, effective_period, fitness_of
from .llm import Provider, ProviderError, ScriptError
from .model import EvalOutcome, Individual, PpaMetrics, ProblemSpec
from .prompts import PromptBundle, default_templates

logger = logging.getLogger(__name__)

FEEDBACK_LOG_TAIL_CHARS = 4000

DEFAULT_SIMULATOR_COMMAND = (
    "iverilog -g2012 -o {out_exe} {code_file} {testbench_file} && vvp {out_exe}"
)
DEFAULT_SYNTHESIZER_COMMAND = (
    'yosys -p "read_verilog {code_file}; synth; dfflibmap -liberty {liberty}; '
    'abc -liberty {liberty} -D {clock_ps}; write_verilog {out_netlist}; '
    'stat -liberty {liberty}" > {out_report} 2>&1'
)

# Success token AND exit zero decide a simulation pass; prints are the
# reliable signal, exit codes alone are not.
DEFAULT_PASS_PATTERN = r"(?i)\b(?:all\s+)?tests?\s+passed\b"
DEFAULT_AREA_PATTERN = r"(?i)chip area[^:\n]*:\s*([0-9][0-9.eE+-]*)"
DEFAULT_POWER_PATTERN = r"(?i)power[^:\n]*:\s*([0-9][0-9.eE+-]*)"
DEFAULT_SLACK_PATTERN = r"(?i)worst(?:\s+negative)?\s+slack[^:\n]*:\s*(-?[0-9][0-9.eE+-]*)"


class ToolEnvironmentError(OSError):
    """The tool environment is unusable (missing executable or library file)."""


class ReportError(ValueError):
    """A synthesis report could not be parsed. `field` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ToolchainConfig:
    simulator_command: str = DEFAULT_SIMULATOR_COMMAND
    synthesizer_command: str = DEFAULT_SYNTHESIZER_COMMAND
    liberty_path: str = ""
    clock_period: float = 0.01
    per_stage_timeout: float = 120.0
    workdir_root: str = ""
    pass_pattern: str = DEFAULT_PASS_PATTERN
    area_pattern: str = DEFAULT_AREA_PATTERN
    power_pattern: str = DEFAULT_POWER_PATTERN
    slack_pattern: str = DEFAULT_SLACK_PATTERN
    # optional gate-level re-simulation of the synthesized netlist; when it
    # fails, PPA is withheld but the individual still counts as Success
    post_synth_command: str = ""

    def __post_init__(self) -> None:
        if self.clock_period <= 0:
            raise ValueError(f"clock_period must be > 0, got {self.clock_period!r}")
        if self.per_stage_timeout <= 0:
            raise ValueError(f"per_stage_timeout must be > 0, got {self.per_stage_timeout!r}")


def _render_command(template: str, mapping: dict[str, str]) -> str:
    class _Strict(dict):
        def __missing__(self, key: str) -> str:
            raise KeyError(f"unknown command placeholder {{{key}}}")

    return template.format_map(_Strict(mapping))


# reserved words after which the next word still starts a command
_SHELL_KEYWORDS = frozenset(
    {"if", "then", "else", "elif", "fi", "while", "until", "do", "done", "esac", "!", "{", "}", "time"}
)
# reserved words whose clause, up to the next control operator, runs no command
_SHELL_CLAUSE_KEYWORDS = frozenset({"for", "case", "select"})


def _command_executables(template: str) -> list[str]:
    """The executables a command template runs: the first word of each
    simple command, skipping assignments, placeholders, redirection targets
    and shell keywords. Operators inside quotes do not split commands."""
    # non-POSIX mode keeps quotes on their words, so a quoted ';' is never
    # taken for an operator
    lexer = shlex.shlex(template, posix=False, punctuation_chars=True)
    lexer.whitespace_split = True
    try:
        tokens = list(lexer)
    except ValueError:
        return []
    names = []
    at_command = True
    in_clause = False
    redirect_target = False
    for token in tokens:
        if all(ch in lexer.punctuation_chars for ch in token):
            if "<" in token or ">" in token:
                redirect_target = True
            else:
                at_command, in_clause = True, False
            continue
        if redirect_target:
            redirect_target = False
            continue
        if not at_command or in_clause:
            continue
        word = "".join(shlex.split(token))
        if word in _SHELL_CLAUSE_KEYWORDS:
            in_clause = True
        elif word in _SHELL_KEYWORDS or "=" in word:
            continue
        else:
            at_command = False
            if "{" not in word:
                names.append(word)
    return names


def preflight(cfg: ToolchainConfig) -> None:
    """Checks executables and the liberty file before any individual runs."""
    missing = []
    for template in (cfg.simulator_command, cfg.synthesizer_command):
        for name in _command_executables(template):
            if shutil.which(name) is None:
                missing.append(name)
    if missing:
        raise ToolEnvironmentError(
            f"required executables not found on PATH: {', '.join(sorted(set(missing)))}"
        )
    if "{liberty}" in cfg.synthesizer_command:
        liberty = Path(cfg.liberty_path)
        if not cfg.liberty_path or not liberty.is_file():
            raise ToolEnvironmentError(f"liberty file not readable: {cfg.liberty_path!r}")


def _run_shell(command: str, timeout: float, cwd: Path) -> tuple[int, str]:
    try:
        proc = subprocess.run(
            command,
            shell=True,
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
            text=True,
            errors="replace",
        )
    except subprocess.TimeoutExpired as exc:
        captured = exc.stdout or ""
        if isinstance(captured, bytes):
            captured = captured.decode(errors="replace")
        return -1, f"{captured}\nTIMEOUT: stage exceeded {timeout:g}s and was killed"
    log = proc.stdout or f"(no output, exit status {proc.returncode})"
    if proc.returncode == 127:
        raise ToolEnvironmentError(f"command not found while running: {command}\n{log}")
    return proc.returncode, log


def _stage_mapping(cfg: ToolchainConfig, workdir: Path) -> dict[str, str]:
    return {
        "code_file": str(workdir / "design.v"),
        "testbench_file": str(workdir / "tb.v"),
        "liberty": cfg.liberty_path,
        "clock_ns": f"{cfg.clock_period:g}",
        "clock_ps": f"{cfg.clock_period * 1000.0:g}",
        "out_exe": str(workdir / "sim.out"),
        "out_report": str(workdir / "synth.rpt"),
        "out_netlist": str(workdir / "netlist.v"),
        "workdir": str(workdir),
    }


def simulate(
    code: str, spec: ProblemSpec, cfg: ToolchainConfig, workdir: Path | None = None
) -> tuple[bool, str]:
    """Compiles code with the testbench and runs it; pass needs the success
    token in the output and a zero exit."""
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="sim-", dir=cfg.workdir_root or None))
    workdir.mkdir(parents=True, exist_ok=True)
    mapping = _stage_mapping(cfg, workdir)
    Path(mapping["code_file"]).write_text(code, encoding="utf-8")
    Path(mapping["testbench_file"]).write_text(spec.testbench_source, encoding="utf-8")
    command = _render_command(cfg.simulator_command, mapping)
    returncode, log = _run_shell(command, cfg.per_stage_timeout, workdir)
    passed = returncode == 0 and re.search(cfg.pass_pattern, log) is not None
    return passed, log


def synthesize(
    code: str, cfg: ToolchainConfig, workdir: Path | None = None
) -> tuple[str, bool]:
    """Runs the scripted synthesis flow; the report is {out_report} when the
    template writes it, captured output otherwise."""
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="synth-", dir=cfg.workdir_root or None))
    workdir.mkdir(parents=True, exist_ok=True)
    mapping = _stage_mapping(cfg, workdir)
    code_file = Path(mapping["code_file"])
    if not code_file.exists():
        code_file.write_text(code, encoding="utf-8")
    command = _render_command(cfg.synthesizer_command, mapping)
    returncode, log = _run_shell(command, cfg.per_stage_timeout, workdir)
    report_file = Path(mapping["out_report"])
    report = log
    if report_file.exists():
        body = report_file.read_text(encoding="utf-8", errors="replace")
        if body.strip():
            report = body
    return report, returncode == 0


def _extract(pattern: str, raw: str, field: str) -> float:
    match = re.search(pattern, raw)
    if match is None:
        raise ReportError(field, f"report is missing a {field} line")
    group = next((g for g in match.groups() if g is not None), match.group(0))
    try:
        return float(group)
    except ValueError:
        raise ReportError(field, f"unparseable {field} value {group!r}") from None


def parse_ppa_report(raw: str, cfg: ToolchainConfig) -> PpaMetrics:
    area = _extract(cfg.area_pattern, raw, "area")
    power = _extract(cfg.power_pattern, raw, "power")
    slack = _extract(cfg.slack_pattern, raw, "slack")
    if area < 0:
        raise ReportError("area", f"negative area {area} in report")
    if power < 0:
        raise ReportError("power", f"negative power {power} in report")
    return PpaMetrics(
        power=power,
        area=area,
        effective_clock_period=effective_period(cfg.clock_period, slack),
    )


class Evaluator(Protocol):
    def outcome_for(self, code: str, spec: ProblemSpec, individual_id: int) -> EvalOutcome: ...

    def reference_ppa(self, code: str) -> PpaMetrics: ...


class ToolchainEvaluator:
    """Evaluates candidates with real tools, one scratch directory per id."""

    def __init__(self, config: ToolchainConfig, workdir_root: str | Path | None = None):
        self.config = config
        root = workdir_root or config.workdir_root or tempfile.mkdtemp(prefix="rtlevo-")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        preflight(config)

    def _workdir(self, tag: str) -> Path:
        path = self._root / tag
        path.mkdir(parents=True, exist_ok=True)
        return path

    def outcome_for(self, code: str, spec: ProblemSpec, individual_id: int) -> EvalOutcome:
        workdir = self._workdir(f"ind_{individual_id:06d}")
        passed, sim_log = simulate(code, spec, self.config, workdir)
        if not passed:
            return EvalOutcome(sim_passed=False, synth_succeeded=False, ppa=None, sim_log=sim_log)
        report, ok = synthesize(code, self.config, workdir)
        if not ok:
            return EvalOutcome(
                sim_passed=True, synth_succeeded=False, ppa=None,
                sim_log=sim_log, synth_log=report,
            )
        post_synth = self._post_synth_check(spec, workdir)
        ppa = None
        if post_synth is not False:
            try:
                ppa = parse_ppa_report(report, self.config)
            except ReportError as exc:
                logger.warning("individual %d: unusable synthesis report (%s)", individual_id, exc)
        return EvalOutcome(
            sim_passed=True, synth_succeeded=True, ppa=ppa,
            sim_log=sim_log, synth_log=report, post_synth_functional=post_synth,
        )

    def _post_synth_check(self, spec: ProblemSpec, workdir: Path) -> bool | None:
        if not self.config.post_synth_command:
            return None
        mapping = _stage_mapping(self.config, workdir)
        command = _render_command(self.config.post_synth_command, mapping)
        returncode, log = _run_shell(command, self.config.per_stage_timeout, workdir)
        ok = returncode == 0 and re.search(self.config.pass_pattern, log) is not None
        if not ok:
            logger.warning("gate-level re-simulation failed; withholding PPA\n%s", log[-500:])
        return ok

    def reference_ppa(self, code: str) -> PpaMetrics:
        workdir = self._workdir("reference")
        report, ok = synthesize(code, self.config, workdir)
        if not ok:
            raise RuntimeError(
                "reference design failed to synthesize; problem is PPA-ineligible\n"
                + report[-2000:]
            )
        return parse_ppa_report(report, self.config)

    def cleanup(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


FAIL_MARKER = "BUG"

_PPA_MARKER_RE = re.compile(
    r"//\s*PPA:\s*power=([0-9.eE+-]+)\s+area=([0-9.eE+-]+)\s+period=([0-9.eE+-]+)"
)


@dataclass(frozen=True)
class SyntheticEvaluatorConfig:
    """Pure stand-in rules; default pass rule is "no BUG marker in the code"
    and default PPA comes from a `// PPA: power=.. area=.. period=..` marker
    or, failing that, a hash of (seed, code)."""

    pass_predicate: Callable[[str], bool] | None = None
    ppa_function: Callable[[str], PpaMetrics] | None = None
    seed: int = 0


class SyntheticEvaluator:
    def __init__(self, config: SyntheticEvaluatorConfig | None = None):
        self.config = config or SyntheticEvaluatorConfig()

    def _passes(self, code: str) -> bool:
        if self.config.pass_predicate is not None:
            return bool(self.config.pass_predicate(code))
        return FAIL_MARKER not in code

    def _ppa(self, code: str) -> PpaMetrics:
        if self.config.ppa_function is not None:
            return self.config.ppa_function(code)
        marker = _PPA_MARKER_RE.search(code)
        if marker:
            power, area, period = (float(g) for g in marker.groups())
            return PpaMetrics(power=power, area=area, effective_clock_period=period)
        digest = hashlib.sha256(f"{self.config.seed}:{code}".encode()).digest()
        u = [
            int.from_bytes(digest[8 * i : 8 * i + 8], "big") / 2**64
            for i in range(3)
        ]
        return PpaMetrics(
            power=0.5 + u[0],
            area=50.0 + 100.0 * u[1],
            effective_clock_period=0.5 + u[2],
        )

    def outcome_for(self, code: str, spec: ProblemSpec, individual_id: int = 0) -> EvalOutcome:
        if not self._passes(code):
            return EvalOutcome(
                sim_passed=False, synth_succeeded=False, ppa=None,
                sim_log="synthetic simulation: FAILED (pass rule rejected the code)",
            )
        ppa = self._ppa(code)
        return EvalOutcome(
            sim_passed=True, synth_succeeded=True, ppa=ppa,
            sim_log="synthetic simulation: all tests passed",
            synth_log=(
                f"synthetic synthesis: power={ppa.power:.6g} area={ppa.area:.6g} "
                f"period={ppa.effective_clock_period:.6g}"
            ),
        )

    def reference_ppa(self, code: str) -> PpaMetrics:
        return self._ppa(code)


def _log_tail(log: str, tail_chars: int) -> str:
    text = log.strip() or "(log is empty)"
    if len(text) <= tail_chars:
        return text
    return "..." + text[-tail_chars:]


def _fallback_feedback(ind: Individual, spec: ProblemSpec) -> str:
    outcome = ind.outcome
    assert outcome is not None
    if not outcome.sim_passed:
        return "Simulation failed. Log tail:\n" + _log_tail(outcome.sim_log, 500)
    if outcome.ppa is None:
        return "Simulation passed but synthesis produced no usable PPA report."
    gen, ref = outcome.ppa, spec.reference_ppa
    return (
        "Design is functionally correct. "
        f"PPA vs reference: power {gen.power:.6g} / {ref.power:.6g}, "
        f"area {gen.area:.6g} / {ref.area:.6g}, "
        f"period {gen.effective_clock_period:.6g} / {ref.effective_clock_period:.6g}."
    )


def _feedback_prompt(ind: Individual, spec: ProblemSpec, tail_chars: int) -> str:
    outcome = ind.outcome
    assert outcome is not None
    if not outcome.sim_passed:
        return (
            "A Verilog design failed its testbench. Analyze the error log and "
            "write concise bug-fixing feedback (what is wrong and how to fix it).\n\n"
            f"Task description:\n{spec.functional_description}\n\n"
            f"Design code:\n{ind.code}\n\n"
            f"Simulation log (tail):\n{_log_tail(outcome.sim_log, tail_chars)}\n"
        )
    ref = spec.reference_ppa
    if outcome.ppa is None:
        ppa_lines = "synthesis produced no usable PPA report\n" + _log_tail(
            outcome.synth_log, tail_chars
        )
    else:
        gen = outcome.ppa
        ppa_lines = (
            f"generated: power={gen.power:.6g} area={gen.area:.6g} "
            f"period={gen.effective_clock_period:.6g}\n"
            f"reference: power={ref.power:.6g} area={ref.area:.6g} "
            f"period={ref.effective_clock_period:.6g}"
        )
    return (
        "A Verilog design passed its testbench. Review its PPA against the "
        "reference design and suggest concrete improvements (smaller area, "
        "lower power, better timing) that preserve functionality.\n\n"
        f"Task description:\n{spec.functional_description}\n\n"
        f"Design code:\n{ind.code}\n\n"
        f"PPA results:\n{ppa_lines}\n"
    )


def generate_feedback(
    ind: Individual,
    spec: ProblemSpec,
    provider: Provider,
    tail_chars: int = FEEDBACK_LOG_TAIL_CHARS,
) -> str:
    """Asks the provider to critique an evaluated individual; provider
    failures degrade to a deterministic non-empty summary."""
    if ind.outcome is None:
        raise ValueError("generate_feedback needs an evaluated individual")
    bundle = PromptBundle(
        system_text=default_templates().system_text(),
        user_text=_feedback_prompt(ind, spec, tail_chars),
        purpose="feedback",
    )
    try:
        text = provider.complete(bundle).text.strip()
    except (ProviderError, ScriptError) as exc:
        logger.warning("feedback call failed (%s); using fallback text", exc)
        text = ""
    return text or _fallback_feedback(ind, spec)


def evaluate(
    ind: Individual,
    spec: ProblemSpec,
    evaluator: Evaluator,
    provider: Provider,
    weights: FitnessWeights,
    synth_fail_fitness: float = SYNTH_FAIL_FITNESS,
    feedback_tail: int = FEEDBACK_LOG_TAIL_CHARS,
) -> Individual:
    """Runs the full pipeline on one individual and returns it with
    outcome, fitness, and feedback filled in."""
    outcome = evaluator.outcome_for(ind.code, spec, ind.id)
    fitness = fitness_of(outcome, spec.reference_ppa, weights, synth_fail_fitness)
    evaluated = dataclasses.replace(ind, outcome=outcome, fitness=fitness)
    feedback = generate_feedback(evaluated, spec, provider, feedback_tail)
    return dataclasses.replace(evaluated, feedback=feedback)
