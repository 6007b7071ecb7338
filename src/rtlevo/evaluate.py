"""Candidate evaluation: simulation, synthesis, report parsing, and feedback.

Two interchangeable evaluators produce an EvalOutcome from code text:

* ToolchainEvaluator shells out to a real simulator and synthesizer via
  user-editable command templates.
* SyntheticEvaluator is a pure stand-in for tool-free tests, which reads
  its verdict and PPA from markers in the code.

A command template or pattern that cannot run fails the config's load,
and a template the shell cannot split fails the preflight that
`validate-config` and `run` make before any call. Per-individual tool
failures and unusable reports become outcomes; a broken environment
(missing executable, unreadable liberty file) raises ToolEnvironmentError
and aborts the whole run instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import logging
import os
import re
import selectors
import shlex
import shutil
import signal
import subprocess
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .fitness import FitnessWeights, effective_period, fitness_of
from .llm import Provider, ProviderError
from .model import (
    MAX_WAIT_SECONDS,
    ConfigError,
    EvalOutcome,
    Individual,
    PpaMetrics,
    ProblemSpec,
    check_range,
)
from .prompts import PromptBundle, render

logger = logging.getLogger(__name__)

FEEDBACK_LOG_TAIL_CHARS = 4000
# An outcome stores only the one log a critique of it quotes
# (`_critiqued_log`), and every other log as "". Longer than LOG_CLIP_CHARS,
# that log keeps its first LOG_HEAD_CHARS characters, one cut marker line
# and the tail that feedback reads, so it is never longer than LOG_CLIP_CHARS.
LOG_HEAD_CHARS = 1000
LOG_CLIP_CHARS = LOG_HEAD_CHARS + 100 + FEEDBACK_LOG_TAIL_CHARS
# A stage's output or report is kept whole up to CAPTURE_BYTES, and beyond
# that as its first and last CAPTURE_BYTES // 2 bytes around a cut marker,
# so a runaway stage cannot fill memory and any ordinary report stays whole.
CAPTURE_BYTES = 1 << 20
# how often a quiet stage's shell is checked for exit, and how long the pipe
# is still read once it has exited (a `setsid` escapee may hold it open)
EXIT_POLL_SECONDS = 0.1
# the line between a synthesis report and the output of a failed gate-level
# re-simulation, which the synth log of such an outcome ends in
POST_SYNTH_LOG_HEADER = "\n[gate-level re-simulation output]\n"

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


class ReportError(RuntimeError):
    """A synthesis report could not be parsed; the message names the metric
    and, for a missing line, its pattern."""


@dataclass(frozen=True)
class ToolchainConfig:
    simulator_command: str = DEFAULT_SIMULATOR_COMMAND
    synthesizer_command: str = DEFAULT_SYNTHESIZER_COMMAND
    liberty_path: str = ""
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
        check_range(
            "evaluator.per_stage_timeout", self.per_stage_timeout, f"(0, {MAX_WAIT_SECONDS}]"
        )
        # templates render and patterns compile here: a config that cannot run fails to load
        mapping = _stage_mapping(self, 1.0, Path())  # any clock renders the same placeholders
        for name, value in vars(self).items():
            try:
                if name.endswith("_command"):
                    value.format_map(mapping)
                elif name.endswith("_pattern"):
                    re.compile(value)
            except KeyError as exc:
                raise ConfigError(f"evaluator.{name}: unknown placeholder {{{exc.args[0]}}}") from None
            except (ValueError, LookupError, AttributeError, re.error) as exc:
                raise ConfigError(f"evaluator.{name}: {exc}") from None


# reserved words after which the next word still starts a command
_SHELL_KEYWORDS = frozenset(
    {"if", "then", "else", "elif", "fi", "while", "until", "do", "done", "esac", "!", "{", "}", "time"}
)
# reserved words whose clause, up to the next control operator, runs no command
_SHELL_CLAUSE_KEYWORDS = frozenset({"for", "case", "select"})
# a backslash escape or a closed quoted span, each one word piece to sh
_QUOTED_RE = re.compile(r"\\.|'[^']*'|" r'"(?:\\.|[^"\\])*"')


def _command_executables(template: str) -> list[str]:
    """The executables a command template runs: the first word of each
    simple command, skipping assignments, placeholders, redirection targets
    and shell keywords. Operators inside quotes do not split commands. A
    template the shell cannot split, such as one with an unclosed quote, or
    one whose command word is empty (`""`), is a ValueError."""
    # each escape and quoted span, also one that opens inside a word, is
    # hidden from the split as \0<n>\0, so a quoted ';' or space splits
    # nothing; non-POSIX mode keeps an unclosed quote on its word, and fails
    spans, marks = _QUOTED_RE.findall(template), itertools.count()
    hidden = _QUOTED_RE.sub(lambda m: f"\0{next(marks)}\0", template)
    lexer = shlex.shlex(hidden, posix=False, punctuation_chars=True)
    lexer.whitespace_split = True
    names = []
    at_command = True
    in_clause = False
    redirect_target = False
    for token in lexer:
        if all(ch in lexer.punctuation_chars for ch in token):
            if "<" in token or ">" in token:
                redirect_target = True
            else:
                # a case branch's ';;' is followed by the next pattern, up to its ')'
                at_command, in_clause = True, token == ";;"
            continue
        if redirect_target:
            redirect_target = False
            continue
        if not at_command or in_clause:
            continue
        word = "".join(shlex.split(re.sub(r"\0(\d+)\0", lambda m: spans[int(m[1])], token)))
        if not word:
            raise ValueError("a command word is empty")
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
    """Checks every stage's template and executables, and the liberty file
    when any stage names it, before any individual runs. A template the
    shell cannot split is a ConfigError naming its key. A name with no "/"
    not on PATH may still be a builtin of `/bin/sh`, which runs the stages
    (`cd`, `read`), so the shell is asked about those names, in one process.
    A relative path is missing: a stage runs in a fresh scratch directory."""
    missing, keys = [], ("simulator_command", "synthesizer_command", "post_synth_command")
    for key in keys:
        try:
            names = _command_executables(getattr(cfg, key))
        except ValueError as exc:
            raise ConfigError(f"evaluator.{key}: {exc}") from None
        missing += [n for n in names if shutil.which(n) is None or "/" in n and n[0] != "/"]
    if missing:
        script = 'for name do command -v "$name" >/dev/null || echo "$name"; done'
        bare = [name for name in missing if "/" not in name]
        shell = subprocess.run(["/bin/sh", "-c", script, "sh", *bare], capture_output=True, text=True)
        missing = [name for name in missing if "/" in name] + shell.stdout.splitlines()
    if missing:
        raise ToolEnvironmentError(
            f"required executables not found on PATH: {', '.join(sorted(set(missing)))} "
            "(a stage runs in a fresh scratch directory: give a tool off PATH as an absolute path)"
        )
    # an empty liberty_path is Path("."), never a file
    if any("{liberty}" in getattr(cfg, key) for key in keys) and not Path(cfg.liberty_path).is_file():
        raise ToolEnvironmentError(f"liberty file not readable: {cfg.liberty_path!r}")


def _cut_marker(cut: int, unit: str) -> str:
    return f"\n[... {cut} {unit} cut ...]\n"


def _bounded(chunks: Iterable[bytes]) -> str:
    """The chunks joined, whole up to CAPTURE_BYTES and beyond that their
    first and last CAPTURE_BYTES // 2 bytes around a cut marker, decoded
    with newlines as text mode reads them."""
    half = CAPTURE_BYTES // 2
    head, tail, total = bytearray(), bytearray(), 0
    for chunk in chunks:
        total += len(chunk)
        room = half - len(head)
        head += chunk[:room]
        tail += chunk[room:]
        if len(tail) > 2 * half:
            del tail[:-half]
    if total > CAPTURE_BYTES:
        tail[:-half] = _cut_marker(total - len(head) - half, "bytes").encode()
    return (head + tail).decode(errors="replace").replace("\r\n", "\n").replace("\r", "\n")


def _run_shell(command: str, timeout: float, cwd: Path) -> tuple[int, str]:
    """Runs `command` in a session of its own and ends the stage by one
    rule. Its output is read until EOF or a deadline, `timeout` from the
    start. The first pass that finds the shell exited kills every process
    left in its process group, so killed leftovers close the pipe at once,
    and moves the deadline to EXIT_POLL_SECONDS from then, so one that
    detached with `setsid` holds the pipe no longer. The stage timed out
    exactly when its shell is still running at the deadline. However the
    stage ends, its group is killed. The log keeps a bounded head and tail
    (`_bounded`). Linux keeps a group's id, the shell's pid, out of reuse
    while the group has a member, and an empty group is ignored; only a
    new group leader that took the reaped shell's pid, which needs the pid
    counter to wrap, could be hit."""
    with subprocess.Popen(
        command,
        shell=True,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    ) as proc:
        deadline = time.monotonic() + timeout

        def kill_group() -> None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        def chunks() -> Iterator[bytes]:
            nonlocal deadline
            fd = proc.stdout.fileno()
            with selectors.DefaultSelector() as selector:
                selector.register(fd, selectors.EVENT_READ)
                while (remaining := deadline - time.monotonic()) > 0:
                    if selector.select(min(remaining, EXIT_POLL_SECONDS)):
                        chunk = os.read(fd, 1 << 16)
                        if not chunk:
                            return
                        yield chunk
                    # returncode is None until a poll first finds the shell exited
                    if proc.returncode is None and proc.poll() is not None:
                        kill_group()
                        deadline = time.monotonic() + EXIT_POLL_SECONDS

        try:
            captured = _bounded(chunks())
            proc.wait(max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            return -1, f"{captured}\nTIMEOUT: stage exceeded {timeout:g}s and was killed"
        finally:
            kill_group()
    log = captured or f"(no output, exit status {proc.returncode})"
    if proc.returncode == 127:
        raise ToolEnvironmentError(f"command not found while running: {command}\n{log}")
    return proc.returncode, log


def _stage_mapping(cfg: ToolchainConfig, clock_period: float, workdir: Path) -> dict[str, str]:
    return {
        "code_file": str(workdir / "design.v"),
        "testbench_file": str(workdir / "tb.v"),
        "liberty": cfg.liberty_path,
        "clock_ns": f"{clock_period:g}",
        "clock_ps": f"{clock_period * 1000.0:g}",
        "out_exe": str(workdir / "sim.out"),
        "out_report": str(workdir / "synth.rpt"),
        "out_netlist": str(workdir / "netlist.v"),
        "workdir": str(workdir),
    }


def _stage(
    name: str, template: str, cfg: ToolchainConfig, clock_period: float, workdir: Path, **inputs: str
) -> tuple[int, str]:
    """Runs one tool stage: makes `workdir` and writes `inputs` (placeholder
    name to text) into it, then runs the template rendered at `clock_period`
    and writes its captured output to `{workdir}/{name}.log`, which goes
    with the directory when it is scratch."""
    mapping = _stage_mapping(cfg, clock_period, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for placeholder, text in inputs.items():
        Path(mapping[placeholder]).write_text(text, encoding="utf-8")
    returncode, log = _run_shell(template.format_map(mapping), cfg.per_stage_timeout, workdir)
    (workdir / f"{name}.log").write_text(log, encoding="utf-8")
    return returncode, log


def _passed(returncode: int, log: str, cfg: ToolchainConfig) -> bool:
    """The sim and post-synth pass rule: exit zero and a `pass_pattern` match."""
    return returncode == 0 and re.search(cfg.pass_pattern, log) is not None


def simulate(code: str, spec: ProblemSpec, cfg: ToolchainConfig, workdir: Path) -> tuple[bool, str]:
    """Writes code and the testbench into `workdir`, compiles and runs them."""
    inputs = {"code_file": code, "testbench_file": spec.testbench}
    returncode, log = _stage(
        "sim", cfg.simulator_command, cfg, spec.target_clock_period, workdir, **inputs
    )
    return _passed(returncode, log, cfg), log


def synthesize(code: str, spec: ProblemSpec, cfg: ToolchainConfig, workdir: Path) -> tuple[str, bool]:
    """Writes code into `workdir` and runs the scripted synthesis flow on it
    at the problem's target clock; the report is {out_report} when the
    template writes it, captured output otherwise."""
    returncode, log = _stage(
        "synth", cfg.synthesizer_command, cfg, spec.target_clock_period, workdir, code_file=code
    )
    report_file, body = workdir / "synth.rpt", ""
    if report_file.exists():
        with report_file.open("rb") as fh:
            body = _bounded(iter(lambda: fh.read(1 << 16), b""))
    return (body if body.strip() else log), returncode == 0


def _extract(raw: str, cfg: ToolchainConfig, field: str) -> float:
    pattern = getattr(cfg, f"{field}_pattern")
    match = re.search(pattern, raw)
    if match is None:
        raise ReportError(f"report has no line matching evaluator.{field}_pattern {pattern!r}")
    group = next((g for g in match.groups() if g is not None), match.group(0))
    try:
        return float(group)
    except ValueError:
        raise ReportError(f"unparseable {field} value {group!r} in report") from None


def parse_ppa_report(raw: str, cfg: ToolchainConfig, clock_period: float) -> PpaMetrics:
    """The report's PPA from synthesis at `clock_period`; a value that is
    missing, unparseable or out of PpaMetrics's range is a ReportError naming
    its metric."""
    area, power, slack = (_extract(raw, cfg, field) for field in ("area", "power", "slack"))
    period = effective_period(clock_period, slack)
    try:
        return PpaMetrics(power=power, area=area, effective_clock_period=period)
    except ValueError as exc:
        raise ReportError(f"unusable report: {exc}") from None


class Evaluator(Protocol):
    def outcome_for(self, code: str, spec: ProblemSpec, individual_id: int) -> EvalOutcome: ...

    def reference_ppa(self, code: str, spec: ProblemSpec) -> PpaMetrics: ...


class ToolchainEvaluator:
    """Evaluates candidates with real tools, each evaluation in a directory
    of its own, where each stage writes its output as `<stage>.log`.

    With `artifacts_dir` given (kept artifacts), an individual's directory is
    `<artifacts_dir>/ind_NNNNNN`, never removed. Otherwise each evaluation,
    and each `reference_ppa` call, runs in a fresh `rtlevo-` directory
    inside `config.workdir_root` or the system temp directory, removed with
    its logs when it returns or raises; so at most one such directory
    exists per evaluation running at once.
    """

    def __init__(self, config: ToolchainConfig, artifacts_dir: str | Path | None = None):
        self.config = config
        preflight(config)
        self._artifacts = None if artifacts_dir is None else Path(artifacts_dir)

    @contextlib.contextmanager
    def _workdir(self, name: str) -> Iterator[Path]:
        if self._artifacts is not None:
            yield self._artifacts / name
            return
        parent = Path(self.config.workdir_root or tempfile.gettempdir())
        parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(
            prefix="rtlevo-", dir=parent, ignore_cleanup_errors=True
        ) as scratch:
            yield Path(scratch)

    def outcome_for(self, code: str, spec: ProblemSpec, individual_id: int) -> EvalOutcome:
        cfg, clock = self.config, spec.target_clock_period
        with self._workdir(f"ind_{individual_id:06d}") as workdir:
            passed, sim_log = simulate(code, spec, cfg, workdir)
            if not passed:
                return EvalOutcome(sim_passed=False, synth_succeeded=False, ppa=None, sim_log=sim_log)
            report, ok = synthesize(code, spec, cfg, workdir)
            post_synth, synth_log = None, report
            if ok and cfg.post_synth_command:
                returncode, log = _stage("post_synth", cfg.post_synth_command, cfg, clock, workdir)
                post_synth = _passed(returncode, log, cfg)
                if not post_synth:
                    logger.warning("individual %d: gate-level re-sim failed", individual_id)
                    # its critique quotes the re-simulation's output
                    synth_log = report + POST_SYNTH_LOG_HEADER + log
        ppa = None
        if ok and post_synth is not False:
            try:
                ppa = parse_ppa_report(report, cfg, clock)
            except ReportError as exc:
                logger.warning("individual %d: %s; withholding PPA", individual_id, str(exc))
        return EvalOutcome(
            sim_passed=True, synth_succeeded=ok, ppa=ppa,
            sim_log=sim_log, synth_log=synth_log, post_synth_functional=post_synth,
        )

    def reference_ppa(self, code: str, spec: ProblemSpec) -> PpaMetrics:
        with self._workdir("reference") as workdir:
            report, ok = synthesize(code, spec, self.config, workdir)
        if not ok:
            logger.error("reference synthesis output (tail):\n%s", report[-2000:])
            raise RuntimeError("reference design failed to synthesize; problem is PPA-ineligible")
        return parse_ppa_report(report, self.config, spec.target_clock_period)


FAIL_MARKER = "BUG"

_PPA_MARKER_RE = re.compile(
    r"//\s*PPA:\s*power=([0-9.eE+-]+)\s+area=([0-9.eE+-]+)\s+period=([0-9.eE+-]+)"
)


def _ppa_marker(code: str) -> PpaMetrics | None:
    marker = _PPA_MARKER_RE.search(code)
    if marker is None:
        return None
    power, area, period = (float(g) for g in marker.groups())
    return PpaMetrics(power=power, area=area, effective_clock_period=period)


@dataclass(frozen=True)
class SyntheticEvaluatorConfig:
    """The `kind: synthetic` section, which takes no other key: code passes
    when it has no BUG marker, and its PPA is read from a
    `// PPA: power=.. area=.. period=..` marker."""


class SyntheticEvaluator:
    def outcome_for(self, code: str, spec: ProblemSpec, individual_id: int = 0) -> EvalOutcome:
        if FAIL_MARKER in code:
            return EvalOutcome(
                sim_passed=False, synth_succeeded=False, ppa=None,
                sim_log="synthetic simulation: FAILED (pass rule rejected the code)",
            )
        ppa = _ppa_marker(code)
        synth_log = f"synthetic synthesis: {ppa or 'no PPA marker'}"
        return EvalOutcome(
            sim_passed=True, synth_succeeded=True, ppa=ppa,
            sim_log="synthetic simulation: all tests passed", synth_log=synth_log,
        )

    def reference_ppa(self, code: str, spec: ProblemSpec) -> PpaMetrics:
        ppa = _ppa_marker(code)
        if ppa is None:
            raise RuntimeError("reference design has no '// PPA:' marker to read")
        return ppa


def clip_log(log: str) -> str:
    """The log a critique quotes, as its outcome stores it: whole when it
    holds at most LOG_CLIP_CHARS characters; otherwise stripped, and cut to
    its first LOG_HEAD_CHARS characters, a marker line and its last
    FEEDBACK_LOG_TAIL_CHARS characters, which is all `_log_tail` reads of
    it."""
    if len(log) <= LOG_CLIP_CHARS:
        return log
    text = log.strip()
    if len(text) <= LOG_CLIP_CHARS:
        return text
    cut = len(text) - LOG_HEAD_CHARS - FEEDBACK_LOG_TAIL_CHARS
    return text[:LOG_HEAD_CHARS] + _cut_marker(cut, "characters") + text[-FEEDBACK_LOG_TAIL_CHARS:]


def _critiqued_log(outcome: EvalOutcome) -> str | None:
    """The name of the one log a critique of `outcome` quotes: a failed
    simulation's sim log, or the synth log of a pass without PPA or whose
    gate-level re-simulation failed (that synth log ends in the
    re-simulation's output). A pass with PPA is critiqued from its numbers
    alone, so None."""
    if not outcome.sim_passed:
        return "sim_log"
    if outcome.ppa is None or outcome.post_synth_functional is False:
        return "synth_log"
    return None


def _log_tail(log: str, tail_chars: int) -> str:
    text = log.strip() or "(log is empty)"
    if len(text) <= tail_chars:
        return text
    return "..." + text[-tail_chars:]


def critique_texts(
    ind: Individual, spec: ProblemSpec, templates: dict[str, str] | None = None
) -> tuple[str, str]:
    """The critique prompt for an evaluated individual, rendered from
    `templates` when given (see `prompts.render`), and the stand-in its
    feedback takes when the call fails or replies with nothing."""
    outcome = ind.outcome
    quoted = _critiqued_log(outcome)
    mapping = {"functional_description": spec.description, "design_code": ind.code}
    if quoted is not None:
        mapping["log_tail"] = _log_tail(getattr(outcome, quoted), FEEDBACK_LOG_TAIL_CHARS)
    if quoted == "sim_log":
        name = "critique_sim_failed"
        stand_in = "Simulation failed. Log tail:\n" + _log_tail(outcome.sim_log, 500)
    elif outcome.post_synth_functional is False:
        name = "critique_gate_failed"
        stand_in = (
            "Simulation passed but the gate-level re-simulation of the synthesized "
            "netlist failed. Log tail:\n" + _log_tail(outcome.synth_log, 500)
        )
    elif quoted == "synth_log":
        name = "critique_no_ppa"
        stand_in = "Simulation passed but synthesis produced no usable PPA report."
    else:
        name = "critique_ppa"
        gen, ref = outcome.ppa, spec.reference_ppa
        mapping.update(generated_ppa=str(gen), reference_ppa=str(ref))
        stand_in = (
            "Design is functionally correct. "
            f"PPA vs reference: power {gen.power:.6g} / {ref.power:.6g}, "
            f"area {gen.area:.6g} / {ref.area:.6g}, "
            f"period {gen.effective_clock_period:.6g} / {ref.effective_clock_period:.6g}."
        )
    return render(name, mapping, templates), stand_in


def generate_feedback(
    ind: Individual, spec: ProblemSpec, provider: Provider, key: tuple[int, int]
) -> str:
    """Asks the provider to critique an evaluated individual, in prose:
    the call's purpose, `feedback`, sends it the critique system prompt
    (`feedback_system.txt`), not the drafting one, so it asks for no
    design. A provider failure other than `auth` degrades to a
    deterministic non-empty summary.
    `key` is the engine's call key for the feedback prompt (see
    PromptBundle.key), and the prompt names `ind` as its one parent."""
    prompt, stand_in = critique_texts(ind, spec)
    bundle = PromptBundle(
        user_text=prompt,
        parent_ids=(ind.id,),
        purpose="feedback",
        key=key,
    )
    try:
        text = provider.complete(bundle).text.strip()
    except ProviderError as exc:
        # a rejected key fails the next draft too, so it ends the run here
        if exc.kind == "auth":
            raise
        logger.warning("feedback call failed (%s); using fallback text", str(exc))
        text = ""
    return text or stand_in


def critique(
    ind: Individual, spec: ProblemSpec, provider: Provider, key: tuple[int, int]
) -> Individual:
    """`ind` with its feedback filled in by one `generate_feedback` call.

    The call looks `generate_feedback` up in this module at call time, so
    a wrapper set on `rtlevo.evaluate.generate_feedback` sees every
    critique."""
    return dataclasses.replace(ind, feedback=generate_feedback(ind, spec, provider, key))


def evaluate(
    ind: Individual,
    spec: ProblemSpec,
    evaluator: Evaluator,
    weights: FitnessWeights,
) -> Individual:
    """Runs the tools on one individual and returns it with outcome and
    fitness filled in. The outcome keeps only the log a critique of it
    quotes (`_critiqued_log`), clipped by `clip_log`, and every other log
    as "": a pass with PPA keeps neither. Its feedback stays unset: the
    engine asks for a critique only when the individual is first chosen as
    a parent."""
    outcome = evaluator.outcome_for(ind.code, spec, ind.id)
    quoted = _critiqued_log(outcome)
    sim_log, synth_log = (
        clip_log(getattr(outcome, name)) if name == quoted else ""
        for name in ("sim_log", "synth_log")
    )
    if (sim_log, synth_log) != (outcome.sim_log, outcome.synth_log):
        outcome = dataclasses.replace(outcome, sim_log=sim_log, synth_log=synth_log)
    fitness = fitness_of(outcome, spec.reference_ppa, weights)
    return dataclasses.replace(ind, outcome=outcome, fitness=fitness)
