"""Command-line entry point: run, report, ref-ppa, validate-config.

Exit codes for `run`: 0 when a functionally correct design was found,
2 when the run finished without one, 1 on abort (bad config, broken tool
environment, a provider call that fails with auth, a draft call that fails
with unmatched, ten failed draft calls in a row).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import shutil
import sys
import time
from pathlib import Path

import yaml

from .config import EVALUATORS, PROVIDERS, RunConfig, kind_of, load_config, snapshot_dict
from .evaluate import Evaluator, SyntheticEvaluator, ToolchainConfig, ToolchainEvaluator
from .evolution import EvolutionEngine
from .llm import (
    HttpChatProvider,
    Provider,
    ScriptConfig,
    ScriptedProvider,
    TranscriptingProvider,
    TranscriptWriter,
)
from .model import ConfigError, GenerationRecord, to_plain
from .prompts import build_initial_prompt, system_text
from .reporting import (
    CONFIG_SNAPSHOT_FILE,
    FINAL_REPORT_FILE,
    GENERATIONS_FILE,
    SCHEMA_VERSION,
    TRANSCRIPTS_FILE,
    HistoryWriter,
    RunDirError,
    RunPrompts,
    append_generation,
    read_generations,
    read_problem,
    render_report,
)

logger = logging.getLogger(__name__)

EXIT_FOUND = 0
EXIT_ABORT = 1
EXIT_NOT_FOUND = 2

# every error the program raises on purpose is one of these (a
# ToolEnvironmentError is an OSError), and so is an OSError from making the
# run directory, such as an --out under a regular file
_ABORT_ERRORS = (ConfigError, OSError, RuntimeError)


def _build_provider(cfg: RunConfig, transcript: TranscriptWriter) -> Provider:
    if isinstance(cfg.provider, ScriptConfig):
        inner = ScriptedProvider.from_file(cfg.provider.script_file)
        return TranscriptingProvider(inner, transcript)
    return HttpChatProvider(cfg.provider, transcript=transcript)


def _build_evaluator(cfg: RunConfig, artifacts_dir: Path | None) -> Evaluator:
    if isinstance(cfg.evaluator, ToolchainConfig):
        return ToolchainEvaluator(cfg.evaluator, artifacts_dir=artifacts_dir)
    return SyntheticEvaluator()


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    evolution = cfg.evolution
    if args.seed is not None:
        evolution = dataclasses.replace(evolution, rng_seed=args.seed)
    if args.generations is not None:
        evolution = dataclasses.replace(evolution, max_generations=args.generations)
    return dataclasses.replace(
        cfg,
        evolution=evolution,
        output_dir=str(args.out) if args.out else cfg.output_dir,
    )


def _dry_run(cfg: RunConfig) -> int:
    bundle = build_initial_prompt(cfg.problem, (0, 0))
    print("# system prompt of every draft")
    print(bundle.system_text)
    print()
    print("# system prompt of every critique")
    print(system_text("feedback"))
    print()
    print("# initial prompt (user)")
    print(bundle.user_text)
    print()
    print(
        f"# generation 0 would issue {cfg.evolution.population_size} completions "
        "of the prompt above; no provider was called"
    )
    return EXIT_FOUND


def _progress(record: GenerationRecord, elapsed: float) -> None:
    """Logs one line for a finished generation: its pass count, the best
    fitness so far, its draft and critique calls, and the run's elapsed
    time."""
    logger.info(
        "generation %d: %d/%d passed, best fitness %.6g, %d drafts, %d critiques, %.2f s elapsed",
        record.generation_index, record.success_count, len(record.population),
        record.best_so_far.fitness, len(record.drafts), len(record.critiques), elapsed,
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.dry_run:
        return _dry_run(cfg)

    run_dir = Path(cfg.output_dir)
    transcript = TranscriptWriter(run_dir / TRANSCRIPTS_FILE)
    history = HistoryWriter(run_dir / GENERATIONS_FILE)
    # parse the script, read the API key and preflight the tools before
    # touching the run directory, so a run that cannot start leaves the
    # previous run intact; validate-config makes the same checks. Each
    # writer starts its file new at its first line and is closed on every
    # exit, as are an http provider's kept-alive connections.
    provider = _build_provider(cfg, transcript)
    connections = (
        contextlib.closing(provider)
        if isinstance(provider, HttpChatProvider)
        else contextlib.nullcontext()
    )
    artifacts_dir = run_dir / "artifacts"
    with transcript, history, connections:
        evaluator = _build_evaluator(cfg, artifacts_dir if args.keep_artifacts else None)
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in (GENERATIONS_FILE, TRANSCRIPTS_FILE, FINAL_REPORT_FILE):
            (run_dir / name).unlink(missing_ok=True)
        # a stage reads the files an earlier run left in a kept workdir
        if artifacts_dir.exists():
            shutil.rmtree(artifacts_dir)
        (run_dir / CONFIG_SNAPSHOT_FILE).write_text(
            yaml.safe_dump(snapshot_dict(cfg), sort_keys=True), encoding="utf-8"
        )
        started = time.monotonic()

        def sink(record: GenerationRecord) -> None:
            append_generation(history, record)
            _progress(record, time.monotonic() - started)

        result = EvolutionEngine(
            cfg.problem, cfg.evolution, provider, evaluator, record_sink=sink
        ).run()

    final = {
        "schema_version": SCHEMA_VERSION,
        "problem": cfg.problem.name,
        "found_correct": result.found_correct,
        "best": to_plain(result.best),
        "reference_ppa": to_plain(cfg.problem.reference_ppa),
        "bandit_states": to_plain(result.history[-1].bandit_states),
        "generations": len(result.history),
    }
    (run_dir / FINAL_REPORT_FILE).write_text(
        json.dumps(final, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    best = result.best
    if result.found_correct:
        print(
            f"run complete: best individual id={best.id} "
            f"fitness={best.fitness} ({run_dir})"
        )
        return EXIT_FOUND
    print(f"run complete: no functionally correct design found ({run_dir})")
    return EXIT_NOT_FOUND


def _print_call(run_dir: Path, call: str) -> None:
    """Prints the call keyed `call`, written G/N: its purpose, operator and
    parents, its system prompt (the transcript header's for its purpose)
    and user prompt, and its reply or error."""
    try:
        key = tuple(int(part) for part in call.split("/"))
    except ValueError:
        key = ()
    if len(key) != 2 or min(key) < 0:
        raise ConfigError(f"--call must name a call key as G/N, got {call!r}")
    prompts = RunPrompts(run_dir)
    user = prompts.text(key)
    entry = prompts.entries[key]
    purpose = entry["purpose"]
    about = [purpose]
    if purpose == "generate":
        about.append(f"strategy {entry['strategy'] or 'initial'}")
    if entry["parent_ids"]:
        about.append("parents " + ", ".join(map(str, entry["parent_ids"])))
    print(f"# call {call}: {'; '.join(about)}")
    print("# system prompt")
    print(prompts.header["system_text"].get(purpose))
    print()
    print("# user prompt")
    print(user.rstrip("\n"))
    print()
    if entry["error"] is None:
        print("# reply")
        print(entry["response"].rstrip("\n"))
    else:
        print("# error")
        print(entry["error"])


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if args.call is not None:
        _print_call(run_dir, args.call)
        return EXIT_FOUND
    records = read_generations(run_dir)
    reference = None
    if (run_dir / CONFIG_SNAPSHOT_FILE).is_file():
        try:
            reference = read_problem(run_dir).reference_ppa
        except RunDirError:
            logger.warning("config snapshot has no usable reference PPA")
    print(render_report(records, reference), end="")
    return EXIT_FOUND


def cmd_ref_ppa(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    design = Path(args.design)
    if not design.is_file():
        raise ConfigError(f"reference design not found: {design}")
    ppa = _build_evaluator(cfg, None).reference_ppa(design.read_text(encoding="utf-8"), cfg.problem)
    print(json.dumps(to_plain(ppa), sort_keys=True, indent=2))
    return EXIT_FOUND


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    # what `run` checks before it starts: the script, the API key, the tools
    transcript = TranscriptWriter(Path(cfg.output_dir) / TRANSCRIPTS_FILE)
    _build_provider(cfg, transcript)
    _build_evaluator(cfg, None)
    print(
        f"config OK: problem={cfg.problem.name!r} "
        f"provider={kind_of(cfg.provider, PROVIDERS)} "
        f"evaluator={kind_of(cfg.evaluator, EVALUATORS)} "
        f"N={cfg.evolution.population_size} lambda={cfg.evolution.offspring_count} "
        f"G={cfg.evolution.max_generations}"
    )
    return EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtlevo",
        description="Evolutionary RTL generation with LLM mutation operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one evolutionary run from a config file")
    run_p.add_argument("--config", required=True, help="path to the YAML run config")
    run_p.add_argument("--seed", type=int, help="override evolution.rng_seed")
    run_p.add_argument("--out", help="override output_dir")
    run_p.add_argument("--generations", type=int, help="override evolution.max_generations")
    run_p.add_argument(
        "--keep-artifacts", action="store_true", help="keep per-individual tool artifacts"
    )
    run_p.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "print the system prompts and the generation-0 prompt, "
            "and exit without calling any provider"
        ),
    )
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="render the summary of a finished run directory")
    report_p.add_argument("run_dir", help="run directory written by `rtlevo run`")
    report_p.add_argument(
        "--call",
        metavar="G/N",
        help=(
            "print the prompt and reply of the call keyed G/N (call N of generation G), "
            "its prompt rebuilt from the run directory, in place of the summary"
        ),
    )
    report_p.set_defaults(func=cmd_report)

    ref_p = sub.add_parser(
        "ref-ppa", help="evaluate a reference design once and print its PPA as JSON"
    )
    ref_p.add_argument("design", help="path to the reference RTL file")
    ref_p.add_argument("--config", required=True, help="config naming the evaluator to use")
    ref_p.set_defaults(func=cmd_ref_ppa)

    val_p = sub.add_parser("validate-config", help="check a config file and exit")
    val_p.add_argument("--config", required=True, help="path to the YAML run config")
    val_p.set_defaults(func=cmd_validate_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ABORT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
