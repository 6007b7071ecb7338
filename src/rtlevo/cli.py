"""Command-line entry point: run, report, ref-ppa, validate-config.

Exit codes for `run`: 0 when a functionally correct design was found,
2 when the run finished without one, 1 on abort (bad config, broken tool
environment, exhausted provider).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import yaml

from .config import EVALUATORS, PROVIDERS, RunConfig, kind_of, load_config, snapshot_dict
from .evaluate import (
    Evaluator,
    SyntheticEvaluator,
    ToolchainConfig,
    ToolchainEvaluator,
    ToolEnvironmentError,
)
from .evolution import EvolutionEngine
from .llm import (
    HttpChatProvider,
    Provider,
    ProviderConfig,
    ScriptConfig,
    ScriptedProvider,
    TranscriptingProvider,
    TranscriptWriter,
)
from .model import ConfigError, PpaMetrics, build, to_plain
from .prompts import build_initial_prompt
from .reporting import (
    CONFIG_SNAPSHOT_FILE,
    FINAL_REPORT_FILE,
    GENERATIONS_FILE,
    SCHEMA_VERSION,
    TRANSCRIPTS_FILE,
    append_generation,
    read_generations,
    render_report,
)

logger = logging.getLogger(__name__)

EXIT_FOUND = 0
EXIT_ABORT = 1
EXIT_NOT_FOUND = 2

# every error the program raises on purpose, besides these two, is a RuntimeError
_ABORT_ERRORS = (ConfigError, ToolEnvironmentError, RuntimeError)


def _build_provider(cfg: RunConfig, transcript: TranscriptWriter) -> Provider:
    if isinstance(cfg.provider, ScriptConfig):
        inner = ScriptedProvider.from_file(cfg.provider.script_file)
        return TranscriptingProvider(inner, transcript)
    return HttpChatProvider(cfg.provider, transcript=transcript)


def _build_evaluator(cfg: RunConfig, workdir_root: Path | None) -> Evaluator:
    if isinstance(cfg.evaluator, ToolchainConfig):
        return ToolchainEvaluator(cfg.evaluator, workdir_root=workdir_root)
    return SyntheticEvaluator(cfg.evaluator)


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
        keep_artifacts=bool(args.keep_artifacts) or cfg.keep_artifacts,
    )


def _dry_run(cfg: RunConfig) -> int:
    bundle = build_initial_prompt(cfg.problem)
    print("# system prompt")
    print(bundle.system_text)
    print()
    print("# initial prompt (user)")
    print(bundle.user_text)
    print()
    print(
        f"# generation 0 would issue {cfg.evolution.population_size} completions "
        "of the prompt above; no provider was called"
    )
    return EXIT_FOUND


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.dry_run:
        return _dry_run(cfg)

    run_dir = Path(cfg.output_dir)
    secrets = []
    if isinstance(cfg.provider, ProviderConfig) and cfg.provider.api_key_env_var:
        secrets.append(os.environ.get(cfg.provider.api_key_env_var, ""))
    transcript = TranscriptWriter(run_dir / TRANSCRIPTS_FILE, redact=secrets)
    # parse the script and preflight the tools before touching the run
    # directory, so a run that cannot start leaves the previous run intact
    provider = _build_provider(cfg, transcript)
    artifacts_dir = run_dir / "artifacts" if cfg.keep_artifacts else None
    evaluator = _build_evaluator(cfg, artifacts_dir)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in (GENERATIONS_FILE, TRANSCRIPTS_FILE, FINAL_REPORT_FILE):
            (run_dir / name).unlink(missing_ok=True)
        (run_dir / CONFIG_SNAPSHOT_FILE).write_text(
            yaml.safe_dump(snapshot_dict(cfg), sort_keys=True), encoding="utf-8"
        )
        result = EvolutionEngine(
            cfg.problem,
            cfg.evolution,
            provider,
            evaluator,
            record_sink=lambda record: append_generation(run_dir / GENERATIONS_FILE, record),
        ).run()
    finally:
        if isinstance(evaluator, ToolchainEvaluator):
            evaluator.cleanup()

    final = {
        "schema_version": SCHEMA_VERSION,
        "problem": cfg.problem.name,
        "found_correct": result.found_correct,
        "best": to_plain(result.best),
        "reference_ppa": to_plain(cfg.problem.reference_ppa),
        "bandit_states": result.history[-1].bandit_states,
        "generations": len(result.history),
    }
    (run_dir / FINAL_REPORT_FILE).write_text(
        json.dumps(final, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    best = result.best
    if result.found_correct and best is not None:
        print(
            f"run complete: best individual id={best.id} "
            f"fitness={best.fitness} ({run_dir})"
        )
        return EXIT_FOUND
    print(f"run complete: no functionally correct design found ({run_dir})")
    return EXIT_NOT_FOUND


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    records = read_generations(run_dir)
    reference = None
    snapshot_path = run_dir / CONFIG_SNAPSHOT_FILE
    if snapshot_path.is_file():
        try:
            snapshot = yaml.safe_load(snapshot_path.read_text(encoding="utf-8"))
            reference = build(PpaMetrics, snapshot["problem"]["reference_ppa"])
        except (TypeError, KeyError, ValueError, yaml.YAMLError):
            logger.warning("config snapshot has no usable reference PPA")
    print(render_report(records, reference), end="")
    return EXIT_FOUND


def cmd_ref_ppa(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    design = Path(args.design)
    if not design.is_file():
        raise ConfigError(f"reference design not found: {design}")
    evaluator = _build_evaluator(cfg, None)
    try:
        ppa = evaluator.reference_ppa(design.read_text(encoding="utf-8"))
    finally:
        if isinstance(evaluator, ToolchainEvaluator):
            evaluator.cleanup()
    print(json.dumps(to_plain(ppa), sort_keys=True, indent=2))
    return EXIT_FOUND


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if isinstance(cfg.provider, ScriptConfig):
        ScriptedProvider.from_file(cfg.provider.script_file)
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
        help="print the generation-0 prompts and exit without calling any provider",
    )
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="render the summary of a finished run directory")
    report_p.add_argument("run_dir", help="run directory written by `rtlevo run`")
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
