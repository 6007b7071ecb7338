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

from .config import RunConfig, load_config, snapshot_dict
from .evaluate import (
    Evaluator,
    SyntheticEvaluator,
    ToolchainEvaluator,
    ToolEnvironmentError,
)
from .evolution import EvolutionEngine
from .llm import (
    HttpChatProvider,
    Provider,
    ProviderError,
    ScriptedProvider,
    ScriptError,
    TranscriptingProvider,
    TranscriptWriter,
)
from .model import ConfigError, PpaMetrics
from .prompts import build_initial_prompt
from .reporting import (
    CONFIG_SNAPSHOT_FILE,
    FINAL_REPORT_FILE,
    GENERATIONS_FILE,
    SCHEMA_VERSION,
    TRANSCRIPTS_FILE,
    RunDirError,
    append_generation,
    read_generations,
    render_report,
)

logger = logging.getLogger(__name__)

EXIT_FOUND = 0
EXIT_ABORT = 1
EXIT_NOT_FOUND = 2

_ABORT_ERRORS = (ConfigError, ToolEnvironmentError, ProviderError, ScriptError, RunDirError)


def _build_provider(cfg: RunConfig, transcript: TranscriptWriter) -> Provider:
    if cfg.provider_kind == "http":
        assert cfg.provider is not None
        return HttpChatProvider(cfg.provider, transcript=transcript)
    assert cfg.script_path is not None
    return TranscriptingProvider(ScriptedProvider.from_file(cfg.script_path), transcript)


def _build_evaluator(cfg: RunConfig, workdir_root: Path | None) -> Evaluator:
    if cfg.evaluator_kind == "toolchain":
        assert cfg.toolchain is not None
        return ToolchainEvaluator(cfg.toolchain, workdir_root=workdir_root)
    assert cfg.synthetic is not None
    return SyntheticEvaluator(cfg.synthetic)


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
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CONFIG_SNAPSHOT_FILE).write_text(
        yaml.safe_dump(snapshot_dict(cfg), sort_keys=True), encoding="utf-8"
    )
    generations_path = run_dir / GENERATIONS_FILE
    generations_path.unlink(missing_ok=True)
    (run_dir / TRANSCRIPTS_FILE).unlink(missing_ok=True)

    secrets = []
    if cfg.provider is not None and cfg.provider.api_key_env_var:
        secrets.append(os.environ.get(cfg.provider.api_key_env_var, ""))
    transcript = TranscriptWriter(run_dir / TRANSCRIPTS_FILE, redact=secrets)

    provider = _build_provider(cfg, transcript)
    artifacts_dir = run_dir / "artifacts" if cfg.keep_artifacts else None
    evaluator = _build_evaluator(cfg, artifacts_dir)
    try:
        result = EvolutionEngine(
            cfg.problem,
            cfg.evolution,
            provider,
            evaluator,
            record_sink=lambda record: append_generation(generations_path, record),
        ).run()
    finally:
        if isinstance(evaluator, ToolchainEvaluator):
            evaluator.cleanup()

    final = {
        "schema_version": SCHEMA_VERSION,
        "problem": cfg.problem.name,
        "found_correct": result.found_correct,
        "best": result.best.to_dict() if result.best is not None else None,
        "reference_ppa": cfg.problem.reference_ppa.to_dict(),
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
        snapshot = yaml.safe_load(snapshot_path.read_text(encoding="utf-8"))
        try:
            reference = PpaMetrics.from_dict(snapshot["problem"]["reference_ppa"])
        except (TypeError, KeyError, ValueError):
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
    print(json.dumps(ppa.to_dict(), sort_keys=True, indent=2))
    return EXIT_FOUND


def cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    print(
        f"config OK: problem={cfg.problem.name!r} "
        f"provider={cfg.provider_kind} evaluator={cfg.evaluator_kind} "
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
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
