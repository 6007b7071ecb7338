"""Run configuration: a YAML file resolved into typed config objects.

`model.build`, which also reads the run history, makes each config
dataclass (EvolutionConfig with its FitnessWeights, ProviderConfig,
ScriptConfig, ToolchainConfig, SyntheticEvaluatorConfig, PpaMetrics,
ProblemSpec) from its YAML section, under its rules for keys, null values
and strict types; unknown keys are errors, so typos do not silently become
defaults. Omitted hyperparameters take the dataclass defaults: N=10, λ=10,
G=20, n=1, R=1, c=2.0, τ=1.0, sampling temperature 1.0, top_p 0.95, clock
period 0.01 ns, weights chosen by circuit kind.

Explicit here: `kind`, which names the provider's or the evaluator's
dataclass (PROVIDERS, EVALUATORS), the problem section's own key names and
files, and `clock_period`, which defaults to `problem.target_clock_period`.
Paths are made absolute against the config's directory, so the snapshot
that `snapshot_dict` writes with `model.to_plain` loads into the same
config.

Secrets never live in config files: the provider section names an
environment variable for the API key and rejects literal key material.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .evaluate import SyntheticEvaluatorConfig, ToolchainConfig
from .evolution import EvolutionConfig
from .llm import ProviderConfig, ScriptConfig
from .model import (
    CircuitKind,
    ConfigError,
    PpaMetrics,
    ProblemSpec,
    build,
    check_keys,
    read_value,
    read_yaml,
    require_map,
    to_plain,
)

TOP_KEYS = ("problem", "evolution", "provider", "evaluator", "output_dir", "keep_artifacts")
PROBLEM_KEYS = (
    "name", "description", "description_file", "testbench", "testbench_file",
    "circuit_kind", "target_clock_period", "reference_ppa",
)
# each section's `kind` names the dataclass that reads the rest of it
PROVIDERS = {"http": ProviderConfig, "scripted": ScriptConfig}
EVALUATORS = {"toolchain": ToolchainConfig, "synthetic": SyntheticEvaluatorConfig}


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    evolution: EvolutionConfig
    provider: ProviderConfig | ScriptConfig
    evaluator: ToolchainConfig | SyntheticEvaluatorConfig
    output_dir: str
    keep_artifacts: bool = False


def kind_of(section, kinds: dict) -> str:
    """The `kind` in `kinds` (PROVIDERS or EVALUATORS) of a config section."""
    return next(kind for kind, cls in kinds.items() if isinstance(section, cls))


def _given(section: dict) -> dict:
    """The section without its null values: null means the default."""
    return {key: value for key, value in section.items() if value is not None}


def _split_kind(section, where: str, kinds: dict) -> tuple[type, dict]:
    """The dataclass the section's `kind` names, and the rest of its keys."""
    section = require_map(section, where)
    kind = str(section.get("kind", "")).strip().lower()
    if kind not in kinds:
        raise ConfigError(f"{where}.kind must be one of {tuple(kinds)}, got {kind!r}")
    return kinds[kind], {key: value for key, value in section.items() if key != "kind"}


def _path(fields: dict, key: str, base: Path) -> dict:
    """`key`, when given, made absolute against the config's directory."""
    return {key: str(base / str(fields[key]))} if fields.get(key) else {}


def _read_text_field(section: dict, inline_key: str, file_key: str, base: Path, where: str) -> str:
    inline = section.get(inline_key)
    file_name = section.get(file_key)
    if inline is not None and file_name is not None:
        raise ConfigError(f"{where}: give {inline_key} or {file_key}, not both")
    if inline is not None:
        return str(inline)
    if file_name is not None:
        path = base / str(file_name)
        if not path.is_file():
            raise ConfigError(f"{where}.{file_key}: file not found: {path}")
        return path.read_text(encoding="utf-8")
    return ""


def _load_problem(section, base: Path) -> ProblemSpec:
    section = require_map(section, "problem")
    check_keys(section, PROBLEM_KEYS, "problem")
    description = _read_text_field(section, "description", "description_file", base, "problem")
    if not description.strip():
        raise ConfigError("problem needs a description or description_file")
    kind_raw = str(section.get("circuit_kind", "")).strip().lower()
    try:
        circuit_kind = CircuitKind(kind_raw)
    except ValueError:
        raise ConfigError(
            f"problem.circuit_kind must be 'combinational' or 'sequential', got {kind_raw!r}"
        ) from None
    reference = build(PpaMetrics, section.get("reference_ppa"), "problem.reference_ppa")
    scalars = {k: v for k, v in _given(section).items() if k in ("name", "target_clock_period")}
    return build(
        ProblemSpec,
        {"name": "unnamed", "target_clock_period": 0.01, **scalars},
        "problem",
        functional_description=description,
        testbench_source=_read_text_field(section, "testbench", "testbench_file", base, "problem"),
        reference_ppa=reference,
        circuit_kind=circuit_kind,
    )


def _load_provider(section, base: Path) -> ProviderConfig | ScriptConfig:
    section = require_map(section, "provider")
    if "api_key" in section:
        raise ConfigError(
            "provider.api_key is not accepted; set provider.api_key_env_var to the "
            "name of an environment variable instead"
        )
    cls, fields = _split_kind(section, "provider", PROVIDERS)
    if cls is ScriptConfig:
        script = build(ScriptConfig, fields, "provider", **_path(fields, "script_file", base))
        if not Path(script.script_file).is_file():
            raise ConfigError(f"provider.script_file: file not found: {script.script_file}")
        return script
    if not fields.get("endpoint_url"):
        raise ConfigError("provider.endpoint_url is required for kind: http")
    return build(ProviderConfig, fields, "provider")


def _load_evaluator(
    section, base: Path, problem: ProblemSpec
) -> ToolchainConfig | SyntheticEvaluatorConfig:
    cls, fields = _split_kind(section, "evaluator", EVALUATORS)
    resolved = {}
    if cls is ToolchainConfig:
        if fields.get("clock_period") is None:
            resolved["clock_period"] = problem.target_clock_period
        resolved.update(_path(fields, "liberty_path", base))
    return build(cls, fields, "evaluator", **resolved)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one run's YAML config, applying defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = require_map(read_yaml(path, "config"), "config")
    check_keys(raw, TOP_KEYS, "config")
    raw = _given(raw)
    base = path.resolve().parent
    problem = _load_problem(raw.get("problem"), base)
    evolution = build(EvolutionConfig, raw.get("evolution", {}), "evolution")
    return RunConfig(
        problem=problem,
        evolution=evolution,
        provider=_load_provider(raw.get("provider"), base),
        evaluator=_load_evaluator(raw.get("evaluator"), base, problem),
        output_dir=str(raw.get("output_dir", "runs/latest")),
        keep_artifacts=read_value(bool, raw.get("keep_artifacts", False), "keep_artifacts"),
    )


def snapshot_dict(cfg: RunConfig) -> dict:
    """A plain-dict image of the resolved config for persisting in the run
    directory; `load_config` reads it back into the same config, with the
    weights resolved. Contains no secrets (keys are env-var names only)."""
    problem = cfg.problem
    evolution = dataclasses.replace(cfg.evolution, weights=cfg.evolution.weights_for(problem))
    return {
        "problem": {
            "name": problem.name,
            "description": problem.functional_description,
            "testbench": problem.testbench_source,
            "circuit_kind": problem.circuit_kind.value,
            "target_clock_period": problem.target_clock_period,
            "reference_ppa": to_plain(problem.reference_ppa),
        },
        "evolution": to_plain(evolution),
        "provider": {"kind": kind_of(cfg.provider, PROVIDERS), **to_plain(cfg.provider)},
        "evaluator": {"kind": kind_of(cfg.evaluator, EVALUATORS), **to_plain(cfg.evaluator)},
        "output_dir": cfg.output_dir,
        "keep_artifacts": cfg.keep_artifacts,
    }
