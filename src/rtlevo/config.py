"""Run configuration: a YAML file resolved into typed config objects.

`model.build`, which also reads the run history, makes each config
dataclass (EvolutionConfig with its FitnessWeights, ProviderConfig,
ToolchainConfig, SyntheticEvaluatorConfig, PpaMetrics, ProblemSpec) from
its YAML section, under its rules for keys, null values and strict types;
unknown keys are errors, so typos do not silently become defaults.
Omitted hyperparameters take the dataclass defaults: N=10, λ=10, G=20, n=1,
R=1, c=2.0, τ=1.0, sampling temperature 1.0, top_p 0.95, clock period
0.01 ns, weights chosen by circuit kind.

Explicit here: `kind`, the problem section's own key names and files, and
`clock_period`, which defaults to `problem.target_clock_period`. Paths are
made absolute against the config's directory, so the snapshot that
`snapshot_dict` writes with `model.to_plain` loads into the same config.

Secrets never live in config files: the provider section names an
environment variable for the API key and rejects literal key material.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

from .evaluate import SyntheticEvaluatorConfig, ToolchainConfig
from .evolution import EvolutionConfig
from .llm import ProviderConfig
from .model import (
    CircuitKind,
    ConfigError,
    PpaMetrics,
    ProblemSpec,
    build,
    check_keys,
    read_value,
    require_map,
    to_plain,
)

PROVIDER_KINDS = ("http", "scripted")
EVALUATOR_KINDS = ("toolchain", "synthetic")
TOP_KEYS = ("problem", "evolution", "provider", "evaluator", "output_dir", "keep_artifacts")
PROBLEM_KEYS = (
    "name", "description", "description_file", "testbench", "testbench_file",
    "circuit_kind", "target_clock_period", "reference_ppa",
)


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    evolution: EvolutionConfig
    provider_kind: str
    provider: ProviderConfig | None
    script_path: str | None
    evaluator_kind: str
    toolchain: ToolchainConfig | None
    synthetic: SyntheticEvaluatorConfig | None
    output_dir: str
    keep_artifacts: bool = False

    def __post_init__(self) -> None:
        # the kinds themselves are checked where they are read, in _split_kind
        if (self.provider is None) == (self.script_path is None):
            raise ConfigError("exactly one provider must be configured")
        if (self.toolchain is None) == (self.synthetic is None):
            raise ConfigError("exactly one evaluator must be configured")


def _given(section: dict) -> dict:
    """The section without its null values: null means the default."""
    return {key: value for key, value in section.items() if value is not None}


def _split_kind(section, where: str, kinds: tuple[str, ...]) -> tuple[str, dict]:
    """The section's `kind` and the rest of its keys."""
    section = require_map(section, where)
    kind = str(section.get("kind", "")).strip().lower()
    if kind not in kinds:
        raise ConfigError(f"{where}.kind must be one of {kinds}, got {kind!r}")
    return kind, {key: value for key, value in section.items() if key != "kind"}


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


def _load_provider(section, base: Path) -> tuple[str, ProviderConfig | None, str | None]:
    section = require_map(section, "provider")
    if "api_key" in section:
        raise ConfigError(
            "provider.api_key is not accepted; set provider.api_key_env_var to the "
            "name of an environment variable instead"
        )
    kind, fields = _split_kind(section, "provider", PROVIDER_KINDS)
    if kind == "http":
        if not fields.get("endpoint_url"):
            raise ConfigError("provider.endpoint_url is required for kind: http")
        return kind, build(ProviderConfig, fields, "provider"), None
    check_keys(fields, ("script_file",), "provider")
    if not fields.get("script_file"):
        raise ConfigError("provider.script_file is required for kind: scripted")
    script_path = base / str(fields["script_file"])
    if not script_path.is_file():
        raise ConfigError(f"provider.script_file: file not found: {script_path}")
    return kind, None, str(script_path)


def _load_evaluator(
    section, base: Path, problem: ProblemSpec
) -> tuple[str, ToolchainConfig | None, SyntheticEvaluatorConfig | None]:
    kind, fields = _split_kind(section, "evaluator", EVALUATOR_KINDS)
    if kind == "synthetic":
        return kind, None, build(SyntheticEvaluatorConfig, fields, "evaluator")
    resolved = {}
    if fields.get("clock_period") is None:
        resolved["clock_period"] = problem.target_clock_period
    if fields.get("liberty_path"):
        resolved["liberty_path"] = str(base / str(fields["liberty_path"]))
    return kind, build(ToolchainConfig, fields, "evaluator", **resolved), None


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one run's YAML config, applying defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    raw = require_map(raw, "config")
    check_keys(raw, TOP_KEYS, "config")
    raw = _given(raw)
    base = path.resolve().parent
    problem = _load_problem(raw.get("problem"), base)
    evolution = build(EvolutionConfig, raw.get("evolution", {}), "evolution")
    provider_kind, provider, script_path = _load_provider(raw.get("provider"), base)
    evaluator_kind, toolchain, synthetic = _load_evaluator(raw.get("evaluator"), base, problem)
    return RunConfig(
        problem=problem,
        evolution=evolution,
        provider_kind=provider_kind,
        provider=provider,
        script_path=script_path,
        evaluator_kind=evaluator_kind,
        toolchain=toolchain,
        synthetic=synthetic,
        output_dir=str(raw.get("output_dir", "runs/latest")),
        keep_artifacts=read_value(bool, raw.get("keep_artifacts", False), "keep_artifacts"),
    )


def snapshot_dict(cfg: RunConfig) -> dict:
    """A plain-dict image of the resolved config for persisting in the run
    directory; `load_config` reads it back into the same config, with the
    weights resolved. Contains no secrets (keys are env-var names only)."""
    problem = cfg.problem
    evolution = dataclasses.replace(cfg.evolution, weights=cfg.evolution.weights_for(problem))
    if cfg.provider is not None:
        provider = {"kind": cfg.provider_kind, **to_plain(cfg.provider)}
    else:
        provider = {"kind": cfg.provider_kind, "script_file": cfg.script_path}
    evaluator = {"kind": cfg.evaluator_kind, **to_plain(cfg.toolchain or cfg.synthetic)}
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
        "provider": provider,
        "evaluator": evaluator,
        "output_dir": cfg.output_dir,
        "keep_artifacts": cfg.keep_artifacts,
    }
