"""Run configuration: a YAML file resolved into typed config objects.

The fields of RunConfig and of the dataclasses it holds (ProblemSpec with
its PpaMetrics, EvolutionConfig with its FitnessWeights, ProviderConfig or
ScriptConfig, ToolchainConfig or SyntheticEvaluatorConfig) are the config
file's keys; `model.build` reads each section under its rules for keys,
null values and strict types. Unknown keys are errors, so typos do not
silently become defaults, and omitted keys take the dataclass defaults.

What the dataclasses cannot say is resolved here: each section's `kind`,
which names the provider's or the evaluator's dataclass (PROVIDERS,
EVALUATORS); the problem's `description` and `testbench`, each given
inline or as a `description_file` or `testbench_file`; and the
case-insensitive `circuit_kind`. Paths are made absolute against the config's
directory, so the snapshot that `snapshot_dict` writes loads into the same
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

# each section's `kind` names the dataclass that reads the rest of it
PROVIDERS = {"http": ProviderConfig, "scripted": ScriptConfig}
EVALUATORS = {"toolchain": ToolchainConfig, "synthetic": SyntheticEvaluatorConfig}
# the path field of each section dataclass that has one
PATHS = {ScriptConfig: "script_file", ToolchainConfig: "liberty_path"}
# problem texts that may instead be read from the file `<key>_file` names
TEXTS = ("description", "testbench")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    evolution: EvolutionConfig
    provider: ProviderConfig | ScriptConfig
    evaluator: ToolchainConfig | SyntheticEvaluatorConfig
    output_dir: str = "runs/latest"


def kind_of(section, kinds: dict) -> str:
    """The `kind` in `kinds` (PROVIDERS or EVALUATORS) of a config section."""
    return next(kind for kind, cls in kinds.items() if isinstance(section, cls))


def _given(section: dict) -> dict:
    """The section without its null values: null means the default."""
    return {key: value for key, value in section.items() if value is not None}


def _lower(section: dict, key: str, where: str) -> str:
    """`key`'s string trimmed and lower-cased; null or missing reads as ''."""
    return read_value(str, _given(section).get(key, ""), f"{where}.{key}").strip().lower()


def _load_section(section, where: str, kinds: dict, base: Path):
    """The dataclass the section's `kind` names, built from the rest of its
    keys, with its path made absolute."""
    section = require_map(section, where)
    kind = _lower(section, "kind", where)
    if kind not in kinds:
        raise ConfigError(f"{where}.kind must be one of {tuple(kinds)}, got {kind!r}")
    fields = {key: value for key, value in section.items() if key != "kind"}
    path_key = PATHS.get(kinds[kind])
    if fields.get(path_key):
        fields[path_key] = str(base / read_value(str, fields[path_key], f"{where}.{path_key}"))
    return build(kinds[kind], fields, where)


def _read_text(section: dict, key: str, base: Path) -> str:
    """The problem's `key` text, given inline or in the file `<key>_file`."""
    inline, file_name = section.get(key), section.get(f"{key}_file")
    if inline is not None and file_name is not None:
        raise ConfigError(f"problem: give {key} or {key}_file, not both")
    if inline is not None:
        return read_value(str, inline, f"problem.{key}")
    if file_name is None:
        return ""
    path = base / read_value(str, file_name, f"problem.{key}_file")
    if not path.is_file():
        raise ConfigError(f"problem.{key}_file: file not found: {path}")
    return path.read_text(encoding="utf-8")


def _load_problem(section, base: Path) -> ProblemSpec:
    section = require_map(section, "problem")
    allowed = []
    for field in dataclasses.fields(ProblemSpec):
        allowed += [field.name, f"{field.name}_file"] if field.name in TEXTS else [field.name]
    check_keys(section, tuple(allowed), "problem")
    texts = {key: _read_text(section, key, base) for key in TEXTS}
    kind = _lower(section, "circuit_kind", "problem")
    try:
        circuit_kind = CircuitKind(kind)
    except ValueError:
        raise ConfigError(
            f"problem.circuit_kind must be 'combinational' or 'sequential', got {kind!r}"
        ) from None
    reference = build(PpaMetrics, section.get("reference_ppa"), "problem.reference_ppa")
    fields = {key: value for key, value in section.items() if not key.endswith("_file")}
    return build(
        ProblemSpec, fields, "problem", circuit_kind=circuit_kind, reference_ppa=reference, **texts
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one run's YAML config, applying defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = require_map(read_yaml(path, "config"), "config")
    # checked here so that an unknown key is named as the config's
    check_keys(raw, tuple(f.name for f in dataclasses.fields(RunConfig)), "config")
    raw, base = _given(raw), path.resolve().parent
    problem = _load_problem(raw.get("problem"), base)
    evolution = build(EvolutionConfig, raw.get("evolution", {}), "evolution")
    if "api_key" in require_map(raw.get("provider"), "provider"):
        raise ConfigError(
            "provider.api_key is not accepted; set provider.api_key_env_var to the "
            "name of an environment variable instead"
        )
    return build(
        RunConfig,
        raw,
        problem=problem,
        evolution=evolution,
        provider=_load_section(raw["provider"], "provider", PROVIDERS, base),
        evaluator=_load_section(raw.get("evaluator"), "evaluator", EVALUATORS, base),
    )


def snapshot_dict(cfg: RunConfig) -> dict:
    """A plain-dict image of the resolved config for persisting in the run
    directory; `load_config` reads it back into the same config, with the
    weights resolved. Contains no secrets (keys are env-var names only)."""
    evolution = dataclasses.replace(cfg.evolution, weights=cfg.evolution.weights_for(cfg.problem))
    snapshot = to_plain(dataclasses.replace(cfg, evolution=evolution))
    snapshot["provider"]["kind"] = kind_of(cfg.provider, PROVIDERS)
    snapshot["evaluator"]["kind"] = kind_of(cfg.evaluator, EVALUATORS)
    return snapshot
