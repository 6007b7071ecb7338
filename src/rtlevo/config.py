"""Run configuration: a YAML file resolved into typed config objects.

One builder, `_build`, makes each config dataclass (EvolutionConfig,
ProviderConfig, ToolchainConfig, SyntheticEvaluatorConfig, FitnessWeights,
PpaMetrics, ProblemSpec) from its YAML section. The allowed keys are the
field names, each value is cast to its field's type (`X | None` casts as
X), `null` means the field's default, and a value the cast or the
dataclass rejects becomes a ConfigError naming the key. Unknown keys are
errors (typos should not silently become defaults). Omitted
hyperparameters take the dataclass defaults: N=10, λ=10, G=20, n=1, R=1,
c=2.0, τ=1.0, sampling temperature 1.0, top_p 0.95, clock period 0.01 ns,
weights chosen by circuit kind.

Explicit here: `kind`, the problem section's own key names and files, and
`clock_period`, which defaults to `problem.target_clock_period`. Paths are
made absolute against the config's directory, so the snapshot that
`snapshot_dict` writes with `dataclasses.asdict` loads into the same config.

Secrets never live in config files: the provider section names an
environment variable for the API key and rejects literal key material.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path

import yaml

from .evaluate import SyntheticEvaluatorConfig, ToolchainConfig
from .evolution import EvolutionConfig
from .fitness import FitnessWeights
from .llm import ProviderConfig
from .model import CircuitKind, ConfigError, PpaMetrics, ProblemSpec

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


def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(str(k) for k in section if k not in allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; allowed: {', '.join(allowed)}"
        )


def _require_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _given(section: dict) -> dict:
    """The section without its null values: null means the default."""
    return {key: value for key, value in section.items() if value is not None}


def _integer(value) -> int:
    """`int()` without its truncation: 5.9 and true are not integers."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    """Only YAML's true and false: `bool("no")` would be True."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


_STRICT_CASTS = {int: _integer, bool: _boolean}


def _cast(value, cast, where: str):
    try:
        return _STRICT_CASTS.get(cast, cast)(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build(cls, section: dict, where: str, **resolved):
    """An instance of the config dataclass `cls` from its YAML section.

    The allowed keys are the field names of `cls`. Each non-null value is
    cast to its field's type, and `resolved` gives the fields the caller
    has already worked out. A ValueError or TypeError, from a cast or from
    the dataclass's own checks, becomes a ConfigError.
    """
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    _check_keys(section, tuple(f.name for f in fields), where)
    kwargs = {}
    for key, value in _given(section).items():
        if key not in resolved:
            hint = hints[key]
            # `X | None` casts as X
            cast = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
            kwargs[key] = _cast(value, cast, f"{where}.{key}")
    kwargs.update(resolved)
    for field in fields:
        if field.default is dataclasses.MISSING and field.name not in kwargs:
            raise ConfigError(f"{where}.{field.name} is required")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _split_kind(section, where: str, kinds: tuple[str, ...]) -> tuple[str, dict]:
    """The section's `kind` and the rest of its keys."""
    section = _require_map(section, where)
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
    section = _require_map(section, "problem")
    _check_keys(section, PROBLEM_KEYS, "problem")
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
    where = "problem.reference_ppa"
    reference = _build(PpaMetrics, _require_map(section.get("reference_ppa"), where), where)
    scalars = {k: v for k, v in _given(section).items() if k in ("name", "target_clock_period")}
    return _build(
        ProblemSpec,
        {"name": "unnamed", "target_clock_period": 0.01, **scalars},
        "problem",
        functional_description=description,
        testbench_source=_read_text_field(section, "testbench", "testbench_file", base, "problem"),
        reference_ppa=reference,
        circuit_kind=circuit_kind,
    )


def _load_evolution(section) -> EvolutionConfig:
    section = _require_map(section if section is not None else {}, "evolution")
    resolved = {}
    if section.get("weights") is not None:
        where = "evolution.weights"
        resolved["weights"] = _build(FitnessWeights, _require_map(section["weights"], where), where)
    return _build(EvolutionConfig, section, "evolution", **resolved)


def _load_provider(section, base: Path) -> tuple[str, ProviderConfig | None, str | None]:
    section = _require_map(section, "provider")
    if "api_key" in section:
        raise ConfigError(
            "provider.api_key is not accepted; set provider.api_key_env_var to the "
            "name of an environment variable instead"
        )
    kind, fields = _split_kind(section, "provider", PROVIDER_KINDS)
    if kind == "http":
        if not fields.get("endpoint_url"):
            raise ConfigError("provider.endpoint_url is required for kind: http")
        return kind, _build(ProviderConfig, fields, "provider"), None
    _check_keys(fields, ("script_file",), "provider")
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
        return kind, None, _build(SyntheticEvaluatorConfig, fields, "evaluator")
    resolved = {}
    if fields.get("clock_period") is None:
        resolved["clock_period"] = problem.target_clock_period
    if fields.get("liberty_path"):
        resolved["liberty_path"] = str(base / str(fields["liberty_path"]))
    return kind, _build(ToolchainConfig, fields, "evaluator", **resolved), None


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one run's YAML config, applying defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    raw = _require_map(raw, "config")
    _check_keys(raw, TOP_KEYS, "config")
    raw = _given(raw)
    base = path.resolve().parent
    problem = _load_problem(raw.get("problem"), base)
    evolution = _load_evolution(raw.get("evolution"))
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
        keep_artifacts=_cast(raw.get("keep_artifacts", False), bool, "keep_artifacts"),
    )


def snapshot_dict(cfg: RunConfig) -> dict:
    """A plain-dict image of the resolved config for persisting in the run
    directory; `load_config` reads it back into the same config, with the
    weights resolved. Contains no secrets (keys are env-var names only)."""
    problem = cfg.problem
    evolution = dataclasses.asdict(cfg.evolution)
    evolution["weights"] = cfg.evolution.weights_for(problem).to_dict()
    if cfg.provider is not None:
        provider = {"kind": cfg.provider_kind, **dataclasses.asdict(cfg.provider)}
    else:
        provider = {"kind": cfg.provider_kind, "script_file": cfg.script_path}
    evaluator = {"kind": cfg.evaluator_kind, **dataclasses.asdict(cfg.toolchain or cfg.synthetic)}
    return {
        "problem": {
            "name": problem.name,
            "description": problem.functional_description,
            "testbench": problem.testbench_source,
            "circuit_kind": problem.circuit_kind.value,
            "target_clock_period": problem.target_clock_period,
            "reference_ppa": problem.reference_ppa.to_dict(),
        },
        "evolution": evolution,
        "provider": provider,
        "evaluator": evaluator,
        "output_dir": cfg.output_dir,
        "keep_artifacts": cfg.keep_artifacts,
    }
