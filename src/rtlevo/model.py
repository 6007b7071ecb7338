"""Core domain types: design candidates, PPA metrics, evaluation outcomes, run history.

The fields of each dataclass define every record the program writes
(`to_plain`) or reads (`build`): config sections, history, script file.
`read_yaml` reads the YAML files among them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

NEG_INF = float("-inf")


class ConfigError(ValueError):
    """A configuration value violates its documented bounds or schema."""


class CircuitKind(enum.Enum):
    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"


class PopulationLabel(enum.Enum):
    FAIL = "fail"
    SUCCESS = "success"


@dataclass(frozen=True)
class PpaMetrics:
    """Power, area and effective clock period of one synthesized design.

    Units are whatever the synthesis library reports (watts / square
    micrometers / nanoseconds for a typical liberty flow); they only need to
    be consistent between generated and reference designs within a run.
    """

    power: float
    area: float
    effective_clock_period: float

    def __post_init__(self) -> None:
        for name in ("power", "area", "effective_clock_period"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"PpaMetrics.{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """One design problem: what to build, how to check it, what to beat."""

    name: str
    functional_description: str
    testbench_source: str
    reference_ppa: PpaMetrics
    circuit_kind: CircuitKind
    target_clock_period: float

    def __post_init__(self) -> None:
        if not self.functional_description.strip():
            raise ConfigError("problem.functional_description must be non-empty")
        if self.target_clock_period <= 0:
            raise ConfigError(
                f"problem.target_clock_period must be > 0, got {self.target_clock_period!r}"
            )
        ref = self.reference_ppa
        for name in ("power", "area", "effective_clock_period"):
            if getattr(ref, name) <= 0:
                raise ConfigError(f"problem.reference_ppa.{name} must be > 0")


@dataclass(frozen=True)
class EvalOutcome:
    """Raw verdicts and reports from evaluating one design candidate."""

    sim_passed: bool
    synth_succeeded: bool
    ppa: PpaMetrics | None
    sim_log: str
    synth_log: str = ""
    post_synth_functional: bool | None = None

    def __post_init__(self) -> None:
        if self.ppa is not None and not self.synth_succeeded:
            raise ValueError("EvalOutcome.ppa requires synth_succeeded")


@dataclass(frozen=True)
class Individual:
    """One design candidate: a (thought, code, feedback) triple plus evaluation state.

    Ids are monotonically increasing integers assigned by the engine, so a
    fixed seed replays to identical lineages. `strategy` names the operator
    that created the candidate; both it and `parent_ids` are empty exactly
    for candidates created from the initial prompt.
    """

    id: int
    thought: str
    code: str
    feedback: str | None = None
    outcome: EvalOutcome | None = None
    fitness: float | None = None
    parent_ids: tuple[int, ...] = ()
    strategy: str | None = None
    generation_born: int = 0

    def __post_init__(self) -> None:
        if self.generation_born < 0:
            raise ValueError("Individual.generation_born must be >= 0")
        if (self.outcome is None) != (self.fitness is None):
            raise ValueError("Individual.fitness must be present exactly when outcome is")
        if self.outcome is not None:
            is_neg_inf = self.fitness == NEG_INF
            if is_neg_inf != (not self.outcome.sim_passed):
                raise ValueError(
                    "Individual.fitness must be -inf exactly when simulation failed"
                )
        if (self.strategy is None) != (len(self.parent_ids) == 0):
            raise ValueError("Individual.strategy and parent_ids must be set together")


def classify(ind: Individual) -> PopulationLabel:
    """Assign the Fail/Success population label from the simulation verdict.

    Classification looks only at pre-synthesis simulation: a design that
    simulates correctly but fails synthesis still counts as Success.
    """
    if ind.outcome is None:
        raise ValueError(f"cannot classify unevaluated individual {ind.id}")
    return PopulationLabel.SUCCESS if ind.outcome.sim_passed else PopulationLabel.FAIL


@dataclass(frozen=True)
class StrategyEvent:
    """One operator application: which population's bandit chose which strategy, and its reward."""

    label: PopulationLabel
    strategy: str
    reward: float


@dataclass(frozen=True)
class GenerationRecord:
    """Immutable snapshot of one generation of the evolutionary loop.

    `population` is the population entering the next generation (for
    generation 0, the initial population). `bandit_states` is a serialized
    snapshot of both populations' strategy statistics after this
    generation's rewards, kept for replay and inspection.
    """

    generation_index: int
    population: tuple[Individual, ...]
    offspring: tuple[Individual, ...] = ()
    strategy_events: tuple[StrategyEvent, ...] = ()
    best_so_far: Individual | None = None
    fail_count: int = 0
    success_count: int = 0
    bandit_states: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.generation_index < 0:
            raise ValueError("GenerationRecord.generation_index must be >= 0")
        if self.fail_count + self.success_count != len(self.population):
            raise ValueError("fail_count + success_count must equal the population size")


# --- persistence ------------------------------------------------------------


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _integer(value) -> int:
    """An int, or a float with no fraction: `int()` would read 5.9, "4" and true."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _boolean(value) -> bool:
    """Only true and false: `bool("no")` would be True."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _number(value) -> float:
    """An int or a float: `float("0.5")` and `float(True)` would read."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _string(value) -> str:
    """Only a string: `str({"a": 1})` would read."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


_STRICT_CASTS = {int: _integer, bool: _boolean, float: _number, str: _string}


@functools.cache
def _table(cls) -> tuple[tuple[str, object, bool, bool], ...]:
    """(name, type, required, scalar) for each field of the dataclass `cls`,
    worked out once per class; a scalar field's values are written as they are."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        scalar = all(t in _SCALARS for t in typing.get_args(hint) or (hint,))
        table.append((f.name, hint, required, scalar))
    return tuple(table)


def check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(str(k) for k in section if k not in allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; allowed: {', '.join(allowed)}"
        )


def require_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def read_value(hint, value, where: str):
    """`value` read as type `hint`, which `X | None` reads as X."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next(t for t in typing.get_args(hint) if t is not type(None))
    if dataclasses.is_dataclass(hint):
        return build(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(read_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    try:
        return _STRICT_CASTS.get(hint, hint)(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build(cls, data, where: str = "", **resolved):
    """An instance of the dataclass `cls` from a mapping of its fields.

    The allowed keys are the field names of `cls`. Each non-null value is
    read as its field's type: nested dataclasses and `tuple[X, ...]` lists
    recursively, enums by value, and integers, booleans, numbers and
    strings strictly. Null means the field's default, or None for a
    required field whose type admits it. `resolved` gives fields the
    caller has already worked out. Every error, the dataclass's own checks
    included, is a ConfigError; `where` prefixes the key path it names.
    """
    require_map(data, where or "record")
    table = _table(cls)
    check_keys(data, tuple(name for name, *_ in table), where or "record")
    kwargs = {}
    for name, hint, required, _ in table:
        path = f"{where}.{name}" if where else name
        value = data.get(name)
        if name in resolved:
            kwargs[name] = resolved[name]
        elif value is not None:
            kwargs[name] = read_value(hint, value, path)
        elif required:
            if name not in data or type(None) not in typing.get_args(hint):
                raise ConfigError(f"{path} is required")
            kwargs[name] = None
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def read_yaml(path: str | Path, what: str):
    """The YAML document in `path`. A syntax error is a one-line ConfigError
    naming `what` and, where PyYAML gives one, the line and column."""
    try:
        return yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        if mark is not None and problem is not None:
            detail = f"{problem} at line {mark.line + 1}, column {mark.column + 1}"
        else:
            detail = " ".join(str(exc).split())
        raise ConfigError(f"{what} is not valid YAML: {detail}") from None


def to_plain(value):
    """`value` as JSON-ready data: a tuple becomes a list, an enum its value, a
    dict a dict of plain values, and a dataclass (any other non-scalar) its fields."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: to_plain(v) for key, v in value.items()}
    if isinstance(value, enum.Enum):
        return value.value
    return {
        name: getattr(value, name) if scalar else to_plain(getattr(value, name))
        for name, _, _, scalar in _table(type(value))
    }
