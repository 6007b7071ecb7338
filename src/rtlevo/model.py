"""Core domain types: design candidates, PPA metrics, evaluation outcomes, run history.

The fields of each dataclass define every record the program writes
(`to_plain`) or reads (`build`): config sections, history, script file.
`read_yaml` reads the YAML files among them, and `LineFile` writes the
lines of both JSONL files.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import threading
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .bandit import BanditState

NEG_INF = float("-inf")

# The longest timeout, in seconds, the program can wait for: the selector
# a tool stage waits in takes at most 2**31 - 1 ms (epoll on Linux) and
# raises OverflowError above it. `socket.settimeout`, which an http request
# waits in, takes up to `threading.TIMEOUT_MAX`, which is longer.
MAX_WAIT_SECONDS = 2_147_483


class ConfigError(ValueError):
    """A configuration value violates its documented bounds or schema."""


def check_range(where: str, value, interval: str) -> None:
    """Raise ConfigError unless `value` lies in `interval`, written as the
    error prints it: "[1, inf)", "(0, 1]". NaN lies in no interval."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    if not (above and below):
        raise ConfigError(f"{where} must be in {interval}, got {value!r}")


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

    def __str__(self) -> str:
        return (
            f"power={self.power:.6g} area={self.area:.6g} "
            f"period={self.effective_clock_period:.6g}"
        )


@dataclass(frozen=True, kw_only=True)
class ProblemSpec:
    """One design problem: what to build, how to check it, what to beat.

    The fields are the config's `problem` keys, in the order an unknown-key
    error lists them."""

    name: str = "unnamed"
    description: str
    testbench: str = ""
    circuit_kind: CircuitKind
    target_clock_period: float = 0.01
    reference_ppa: PpaMetrics

    def __post_init__(self) -> None:
        if not self.description.strip():
            raise ConfigError("problem needs a description or description_file")
        check_range("problem.target_clock_period", self.target_clock_period, "(0, inf)")
        ref = self.reference_ppa
        for name in ("power", "area", "effective_clock_period"):
            check_range(f"problem.reference_ppa.{name}", getattr(ref, name), "(0, inf)")


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
    return PopulationLabel.SUCCESS if ind.outcome.sim_passed else PopulationLabel.FAIL


@dataclass(frozen=True)
class Critique:
    """The feedback one generation asked for on an earlier individual."""

    id: int
    feedback: str


@dataclass(frozen=True)
class GenerationRecord:
    """Immutable snapshot of one generation of the evolutionary loop.

    `population` is the population entering the next generation (for
    generation 0, the initial population). It is never empty, and it,
    `offspring` and the all-time `best_so_far` hold only evaluated
    individuals. `bandit_states` holds each population's strategy statistics
    after this generation's rewards, keyed by its label; the next generation
    selects its operators from them. The rewards are not stored: each
    offspring's follows from its outcome and its parents' (a Fail-population
    child earns 1.0 by passing simulation, a Success-population child by
    beating its best parent's fitness). `critiques` are the critiques this
    generation asked for, in call-key order; the critiqued individuals in
    `population` and `best_so_far` carry them as their feedback.
    """

    generation_index: int
    population: tuple[Individual, ...]
    best_so_far: Individual
    offspring: tuple[Individual, ...] = ()
    bandit_states: dict[str, BanditState] = field(default_factory=dict)
    critiques: tuple[Critique, ...] = ()

    def __post_init__(self) -> None:
        if not self.population:
            raise ValueError("GenerationRecord.population must not be empty")
        for ind in (*self.population, *self.offspring, self.best_so_far):
            if ind.outcome is None:
                raise ValueError(f"GenerationRecord holds individual {ind.id}, which has no outcome")

    @property
    def success_count(self) -> int:
        """Members of `population` that passed simulation."""
        return sum(1 for ind in self.population if ind.outcome.sim_passed)

    @property
    def drafts(self) -> tuple[Individual, ...]:
        """The individuals this generation drafted, in slot order:
        generation 0's initial population, any later one's offspring."""
        return self.offspring if self.generation_index else self.population


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
    """An int or a float other than NaN: `float("0.5")` and `float(True)`
    would read, and no setting or record holds NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
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
    """`value` read as type `hint`: `X | None` as X, `dict[str, X]` as a map of X."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next(t for t in typing.get_args(hint) if t is not type(None))
    if dataclasses.is_dataclass(hint):
        return build(hint, value, where)
    if typing.get_origin(hint) is dict:
        item, mapping = typing.get_args(hint)[1], require_map(value, where)
        return {key: read_value(item, v, f"{where}.{key}") for key, v in mapping.items()}
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
    read as its field's type: dataclasses, `tuple[X, ...]` and `dict[str, X]`
    recursively, enums by value, and integers, booleans, numbers and
    strings strictly. Null means the field's default, or None for a
    required field whose type admits it. `resolved` gives fields the
    caller has already worked out. Every error, the dataclass's own checks
    included, is a ConfigError; `where` prefixes the key path it names. A
    check that raises ConfigError names its own path, as a config section's
    do; any other ValueError is prefixed with `where`, so the check of a
    list entry names the entry.
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
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


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


class LineFile:
    """A file of lines, started new at its first line and held until `close`.

    Each line goes out in one write and a flush under a lock, so a run
    killed at any point leaves whole lines and threads never interleave
    theirs; a line after `close` is a ValueError. The `header` is encoded
    (`encode`) when the first line is written and goes out in that line's
    write, so the file never holds a header alone.
    """

    def __init__(self, path: str | Path, header: dict):
        self._path = Path(path)
        self._header = header
        self._lock = threading.Lock()
        self._fh = None
        self._closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()

    def encode(self, value: dict) -> str:
        """`value` as one line of JSON, keys sorted."""
        return json.dumps(value, sort_keys=True, ensure_ascii=False)

    def write_line(self, text: str) -> None:
        with self._lock:
            if self._closed:
                raise ValueError(f"cannot write a line to closed file {self._path}")
            if self._fh is None:
                text = f"{self.encode(self._header)}\n{text}"
                self._fh = self._path.open("wb")
            self._fh.write(f"{text}\n".encode("utf-8"))
            self._fh.flush()


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
