"""Reading a run directory back, rebuilding its prompts, and rendering
the human-readable summary."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from collections.abc import Iterator
from pathlib import Path

from .evaluate import critique_texts
from .llm import TranscriptWriter
from .model import (
    ConfigError,
    Critique,
    GenerationRecord,
    Individual,
    LineFile,
    PpaMetrics,
    ProblemSpec,
    build,
    read_value,
    read_yaml,
    require_map,
    to_plain,
)
from .prompts import PromptStrategy, build_evolutionary_prompt, build_initial_prompt, prompt_digest

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 4
# the record fields that hold individuals, in the order they are scanned
INDIVIDUAL_FIELDS = ("population", "offspring", "best_so_far")

GENERATIONS_FILE = "generations.jsonl"
TRANSCRIPTS_FILE = "transcripts.jsonl"
CONFIG_SNAPSHOT_FILE = "config_snapshot.yaml"
FINAL_REPORT_FILE = "final_report.json"

# Fractions of the last generation index that close the first two scatter
# bands; at 20 generations they give the groupings 0-4, 5-11, 12-20.
BAND_FRACTIONS = (0.2, 0.55)


class RunDirError(RuntimeError):
    """A run directory is missing records or contains corrupt ones."""


class HistoryWriter(LineFile):
    """A run's history file (`LineFile`: started new at its first line,
    replacing any earlier history there, under the version header).

    The first record must be generation 0. Each later record must follow
    the last one written.
    """

    _last = -1

    def __init__(self, path: str | Path):
        super().__init__(path, {"schema_version": SCHEMA_VERSION})

    def write(self, index: int, line: str) -> None:
        """Writes `line`, the record of generation `index`. A record out of
        order is a ValueError, and nothing is written; a first record other
        than generation 0 does not even create the file."""
        if index != self._last + 1:
            if self._last < 0:
                raise ValueError(
                    f"a new history must start at generation 0, not {index}: "
                    "its references would name individuals no line defines"
                )
            raise ValueError(f"{self._path} ends at generation {self._last}, not {index - 1}")
        self.write_line(line)
        self._last = index


def append_generation(history: HistoryWriter, record: GenerationRecord) -> None:
    """Append one record to `history` as a line of JSON.

    Each individual is written in full once, at its first mention in the
    file: in the line of the generation it was born in, at its first
    mention there, scanning `population`, `offspring`, then `best_so_far`.
    Every other mention is the reference `{"id": n}`, and a critique asked
    for later lives in the `critiques` of the generation that asked for it.
    So the file must start with generation 0 and take every record after
    it in order: the reader rejects a reference no earlier line defines.
    `HistoryWriter.write` refuses any other record. The keys are the
    record's dataclass fields, sorted, and no timestamps are included, so
    identical histories serialize byte-identically.
    """
    written: set[int] = set()

    def entry(ind: Individual) -> dict:
        if ind.generation_born != record.generation_index or ind.id in written:
            return {"id": ind.id}
        written.add(ind.id)
        return to_plain(ind)

    line = {
        f.name: to_plain(getattr(record, f.name))
        for f in dataclasses.fields(record)
        if f.name not in INDIVIDUAL_FIELDS
    }
    line["population"] = [entry(ind) for ind in record.population]
    line["offspring"] = [entry(ind) for ind in record.offspring]
    line["best_so_far"] = entry(record.best_so_far)
    history.write(record.generation_index, json.dumps(line, sort_keys=True))


def _record(data, individuals: dict[int, Individual]) -> GenerationRecord:
    """A record, read against `individuals`, every individual read so far
    by id. The record's critiques update those first; then each full entry
    is read into it and each reference resolved from it."""
    require_map(data, "record")
    value = data.get("critiques")
    critiques = () if value is None else read_value(tuple[Critique, ...], value, "critiques")
    for i, critique in enumerate(critiques):
        if critique.id not in individuals:
            raise ConfigError(f"critiques[{i}].id: no earlier entry defines individual {critique.id}")
        individuals[critique.id] = dataclasses.replace(
            individuals[critique.id], feedback=critique.feedback
        )

    def resolve(entry, where: str) -> Individual:
        if isinstance(entry, dict) and entry.keys() == {"id"}:
            ind_id = read_value(int, entry["id"], f"{where}.id")
            if ind_id not in individuals:
                raise ConfigError(f"{where}: no earlier entry defines individual {ind_id}")
            return individuals[ind_id]
        ind = build(Individual, entry, where)
        individuals[ind.id] = ind
        return ind

    resolved = {}
    for name in ("population", "offspring"):
        entries = data.get(name)
        if entries is None:
            continue
        if not isinstance(entries, list):
            raise ConfigError(f"{name}: expected a list, got {entries!r}")
        resolved[name] = tuple(resolve(e, f"{name}[{i}]") for i, e in enumerate(entries))
    resolved["best_so_far"] = resolve(data.get("best_so_far"), "best_so_far")
    return build(GenerationRecord, data, critiques=critiques, **resolved)


def _json_lines(path: Path, version: int, what: str) -> Iterator:
    """The header of a JSONL run file, which must name `version`, then each
    line after it, parsed; `what` names a line in messages. A last line
    with no newline that does not parse, as a killed write leaves it, is
    dropped with a warning; any other line that does not parse, a line
    that is not UTF-8 included, is a RunDirError naming it."""
    if not path.is_file():
        raise RunDirError(f"{path} not found; is this a run directory?")
    with path.open("rb") as fh:
        try:
            header = json.loads(fh.readline())
            found = header["schema_version"]
        except (ValueError, TypeError, KeyError):
            raise RunDirError(f"{path}: missing or corrupt schema header") from None
        if found != version:
            raise RunDirError(f"{path}: unsupported schema_version {found!r}")
        yield header
        for i, line in enumerate(fh):
            try:
                data = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                if not line.endswith(b"\n"):
                    logger.warning("%s: dropped %s %d, cut short by an interrupted write", path, what, i)
                    return
                raise RunDirError(f"{path}: {what} {i} is corrupt: {exc}") from None
            yield data


def read_generations(run_dir: str | Path) -> list[GenerationRecord]:
    """Every record of a run's history, read with the loader that reads the
    config; a corrupt record is a RunDirError naming it and its key path.

    Only `SCHEMA_VERSION` reads; a header naming any other version is a
    RunDirError. The history reads into one `Individual` per id, shared by
    the records that mention it; a reference to an id no earlier entry
    defines is corrupt, and so is a record that does not follow the last
    one, as the writer refuses it (`HistoryWriter`), one that breaks a
    `GenerationRecord` rule, a line that is not UTF-8, and a blank line. A
    last line with no newline that does not parse, as a killed write leaves
    it, is dropped with a warning."""
    path = Path(run_dir) / GENERATIONS_FILE
    lines = _json_lines(path, SCHEMA_VERSION, "generation record")
    next(lines)
    records = []
    individuals: dict[int, Individual] = {}
    for i, data in enumerate(lines):
        try:
            record = _record(data, individuals)
            if record.generation_index != len(records):
                raise ValueError(f"generation_index is {record.generation_index}, not {len(records)}")
            records.append(record)
        except ValueError as exc:
            raise RunDirError(f"{path}: generation record {i} is corrupt: {exc}") from None
    if not records:
        raise RunDirError(f"{path}: contains no generation records")
    return records


def read_problem(run_dir: str | Path) -> ProblemSpec:
    """The problem a run searched, from its config snapshot, read under the
    config's rules; a missing or unusable snapshot is a RunDirError."""
    path = Path(run_dir) / CONFIG_SNAPSHOT_FILE
    if not path.is_file():
        raise RunDirError(f"{path} not found; is this a run directory?")
    try:
        return build(ProblemSpec, read_yaml(path, str(path))["problem"], "problem")
    except (TypeError, KeyError, ValueError) as exc:
        raise RunDirError(f"{path}: no usable problem: {exc}") from None


class RunPrompts:
    """The calls a run made, from its transcript, and the prompt of each,
    rebuilt from the run directory: the history with each record's
    critiques applied, the problem in its config snapshot, and the
    templates in its transcript's header (`llm.TranscriptWriter`).

    Only transcript schema 3 reads; a header naming another version, such
    as the schema 1 or 2 that stored each prompt's text, is a RunDirError.
    A last line with no newline that does not parse is dropped with a
    warning, as in the history. `entries` holds every entry by its call
    key; an entry without one is corrupt."""

    def __init__(self, run_dir: str | Path):
        self._path = Path(run_dir) / TRANSCRIPTS_FILE
        lines = _json_lines(self._path, TranscriptWriter.SCHEMA_VERSION, "transcript entry")
        self.header = next(lines)
        self.entries: dict[tuple[int, int], dict] = {}
        for i, entry in enumerate(lines):
            key = entry.get("key") if isinstance(entry, dict) else None
            if not isinstance(key, list):
                raise RunDirError(f"{self._path}: transcript entry {i} is corrupt: it has no call key")
            self.entries[tuple(key)] = entry
        self.records = read_generations(run_dir)
        self.spec = read_problem(run_dir)

    def text(self, key: tuple[int, int]) -> str:
        """The user prompt of the call `key`, checked against the digest
        its entry stores. A key with no entry, a prompt that cannot be
        rebuilt, and one whose digest differs are each a RunDirError."""
        where = f"{self._path}: call {key[0]}/{key[1]}"
        entry = self.entries.get(key)
        if entry is None:
            raise RunDirError(f"{where}: the transcript has no entry for this call")
        if key[0] >= len(self.records):
            raise RunDirError(f"{where}: the history holds no record of generation {key[0]}")
        try:
            prompt = self._rebuild(key, entry)
        except (KeyError, ValueError, TypeError) as exc:
            raise RunDirError(f"{where}: its prompt cannot be rebuilt: {exc!r}") from None
        if prompt_digest(prompt) != entry.get("user_sha256"):
            raise RunDirError(
                f"{where}: the prompt rebuilt from the run directory does not match "
                f"its digest {entry.get('user_sha256')}"
            )
        return prompt

    def _rebuild(self, key: tuple[int, int], entry: dict) -> str:
        """A draft of generation 0 is the initial prompt. Any other call
        names individuals of the population that generation drew from, the
        last record's: a critique its one parent, as stored, and a draft
        its operator's parents, with the critiques its own record asked
        for applied."""
        generation, templates = key[0], self.header["templates"]
        if entry["purpose"] == "generate" and entry["strategy"] is None:
            return build_initial_prompt(self.spec, key, templates).user_text
        drawn = {ind.id: ind for ind in self.records[generation - 1].population}
        if entry["purpose"] == "feedback":
            [ind_id] = entry["parent_ids"]
            return critique_texts(drawn[ind_id], self.spec, templates)[0]
        feedback = {c.id: c.feedback for c in self.records[generation].critiques}
        parents = [
            dataclasses.replace(drawn[i], feedback=feedback[i]) if i in feedback else drawn[i]
            for i in entry["parent_ids"]
        ]
        strategy = PromptStrategy(entry["strategy"])
        return build_evolutionary_prompt(strategy, self.spec, parents, key, templates).user_text


def generation_bands(last_generation: int) -> list[tuple[int, int]]:
    """Three generation ranges (inclusive) for the power-area table."""
    first_hi = math.floor(BAND_FRACTIONS[0] * last_generation)
    second_hi = math.floor(BAND_FRACTIONS[1] * last_generation)
    return [
        (0, first_hi),
        (first_hi + 1, second_hi),
        (second_hi + 1, last_generation),
    ]


def _improvement(ref: float, gen: float) -> float:
    return (ref - gen) / ref * 100.0


def _synthesized_individuals(records: list[GenerationRecord]) -> list[Individual]:
    seen: dict[int, Individual] = {}
    for record in records:
        for ind in (*record.population, *record.offspring):
            if ind.outcome.ppa is not None:
                seen.setdefault(ind.id, ind)
    return sorted(seen.values(), key=lambda ind: ind.id)


def _ppa_section(best: Individual, reference: PpaMetrics | None) -> list[str]:
    lines = []
    outcome = best.outcome
    # checked first: the evaluator withholds PPA when the gate-level check
    # fails, though a record read from disk may hold both
    gate_failed = outcome.post_synth_functional is False
    if gate_failed:
        lines.append("Gate-level re-simulation failed; no improvement is claimed.")
    if outcome.ppa is None:
        lines.append("No synthesized PPA for the best individual.")
        return lines
    gen = outcome.ppa
    lines.append(f"PPA (generated): {gen}")
    if reference is None:
        lines.append("Reference PPA unavailable; improvement percentages omitted.")
        return lines
    lines.append(f"PPA (reference): {reference}")
    if gate_failed:
        return lines
    lines.append(f"Power improv. {_improvement(reference.power, gen.power):.1f}%")
    lines.append(f"Area improv. {_improvement(reference.area, gen.area):.1f}%")
    lines.append(
        "Period improv. "
        f"{_improvement(reference.effective_clock_period, gen.effective_clock_period):.1f}%"
    )
    return lines


def _bandit_section(record: GenerationRecord) -> list[str]:
    lines = []
    for label, state in sorted(record.bandit_states.items()):
        lines.append(f"{label} population (total pulls {state.total_pulls}):")
        for name, stats in sorted(state.strategies.items()):
            lines.append(f"  {name:<10} pulls={stats.pull_count:<4} Q={stats.q_value:.4f}")
    return lines


def _band_section(records: list[GenerationRecord]) -> list[str]:
    individuals = _synthesized_individuals(records)
    lines = ["Power-area by generation band (synthesized individuals):"]
    for lo, hi in generation_bands(records[-1].generation_index):
        if lo > hi:
            continue
        members = [ind for ind in individuals if lo <= ind.generation_born <= hi]
        tag = f"gens {lo}-{hi}"
        if not members:
            lines.append(f"  {tag:<12} (none)")
            continue
        powers = [ind.outcome.ppa.power for ind in members]
        areas = [ind.outcome.ppa.area for ind in members]
        lines.append(
            f"  {tag:<12} n={len(members):<4} "
            f"power min/mean {min(powers):.6g}/{sum(powers) / len(powers):.6g}  "
            f"area min/mean {min(areas):.6g}/{sum(areas) / len(areas):.6g}"
        )
    return lines


def render_report(records: list[GenerationRecord], reference: PpaMetrics | None) -> str:
    """The full text summary of a finished run."""
    last = records[-1]
    lines = []
    best = last.best_so_far
    lines.append(
        f"Best individual: id={best.id} generation={best.generation_born} "
        f"strategy={best.strategy or 'initial'} fitness={best.fitness}"
    )
    if best.fitness == float("-inf"):
        lines.append("No functionally correct design found.")
    lines.append("")
    lines.append("Thought:")
    lines.append(best.thought)
    lines.append("")
    lines.append("Code:")
    lines.append(best.code.rstrip("\n"))
    lines.append("")
    lines.extend(_ppa_section(best, reference))
    lines.append("")
    lines.append("Pass rate by generation:")
    for record in records:
        total = len(record.population)
        rate = record.success_count / total * 100.0
        lines.append(
            f"  gen {record.generation_index:<3} "
            f"{record.success_count}/{total} ({rate:.1f}%)"
        )
    lines.append("")
    lines.append("Strategy statistics:")
    lines.extend(_bandit_section(last))
    lines.append("")
    lines.extend(_band_section(records))
    return "\n".join(lines) + "\n"
