"""Reading a run directory back and rendering the human-readable summary."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from pathlib import Path

from .model import (
    ConfigError,
    Critique,
    GenerationRecord,
    Individual,
    PpaMetrics,
    build,
    read_value,
    require_map,
    to_plain,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 3
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


def append_generation(path: Path, record: GenerationRecord) -> None:
    """Append one record as a line of JSON, writing the version header
    first when the file is new.

    Each individual is written in full once, at its first mention in the
    file: in the line of the generation it was born in, at its first
    mention there, scanning `population`, `offspring`, then `best_so_far`.
    Every other mention is the reference `{"id": n}`, and a critique asked
    for later lives in the `critiques` of the generation that asked for it.
    So the file must start with generation 0 and take every record after
    it in order: the reader rejects a reference no earlier line defines.
    A new file for any other generation is a ValueError, and nothing is
    written. The keys are the record's dataclass fields, sorted, and no
    timestamps are included, so identical histories serialize
    byte-identically.
    """
    new_file = not path.exists()
    if new_file and record.generation_index != 0:
        raise ValueError(
            f"a new history must start at generation 0, not {record.generation_index}: "
            "its references would name individuals no line defines"
        )
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
    best = record.best_so_far
    line["best_so_far"] = None if best is None else entry(best)
    if new_file:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema_version": SCHEMA_VERSION}, sort_keys=True) + "\n")
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


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
    if data.get("best_so_far") is not None:
        resolved["best_so_far"] = resolve(data["best_so_far"], "best_so_far")
    return build(GenerationRecord, data, critiques=critiques, **resolved)


def read_generations(run_dir: str | Path) -> list[GenerationRecord]:
    """Every record of a run's history, read with the loader that reads the
    config; a corrupt record is a RunDirError naming it and its key path.

    Only `SCHEMA_VERSION` reads; a header naming any other version is a
    RunDirError. The history reads into one `Individual` per id, shared by
    the records that mention it; a reference to an id no earlier entry
    defines is corrupt. A last line with no newline that does not parse, as
    a killed write leaves it, is dropped with a warning."""
    path = Path(run_dir) / GENERATIONS_FILE
    if not path.is_file():
        raise RunDirError(f"{path} not found; is this a run directory?")
    records = []
    individuals: dict[int, Individual] = {}
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
            version = header["schema_version"]
        except (ValueError, TypeError, KeyError):
            raise RunDirError(f"{path}: missing or corrupt schema header") from None
        if version != SCHEMA_VERSION:
            raise RunDirError(f"{path}: unsupported schema_version {version!r}")
        for i, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                if not line.endswith("\n"):
                    logger.warning(
                        "%s: dropped generation record %d, cut short by an interrupted write",
                        path,
                        i,
                    )
                    break
                raise RunDirError(f"{path}: generation record {i} is corrupt: {exc}") from None
            try:
                records.append(_record(data, individuals))
            except ValueError as exc:
                raise RunDirError(f"{path}: generation record {i} is corrupt: {exc}") from None
    if not records:
        raise RunDirError(f"{path}: contains no generation records")
    return records


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
            if ind.outcome is not None and ind.outcome.ppa is not None:
                seen.setdefault(ind.id, ind)
    return sorted(seen.values(), key=lambda ind: ind.id)


def _ppa_section(best: Individual, reference: PpaMetrics | None) -> list[str]:
    lines = []
    outcome = best.outcome
    # checked first: the evaluator withholds PPA when the gate-level check
    # fails, though a record read from disk may hold both
    gate_failed = outcome is not None and outcome.post_synth_functional is False
    if gate_failed:
        lines.append("Gate-level re-simulation failed; no improvement is claimed.")
    if outcome is None or outcome.ppa is None:
        lines.append("No synthesized PPA for the best individual.")
        return lines
    gen = outcome.ppa
    lines.append(
        f"PPA (generated): power={gen.power:.6g} area={gen.area:.6g} "
        f"period={gen.effective_clock_period:.6g}"
    )
    if reference is None:
        lines.append("Reference PPA unavailable; improvement percentages omitted.")
        return lines
    lines.append(
        f"PPA (reference): power={reference.power:.6g} area={reference.area:.6g} "
        f"period={reference.effective_clock_period:.6g}"
    )
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
    if best is None:
        lines.append("No best individual recorded.")
    else:
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
        rate = record.success_count / total * 100.0 if total else 0.0
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
