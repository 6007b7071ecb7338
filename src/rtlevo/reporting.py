"""Reading a run directory back and rendering the human-readable summary."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .model import GenerationRecord, Individual, PpaMetrics, build, to_plain

SCHEMA_VERSION = 1

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

    The keys are the record's dataclass fields, sorted, and no timestamps
    are included, so identical histories serialize byte-identically.
    """
    if not path.exists():
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema_version": SCHEMA_VERSION}, sort_keys=True) + "\n")
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(to_plain(record), sort_keys=True) + "\n")


def read_generations(run_dir: str | Path) -> list[GenerationRecord]:
    """Every record of a run's history, read with the loader that reads the
    config; a corrupt record is a RunDirError naming it and its key path."""
    path = Path(run_dir) / GENERATIONS_FILE
    if not path.is_file():
        raise RunDirError(f"{path} not found; is this a run directory?")
    records = []
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
                records.append(build(GenerationRecord, json.loads(line)))
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
    if outcome.post_synth_functional is False:
        lines.append("Gate-level re-simulation failed; improvement percentages omitted.")
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
    for label in sorted(record.bandit_states):
        state = record.bandit_states[label]
        lines.append(f"{label} population (total pulls {state.get('total_pulls', 0)}):")
        strategies = state.get("strategies", {})
        for name in sorted(strategies):
            stats = strategies[name]
            lines.append(
                f"  {name:<10} pulls={stats.get('pull_count', 0):<4} "
                f"Q={stats.get('q_value', 0.0):.4f}"
            )
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
