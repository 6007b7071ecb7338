"""Run directory persistence and the text report."""
from __future__ import annotations

import json

import pytest

from rtlevo.model import (
    NEG_INF,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PpaMetrics,
)
from rtlevo.reporting import (
    GENERATIONS_FILE,
    RunDirError,
    append_generation,
    generation_bands,
    read_generations,
    render_report,
)

REF = PpaMetrics(power=1.0, area=100.0, effective_clock_period=1.0)


def ind(id, fitness, ppa=None, gen=0, sim=True, strategy=None, post_synth=None):
    return Individual(
        id=id,
        thought=f"thought {id}",
        code=f"module m_{id}; endmodule",
        feedback="fb",
        outcome=EvalOutcome(
            sim, ppa is not None, ppa,
            sim_log="all tests passed" if sim else "failed",
            post_synth_functional=post_synth,
        ),
        fitness=fitness,
        parent_ids=(0,) if strategy else (),
        strategy=strategy,
        generation_born=gen,
    )


def record(gen, population, best, offspring=()):
    fails = sum(1 for p in population if not p.outcome.sim_passed)
    return GenerationRecord(
        generation_index=gen,
        population=tuple(population),
        offspring=tuple(offspring),
        strategy_events=(),
        best_so_far=best,
        fail_count=fails,
        success_count=len(population) - fails,
        bandit_states={
            "fail": {"total_pulls": 0, "strategies": {}},
            "success": {
                "total_pulls": 2,
                "strategies": {"improve": {"q_value": 0.5, "pull_count": 2}},
            },
        },
    )


def two_records():
    a = ind(0, 0.075, PpaMetrics(0.9, 95.0, 1.0))
    b = ind(1, NEG_INF, None, sim=False)
    c = ind(2, 0.25, PpaMetrics(0.7, 80.0, 1.0), gen=1, strategy="improve")
    return [
        record(0, [a, b], a),
        record(1, [a, c], c, offspring=[c]),
    ]


# --- bands ------------------------------------------------------------------


def test_bands_at_twenty_generations():
    assert generation_bands(20) == [(0, 4), (5, 11), (12, 20)]


def test_bands_at_ten_generations():
    assert generation_bands(10) == [(0, 2), (3, 5), (6, 10)]


def test_bands_partition_every_horizon():
    for last in range(1, 60):
        bands = generation_bands(last)
        covered = []
        for lo, hi in bands:
            if lo <= hi:
                covered.extend(range(lo, hi + 1))
        assert covered == sorted(covered)
        assert sorted(set(covered)) == covered  # no overlap
        assert covered == list(range(last + 1))  # no gap


# --- persistence ------------------------------------------------------------


def test_write_read_roundtrip(tmp_path):
    records = two_records()
    for record in records:
        append_generation(tmp_path / GENERATIONS_FILE, record)
    back = read_generations(tmp_path)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]


def test_append_writes_header_once(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    for rec in two_records():
        append_generation(path, rec)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"schema_version": 1}


def test_read_missing_file(tmp_path):
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "run directory" in str(err.value)


def test_read_corrupt_record_numbered(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 1}\n{"nope": true}\n', encoding="utf-8")
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "record 0" in str(err.value)


def test_read_bad_header(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(RunDirError):
        read_generations(tmp_path)


def test_read_unsupported_version(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 99}\n', encoding="utf-8")
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "99" in str(err.value)


def test_read_empty_history(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 1}\n', encoding="utf-8")
    with pytest.raises(RunDirError):
        read_generations(tmp_path)


def test_neg_inf_survives_roundtrip(tmp_path):
    records = two_records()
    for record in records:
        append_generation(tmp_path / GENERATIONS_FILE, record)
    back = read_generations(tmp_path)
    assert back[0].population[1].fitness == NEG_INF


# --- report text ------------------------------------------------------------


def test_report_shows_best_and_improvements():
    out = render_report(two_records(), REF)
    assert "Best individual: id=2 generation=1 strategy=improve" in out
    assert "thought 2" in out
    assert "module m_2; endmodule" in out
    assert "Power improv. 30.0%" in out
    assert "Area improv. 20.0%" in out
    assert "Period improv. 0.0%" in out
    assert "gen 0" in out and "1/2 (50.0%)" in out
    assert "improve" in out
    assert "Power-area by generation band" in out


def test_report_without_reference_omits_percentages():
    out = render_report(two_records(), None)
    assert "improv." not in out
    assert "Reference PPA unavailable" in out


def test_report_all_fail_is_honest():
    bad = ind(0, NEG_INF, None, sim=False)
    out = render_report([record(0, [bad, bad], bad)], REF)
    assert "No functionally correct design found." in out


def test_report_post_synth_failure_withholds_percentages():
    # PPA parsed but the gate-level check failed: numbers shown, no claims
    star = ind(3, 0.25, PpaMetrics(0.7, 80.0, 1.0), post_synth=False)
    out = render_report([record(0, [star], star)], REF)
    assert "Gate-level re-simulation failed" in out
    assert "improv." not in out


def test_report_band_membership():
    early = ind(0, 0.1, PpaMetrics(0.9, 95.0, 1.0), gen=0)
    late = ind(9, 0.5, PpaMetrics(0.5, 50.0, 1.0), gen=10)
    records = [record(g, [early if g < 10 else late], late) for g in range(11)]
    out = render_report(records, REF)
    # horizon 10 bands: 0-2, 3-5, 6-10
    assert "gens 0-2" in out
    assert "gens 6-10" in out
    band_lines = [l for l in out.splitlines() if l.strip().startswith("gens")]
    assert any("0.9" in l for l in band_lines if "0-2" in l)
    assert any("0.5" in l for l in band_lines if "6-10" in l)
