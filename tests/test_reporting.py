"""Run directory persistence and the text report."""
from __future__ import annotations

import json

import pytest

from rtlevo.bandit import BanditState, record_reward
from rtlevo.model import (
    NEG_INF,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PopulationLabel,
    PpaMetrics,
    StrategyEvent,
    to_plain,
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
    assert [to_plain(r) for r in back] == [to_plain(r) for r in records]


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


# --- the one format ---------------------------------------------------------

# A record with every field set, written by `append_generation` before the
# format was defined by the dataclass fields; a renamed field changes it.
FULL_RECORD_LINE = (
    '{"bandit_states": {"fail": {"exploration_c": 1.5, '
    '"strategies": {"fusion": {"pull_count": 0, "q_value": 0.0}, '
    '"improve": {"pull_count": 1, "q_value": 1.0}}, "temperature": 0.7, '
    '"total_pulls": 1}}, "best_so_far": {"code": "module add2; endmodule", '
    '"feedback": null, "fitness": 0.25, "generation_born": 1, "id": 1, '
    '"outcome": {"post_synth_functional": false, "ppa": {"area": 80.0, '
    '"effective_clock_period": 1.0, "power": 0.7}, "sim_log": "all tests passed", '
    '"sim_passed": true, "synth_log": "Chip area: 80", "synth_succeeded": true}, '
    '"parent_ids": [0], "strategy": "fix", "thought": "\\u0394: ripple \\u2192 lookahead"}, '
    '"fail_count": 1, "generation_index": 1, '
    '"offspring": [{"code": "module add2; endmodule", "feedback": null, "fitness": 0.25, '
    '"generation_born": 1, "id": 1, "outcome": {"post_synth_functional": false, '
    '"ppa": {"area": 80.0, "effective_clock_period": 1.0, "power": 0.7}, '
    '"sim_log": "all tests passed", "sim_passed": true, "synth_log": "Chip area: 80", '
    '"synth_succeeded": true}, "parent_ids": [0], "strategy": "fix", '
    '"thought": "\\u0394: ripple \\u2192 lookahead"}], '
    '"population": [{"code": "module add2; endmodule // BUG", "feedback": "carry is lost", '
    '"fitness": -Infinity, "generation_born": 0, "id": 0, '
    '"outcome": {"post_synth_functional": null, "ppa": null, "sim_log": "FAIL: 1+1 != 2", '
    '"sim_passed": false, "synth_log": "", "synth_succeeded": false}, "parent_ids": [], '
    '"strategy": null, "thought": "no carry"}, {"code": "module add2; endmodule", '
    '"feedback": null, "fitness": 0.25, "generation_born": 1, "id": 1, '
    '"outcome": {"post_synth_functional": false, "ppa": {"area": 80.0, '
    '"effective_clock_period": 1.0, "power": 0.7}, "sim_log": "all tests passed", '
    '"sim_passed": true, "synth_log": "Chip area: 80", "synth_succeeded": true}, '
    '"parent_ids": [0], "strategy": "fix", "thought": "\\u0394: ripple \\u2192 lookahead"}], '
    '"strategy_events": [{"label": "fail", "reward": 1.0, "strategy": "fix"}], '
    '"success_count": 1}'
)


def full_record():
    state = BanditState.for_strategies(["improve", "fusion"], exploration_c=1.5, temperature=0.7)
    record_reward(state, "improve", 1.0)
    failed = Individual(
        id=0, thought="no carry", code="module add2; endmodule // BUG", feedback="carry is lost",
        outcome=EvalOutcome(False, False, None, sim_log="FAIL: 1+1 != 2"), fitness=NEG_INF,
    )
    child = Individual(
        id=1, thought="Δ: ripple → lookahead", code="module add2; endmodule",
        outcome=EvalOutcome(
            True, True, PpaMetrics(0.7, 80.0, 1.0), sim_log="all tests passed",
            synth_log="Chip area: 80", post_synth_functional=False,
        ),
        fitness=0.25, parent_ids=(0,), strategy="fix", generation_born=1,
    )
    return GenerationRecord(
        generation_index=1, population=(failed, child), offspring=(child,),
        strategy_events=(StrategyEvent(PopulationLabel.FAIL, "fix", 1.0),),
        best_so_far=child, fail_count=1, success_count=1,
        bandit_states={"fail": to_plain(state)},
    )


def test_record_line_is_pinned(tmp_path):
    append_generation(tmp_path / GENERATIONS_FILE, full_record())
    lines = (tmp_path / GENERATIONS_FILE).read_text(encoding="utf-8").splitlines()
    assert lines[1] == FULL_RECORD_LINE
    assert read_generations(tmp_path) == [full_record()]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["population"][1]["outcome"].update(sim_passed="no"),
         "population[1].outcome.sim_passed: expected true or false, got 'no'"),
        (lambda d: d["offspring"][0].update(parent_ids=[0.5]),
         "offspring[0].parent_ids[0]: expected an integer, got 0.5"),
        (lambda d: d["strategy_events"][0].update(label="neutral"),
         "strategy_events[0].label: 'neutral' is not a valid PopulationLabel"),
        (lambda d: d["best_so_far"]["outcome"].pop("sim_log"),
         "best_so_far.outcome.sim_log is required"),
        (lambda d: d["population"][0].update(extra=1), "unknown key(s) in population[0]: extra"),
    ],
)
def test_corrupt_value_names_record_and_key_path(tmp_path, edit, message):
    data = json.loads(FULL_RECORD_LINE)
    edit(data)
    (tmp_path / GENERATIONS_FILE).write_text(
        '{"schema_version": 1}\n' + json.dumps(data) + "\n", encoding="utf-8"
    )
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 0 is corrupt: " + message in str(err.value)
