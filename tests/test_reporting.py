"""Run directory persistence and the text report."""
from __future__ import annotations

import dataclasses
import json

import pytest

from rtlevo.bandit import BanditState, StrategyStats, record_reward
from rtlevo.model import (
    NEG_INF,
    Critique,
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
    return GenerationRecord(
        generation_index=gen,
        population=tuple(population),
        offspring=tuple(offspring),
        strategy_events=(),
        best_so_far=best,
        bandit_states={
            "fail": BanditState(strategies={}),
            "success": BanditState(strategies={"improve": StrategyStats(q_value=0.5, pull_count=2)}),
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
    assert json.loads(lines[0]) == {"schema_version": 3}


def test_new_history_must_start_at_generation_0(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    with pytest.raises(ValueError, match="must start at generation 0, not 1"):
        append_generation(path, two_records()[1])
    assert not path.exists()


def test_read_missing_file(tmp_path):
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "run directory" in str(err.value)


def test_read_corrupt_record_numbered(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 3}\n{"nope": true}\n', encoding="utf-8")
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
    # schemas 1 and 2 were written by earlier versions of the program
    for version in (1, 2, 99):
        path.write_text(f'{{"schema_version": {version}}}\n{FULL_RECORD_LINE}\n', encoding="utf-8")
        with pytest.raises(RunDirError) as err:
            read_generations(tmp_path)
        assert f"unsupported schema_version {version}" in str(err.value)


def test_read_empty_history(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 3}\n', encoding="utf-8")
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


def test_report_names_gate_level_failure_of_withheld_ppa():
    # what the toolchain evaluator writes: synthesis ran, the gate-level
    # check failed, so no PPA
    star = ind(3, -1e9, None, post_synth=False)
    star = dataclasses.replace(
        star, outcome=dataclasses.replace(star.outcome, synth_succeeded=True)
    )
    out = render_report([record(0, [star], star)], REF)
    assert "Gate-level re-simulation failed" in out
    assert "No synthesized PPA for the best individual." in out
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

# `full_record()`, a record with every field set, as schema 3 writes it after
# `generation_zero()`, from the dataclass fields; a renamed field changes it. Individual 0 was written in
# full in generation 0, so here it is a reference and its critique.
FULL_RECORD_LINE = (
    '{"bandit_states": {"fail": {"strategies": {"fusion": {"pull_count": 0, "q_value": 0.0}, '
    '"improve": {"pull_count": 1, "q_value": 1.0}}}}, "best_so_far": {"id": 1}, '
    '"critiques": [{"feedback": "carry is lost", "id": 0}], "generation_index": 1, '
    '"offspring": [{"id": 1}], "population": [{"id": 0}, {"code": "module add2; endmodule", '
    '"feedback": null, "fitness": 0.25, "generation_born": 1, "id": 1, '
    '"outcome": {"post_synth_functional": false, "ppa": {"area": 80.0, '
    '"effective_clock_period": 1.0, "power": 0.7}, "sim_log": "all tests passed", '
    '"sim_passed": true, "synth_log": "Chip area: 80", "synth_succeeded": true}, '
    '"parent_ids": [0], "strategy": "fix", "thought": "\\u0394: ripple \\u2192 lookahead"}], '
    '"strategy_events": [{"label": "fail", "reward": 1.0, "strategy": "fix"}]}'
)


def _failed(feedback=None):
    return Individual(
        id=0, thought="no carry", code="module add2; endmodule // BUG", feedback=feedback,
        outcome=EvalOutcome(False, False, None, sim_log="FAIL: 1+1 != 2"), fitness=NEG_INF,
    )


def generation_zero():
    """The generation `full_record` follows: individual 0, not yet critiqued."""
    return GenerationRecord(
        generation_index=0, population=(_failed(),), best_so_far=_failed(),
        bandit_states={"fail": BanditState.for_strategies(["improve", "fusion"])},
    )


def full_record():
    state = BanditState.for_strategies(["improve", "fusion"])
    record_reward(state, "improve", 1.0)
    failed = _failed(feedback="carry is lost")
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
        best_so_far=child, bandit_states={"fail": state},
        critiques=(Critique(0, "carry is lost"),),
    )


def test_record_line_is_pinned(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    for rec in (generation_zero(), full_record()):
        append_generation(path, rec)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == FULL_RECORD_LINE
    back = read_generations(tmp_path)
    assert back == [generation_zero(), full_record()]
    # one object per individual, shared by the records that mention it
    assert back[1].offspring[0] is back[1].population[1] is back[1].best_so_far


def _v3_history(tmp_path, edit=None, tail=""):
    """generation_zero() and full_record() written as schema 3, the second
    line edited by `edit`, then `tail` appended as it is."""
    path = tmp_path / GENERATIONS_FILE
    append_generation(path, generation_zero())
    data = json.loads(FULL_RECORD_LINE)
    if edit is not None:
        edit(data)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(data, sort_keys=True) + "\n" + tail)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["population"].__setitem__(0, {"id": 7}),
         "population[0]: no earlier entry defines individual 7"),
        # a reference resolves only to an entry before it in the scan order
        (lambda d: d.update(population=[{"id": 0}, {"id": 1}], offspring=d["population"][1:]),
         "population[1]: no earlier entry defines individual 1"),
        (lambda d: d["best_so_far"].update(id=2), "best_so_far: no earlier entry defines individual 2"),
        (lambda d: d["offspring"][0].update(id="1"), "offspring[0].id: expected an integer, got '1'"),
        (lambda d: d["critiques"][0].update(id=1),
         "critiques[0].id: no earlier entry defines individual 1"),
        (lambda d: d["critiques"][0].update(feedback=3),
         "critiques[0].feedback: expected a string, got 3"),
        (lambda d: d["population"][1]["outcome"].update(sim_passed="no"),
         "population[1].outcome.sim_passed: expected true or false, got 'no'"),
    ],
)
def test_corrupt_v3_entry_names_record_and_key_path(tmp_path, edit, message):
    _v3_history(tmp_path, edit)
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 1 is corrupt: " + message in str(err.value)


def _full_at(data, where):
    """Move the line's one full entry, individual 1, to `where` (each other
    mention a reference) and return it."""
    full, ref = data["population"][1], {"id": 1}
    data.update({
        "population[0]": dict(population=[full, {"id": 0}], offspring=[ref], best_so_far=ref),
        "population[1]": {},
        "offspring[0]": dict(population=[{"id": 0}], offspring=[full], best_so_far=ref),
        "best_so_far": dict(population=[{"id": 0}], offspring=[], best_so_far=full),
    }[where])
    return full


# a full entry is read strictly wherever in the scan order it stands
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _full_at(d, "population[1]")["outcome"].update(sim_passed="no"),
         "population[1].outcome.sim_passed: expected true or false, got 'no'"),
        (lambda d: _full_at(d, "offspring[0]").update(parent_ids=[0.5]),
         "offspring[0].parent_ids[0]: expected an integer, got 0.5"),
        (lambda d: d["strategy_events"][0].update(label="neutral"),
         "strategy_events[0].label: 'neutral' is not a valid PopulationLabel"),
        (lambda d: _full_at(d, "best_so_far")["outcome"].pop("sim_log"),
         "best_so_far.outcome.sim_log is required"),
        (lambda d: _full_at(d, "population[0]").update(extra=1),
         "unknown key(s) in population[0]: extra"),
        # float() and str() would read these
        (lambda d: _full_at(d, "offspring[0]")["outcome"]["ppa"].update(power="0.5"),
         "offspring[0].outcome.ppa.power: expected a number, got '0.5'"),
        (lambda d: _full_at(d, "best_so_far")["outcome"]["ppa"].update(area=True),
         "best_so_far.outcome.ppa.area: expected a number, got True"),
        (lambda d: _full_at(d, "population[1]").update(fitness="0.25"),
         "population[1].fitness: expected a number, got '0.25'"),
        (lambda d: _full_at(d, "population[0]")["outcome"].update(sim_log={"a": 1}),
         "population[0].outcome.sim_log: expected a string, got {'a': 1}"),
        (lambda d: _full_at(d, "population[0]").update(code=7),
         "population[0].code: expected a string, got 7"),
        (lambda d: d["bandit_states"]["fail"]["strategies"]["improve"].update(q_value="x"),
         "bandit_states.fail.strategies.improve.q_value: expected a number, got 'x'"),
    ],
)
def test_corrupt_value_names_record_and_key_path(tmp_path, edit, message):
    _v3_history(tmp_path, edit)
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 1 is corrupt: " + message in str(err.value)


def test_torn_last_line_is_dropped_with_a_warning(tmp_path, caplog):
    # a write killed partway through leaves a last line with no newline
    _v3_history(tmp_path, tail=FULL_RECORD_LINE[:100])
    with caplog.at_level("WARNING"):
        assert read_generations(tmp_path) == [generation_zero(), full_record()]
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "dropped generation record 2" in warnings[0].getMessage()


@pytest.mark.parametrize("tail", [FULL_RECORD_LINE[:100] + "\n", FULL_RECORD_LINE[:100] + "\n{}\n"])
def test_cut_line_with_a_newline_is_corrupt(tmp_path, tail):
    _v3_history(tmp_path, tail=tail)
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 2 is corrupt" in str(err.value)
