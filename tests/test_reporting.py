"""Run directory persistence and the text report."""
from __future__ import annotations

import dataclasses
import json

import pytest
import yaml

from rtlevo.bandit import BanditState, StrategyStats, record_reward
from rtlevo.evolution import CALL_FAILED_CODE, PLACEHOLDER_CODE, EvolutionConfig
from rtlevo.llm import TranscriptingProvider, TranscriptWriter
from rtlevo.model import (
    NEG_INF,
    Critique,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PpaMetrics,
    to_plain,
)
from rtlevo.reporting import (
    CONFIG_SNAPSHOT_FILE,
    GENERATIONS_FILE,
    TRANSCRIPTS_FILE,
    HistoryWriter,
    RunDirError,
    append_generation,
    generation_bands,
    read_generations,
    render_report,
)

from closed_world import ClosedWorld
from support import (
    ENTRY_KEYS,
    REF,
    SPEC,
    FailingDrafts,
    rebuild_every_prompt,
    run_at_one_and_four_workers,
    transcript_entries,
)


def write_history(path, records):
    with HistoryWriter(path) as history:
        for record in records:
            append_generation(history, record)


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
    write_history(tmp_path / GENERATIONS_FILE, records)
    back = read_generations(tmp_path)
    assert [to_plain(r) for r in back] == [to_plain(r) for r in records]


def test_append_writes_header_once(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    write_history(path, two_records())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"schema_version": 4}


def test_new_history_must_start_at_generation_0(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    with HistoryWriter(path) as history:
        with pytest.raises(ValueError, match="must start at generation 0, not 1"):
            append_generation(history, two_records()[1])
    assert not path.exists()


@pytest.mark.parametrize("earlier", [False, True], ids=["empty", "earlier_history"])
def test_an_empty_history_file_is_new(tmp_path, earlier):
    path = tmp_path / GENERATIONS_FILE
    records = two_records()
    if earlier:
        write_history(path, records)
    else:
        path.touch()
    before = path.read_bytes()
    with HistoryWriter(path) as history:
        with pytest.raises(ValueError, match="must start at generation 0, not 1"):
            append_generation(history, records[1])
        assert path.read_bytes() == before
        # the writer replaces what the file held
        append_generation(history, records[0])
    assert path.read_text(encoding="utf-8").splitlines()[0] == '{"schema_version": 4}'
    assert [to_plain(r) for r in read_generations(tmp_path)] == [to_plain(r) for r in records[:1]]


def test_read_missing_file(tmp_path):
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "run directory" in str(err.value)


def test_read_corrupt_record_numbered(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 4}\n{"nope": true}\n', encoding="utf-8")
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "record 0" in str(err.value)


@pytest.mark.parametrize("index", [5, 1])
def test_a_record_that_does_not_follow_the_last_is_corrupt(tmp_path, index):
    # the writer refuses such a record; a history numbered 0, 1, 5 is hand-edited
    path = tmp_path / GENERATIONS_FILE
    records = two_records()
    write_history(path, records + [dataclasses.replace(records[1], generation_index=2)])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"generation_index": 2' in lines[3]
    lines[3] = lines[3].replace('"generation_index": 2', f'"generation_index": {index}')
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert f"generation record 2 is corrupt: generation_index is {index}, not 2" in str(err.value)


def test_read_bad_header(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(RunDirError):
        read_generations(tmp_path)


def test_read_unsupported_version(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    # schemas 1 to 3 were written by earlier versions of the program
    for version in (1, 2, 3, 99):
        path.write_text(f'{{"schema_version": {version}}}\n{FULL_RECORD_LINE}\n', encoding="utf-8")
        with pytest.raises(RunDirError) as err:
            read_generations(tmp_path)
        assert f"unsupported schema_version {version}" in str(err.value)


def test_read_empty_history(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    path.write_text('{"schema_version": 4}\n', encoding="utf-8")
    with pytest.raises(RunDirError):
        read_generations(tmp_path)


def test_neg_inf_survives_roundtrip(tmp_path):
    records = two_records()
    write_history(tmp_path / GENERATIONS_FILE, records)
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

# `full_record()`, a record with every field set, as schema 4 writes it after
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
    '"parent_ids": [0], "strategy": "fix", "thought": "\\u0394: ripple \\u2192 lookahead"}]}'
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
        generation_index=1, population=(failed, child), offspring=(child,), best_so_far=child,
        bandit_states={"fail": state}, critiques=(Critique(0, "carry is lost"),),
    )


def test_record_line_is_pinned(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    write_history(path, (generation_zero(), full_record()))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == FULL_RECORD_LINE
    back = read_generations(tmp_path)
    assert back == [generation_zero(), full_record()]
    # one object per individual, shared by the records that mention it
    assert back[1].offspring[0] is back[1].population[1] is back[1].best_so_far


def test_append_out_of_order_raises_and_writes_nothing(tmp_path):
    path = tmp_path / GENERATIONS_FILE
    record = full_record()
    with HistoryWriter(path) as history:
        append_generation(history, generation_zero())
        before = path.read_bytes()
        for index in (0, 2):
            with pytest.raises(ValueError, match=f"ends at generation 0, not {index - 1}"):
                append_generation(history, dataclasses.replace(record, generation_index=index))
        assert path.read_bytes() == before
        append_generation(history, record)
        before = path.read_bytes()
        for index in (1, 3):
            with pytest.raises(ValueError, match=f"ends at generation 1, not {index - 1}"):
                append_generation(history, dataclasses.replace(record, generation_index=index))
        assert path.read_bytes() == before
    with pytest.raises(ValueError, match="closed file"):
        append_generation(history, dataclasses.replace(record, generation_index=2))
    assert path.read_bytes() == before


def _full_history(tmp_path, edit=None, tail=""):
    """generation_zero() and full_record() as the writer writes them, the
    second line edited by `edit`, then `tail` appended as it is."""
    path = tmp_path / GENERATIONS_FILE
    write_history(path, [generation_zero()])
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
        # the engine writes no record it could not continue from
        (lambda d: d.update(best_so_far=None), "best_so_far must be a mapping"),
        (lambda d: d.update(population=[], offspring=d["population"][1:]),
         "GenerationRecord.population must not be empty"),
        (lambda d: d["population"][1].update(outcome=None, fitness=None),
         "GenerationRecord holds individual 1, which has no outcome"),
        (lambda d: d.update(population={}), "population: expected a list, got {}"),
        (lambda d: d["population"][1].update(parent_ids=5),
         "population[1].parent_ids: expected a list, got 5"),
    ],
)
def test_corrupt_v3_entry_names_record_and_key_path(tmp_path, edit, message):
    _full_history(tmp_path, edit)
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
        (lambda d: _full_at(d, "best_so_far")["outcome"].pop("sim_log"),
         "best_so_far.outcome.sim_log is required"),
        (lambda d: _full_at(d, "population[0]").update(extra=1),
         "unknown key(s) in population[0]: extra"),
        # schema 3 stored each offspring's reward, which follows from it and its parents
        (lambda d: d.update(strategy_events=[{"label": "fail", "reward": 1.0, "strategy": "fix"}]),
         "unknown key(s) in record: strategy_events"),
        # bool(), float() and str() would read these
        (lambda d: _full_at(d, "population[1]")["outcome"].update(synth_succeeded=1),
         "population[1].outcome.synth_succeeded: expected true or false, got 1"),
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
    _full_history(tmp_path, edit)
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 1 is corrupt: " + message in str(err.value)


# an individual's own checks name the entry that fails them
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _full_at(d, "offspring[0]")["outcome"]["ppa"].update(area=-1.0),
         "offspring[0].outcome.ppa: PpaMetrics.area must be finite and >= 0, got -1.0"),
        (lambda d: _full_at(d, "population[1]")["outcome"].update(synth_succeeded=False),
         "population[1].outcome: EvalOutcome.ppa requires synth_succeeded"),
        (lambda d: _full_at(d, "best_so_far").update(generation_born=-1),
         "best_so_far: Individual.generation_born must be >= 0"),
    ],
)
def test_failed_entry_check_names_record_and_entry(tmp_path, edit, message):
    _full_history(tmp_path, edit)
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 1 is corrupt: " + message in str(err.value)


def test_torn_last_line_is_dropped_with_a_warning(tmp_path, caplog):
    # a write killed partway through leaves a last line with no newline
    _full_history(tmp_path, tail=FULL_RECORD_LINE[:100])
    with caplog.at_level("WARNING"):
        assert read_generations(tmp_path) == [generation_zero(), full_record()]
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "dropped generation record 2" in warnings[0].getMessage()


@pytest.mark.parametrize("torn", [False, True])
def test_a_line_that_is_not_utf8_is_corrupt_unless_torn(tmp_path, caplog, torn):
    # only an outside edit writes such a line: json.dumps escapes every non-ASCII character
    _full_history(tmp_path)
    with (tmp_path / GENERATIONS_FILE).open("ab") as fh:
        fh.write(b'\xff\xfe{"x": 1}' + (b"" if torn else b"\n"))
    if torn:
        with caplog.at_level("WARNING"):
            assert read_generations(tmp_path) == [generation_zero(), full_record()]
        assert "dropped generation record 2" in caplog.text
        return
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 2 is corrupt" in str(err.value)


@pytest.mark.parametrize("tail", [FULL_RECORD_LINE[:100] + "\n", FULL_RECORD_LINE[:100] + "\n{}\n"])
def test_cut_line_with_a_newline_is_corrupt(tmp_path, tail):
    _full_history(tmp_path, tail=tail)
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 2 is corrupt" in str(err.value)


def test_a_blank_line_is_corrupt(tmp_path):
    # no writer leaves one, so it is a line the writer cannot have written
    _full_history(tmp_path, tail="\n")
    with pytest.raises(RunDirError) as err:
        read_generations(tmp_path)
    assert "generation record 2 is corrupt" in str(err.value)


# --- prompts rebuilt from the run directory ----------------------------------


class _TranscribedWorlds:
    """A provider factory for `run_at_one_and_four_workers`: each provider
    is a fresh `world()` whose calls are transcribed into a run directory
    of its own under `root`, which also gets SPEC's config snapshot. Keeps
    the directories, the worlds and the writers in the order it made them."""

    def __init__(self, root, world):
        self.root = root
        self.world = world
        self.made = []

    def __call__(self):
        run_dir = self.root / f"run-{len(self.made)}"
        run_dir.mkdir()
        snapshot = yaml.safe_dump({"problem": to_plain(SPEC)})
        (run_dir / CONFIG_SNAPSHOT_FILE).write_text(snapshot, encoding="utf-8")
        world = self.world()
        writer = TranscriptWriter(run_dir / TRANSCRIPTS_FILE)
        self.made.append((run_dir, world, writer))
        return TranscriptingProvider(world, writer)


def _rebuilt_runs(tmp_path, cfg, world):
    """The prompts rebuilt from each run directory of an engine run at one
    and at four workers, checked against what the world was sent, with the
    history each run wrote. Every transcript entry, a draft or a critique,
    a reply or a failure, has the same keys."""
    worlds = _TranscribedWorlds(tmp_path, world)
    try:
        runs = run_at_one_and_four_workers(cfg, worlds)
    finally:
        for _, _, writer in worlds.made:
            writer.close()
    rebuilt = []
    for run, (run_dir, closed, _) in zip(runs, worlds.made):
        entries = transcript_entries(run_dir / TRANSCRIPTS_FILE)
        assert all(entry.keys() == ENTRY_KEYS for entry in entries)
        (run_dir / GENERATIONS_FILE).write_bytes(run.written)
        prompts = rebuild_every_prompt(run_dir)
        inner = getattr(closed, "inner", closed)
        sent = {bundle.key: bundle.user_text for bundle in [*inner.drafts, *inner.critiques]}
        assert {key: prompts[key] for key in sent} == sent
        rebuilt.append((prompts, run.history))
    # sorted by key, the entries at four workers are the one-worker entries
    assert rebuilt[0][0] == rebuilt[1][0]
    return rebuilt


@pytest.mark.scheduling
def test_every_prompt_of_a_closed_world_run_rebuilds_at_one_and_four_workers(tmp_path):
    cfg = EvolutionConfig(population_size=5, offspring_count=5, max_generations=3, rng_seed=3)
    for prompts, history in _rebuilt_runs(tmp_path, cfg, lambda: ClosedWorld(3)):
        critiques = sum(len(record.critiques) for record in history)
        assert critiques > 0
        assert len(prompts) == 5 + 3 * 5 + critiques


@pytest.mark.scheduling
def test_prompts_with_placeholder_and_failed_call_parents_rebuild(tmp_path):
    # at this seed generation 0's second draft call fails, a fifth of the
    # replies do not parse, and both kinds of placeholder become parents
    cfg = EvolutionConfig(population_size=5, offspring_count=5, max_generations=3, rng_seed=2)
    runs = _rebuilt_runs(
        tmp_path,
        cfg,
        lambda: FailingDrafts(ClosedWorld(2, p_malformed=0.2), lambda key: key == (0, 1)),
    )
    for prompts, history in runs:
        codes = {ind.id: ind.code for record in history for ind in record.population}
        parents = [codes[i] for record in history[1:] for ind in record.offspring for i in ind.parent_ids]
        assert CALL_FAILED_CODE in parents and PLACEHOLDER_CODE in parents
        assert (0, 1) in prompts
