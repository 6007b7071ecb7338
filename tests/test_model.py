from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtlevo.model import (
    NEG_INF,
    CircuitKind,
    ConfigError,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PopulationLabel,
    PpaMetrics,
    ProblemSpec,
    StrategyEvent,
    build,
    classify,
    to_plain,
)

PPA = PpaMetrics(power=1.0, area=100.0, effective_clock_period=0.5)


def make_individual(**overrides) -> Individual:
    fields = dict(
        id=1,
        thought="t",
        code="module m; endmodule",
        feedback="fb",
        outcome=EvalOutcome(True, True, PPA, sim_log="ok", synth_log="ok"),
        fitness=0.25,
    )
    fields.update(overrides)
    return Individual(**fields)


def test_ppa_metrics_rejects_negative_and_non_finite():
    with pytest.raises(ValueError):
        PpaMetrics(power=-0.1, area=1.0, effective_clock_period=1.0)
    with pytest.raises(ValueError):
        PpaMetrics(power=1.0, area=float("inf"), effective_clock_period=1.0)
    with pytest.raises(ValueError):
        PpaMetrics(power=1.0, area=1.0, effective_clock_period=float("nan"))


def test_ppa_metrics_roundtrip():
    assert build(PpaMetrics, to_plain(PPA)) == PPA


def test_problem_spec_validation():
    with pytest.raises(ConfigError):
        ProblemSpec("x", "   ", "", PPA, CircuitKind.COMBINATIONAL, 0.01)
    with pytest.raises(ConfigError):
        ProblemSpec("x", "desc", "", PPA, CircuitKind.COMBINATIONAL, 0.0)
    zero_ref = PpaMetrics(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        ProblemSpec("x", "desc", "", zero_ref, CircuitKind.COMBINATIONAL, 0.01)


def test_outcome_ppa_requires_synth_success():
    with pytest.raises(ValueError):
        EvalOutcome(sim_passed=True, synth_succeeded=False, ppa=PPA, sim_log="x")
    # synthesis succeeded but the report was unusable: ppa may be absent
    EvalOutcome(sim_passed=True, synth_succeeded=True, ppa=None, sim_log="x", synth_log="y")


def test_individual_fitness_and_outcome_must_pair():
    with pytest.raises(ValueError):
        make_individual(outcome=None)
    with pytest.raises(ValueError):
        make_individual(fitness=None)
    ind = make_individual(outcome=None, fitness=None)
    assert ind.outcome is None and ind.fitness is None


def test_individual_neg_inf_iff_sim_failed():
    failed = EvalOutcome(False, False, None, sim_log="boom")
    make_individual(outcome=failed, fitness=NEG_INF)
    with pytest.raises(ValueError):
        make_individual(outcome=failed, fitness=-1.0e9)
    with pytest.raises(ValueError):
        make_individual(fitness=NEG_INF)  # sim passed but fitness -inf


def test_individual_strategy_and_parents_together():
    with pytest.raises(ValueError):
        make_individual(strategy="fix")
    with pytest.raises(ValueError):
        make_individual(parent_ids=(0,))
    ind = make_individual(strategy="fix", parent_ids=(0,))
    assert ind.parent_ids == (0,)


def test_classify():
    success = make_individual()
    failed = make_individual(outcome=EvalOutcome(False, False, None, sim_log="x"), fitness=NEG_INF)
    assert classify(success) is PopulationLabel.SUCCESS
    assert classify(failed) is PopulationLabel.FAIL
    with pytest.raises(ValueError):
        classify(make_individual(outcome=None, fitness=None))


def test_classify_sim_pass_synth_fail_is_success():
    outcome = EvalOutcome(True, False, None, sim_log="ok", synth_log="synth died")
    ind = make_individual(outcome=outcome, fitness=-1.0e9)
    assert classify(ind) is PopulationLabel.SUCCESS


def test_individual_json_roundtrip_with_neg_inf():
    failed = make_individual(
        id=17,
        outcome=EvalOutcome(False, False, None, sim_log="err"),
        fitness=NEG_INF,
        strategy="explore",
        parent_ids=(3,),
        generation_born=2,
    )
    encoded = json.dumps(to_plain(failed), sort_keys=True)
    assert "-Infinity" in encoded
    again = build(Individual, json.loads(encoded))
    assert again == failed


def test_generation_record_roundtrip_and_count_invariant():
    pop = (make_individual(id=0), make_individual(id=1))
    record = GenerationRecord(
        generation_index=3,
        population=pop,
        offspring=(make_individual(id=2, strategy="improve", parent_ids=(0,)),),
        strategy_events=(StrategyEvent(PopulationLabel.SUCCESS, "improve", 1.0),),
        best_so_far=pop[0],
        fail_count=0,
        success_count=2,
        bandit_states={"fail": {"total_pulls": 0}},
    )
    again = build(GenerationRecord, json.loads(json.dumps(to_plain(record))))
    assert again == record
    with pytest.raises(ValueError):
        GenerationRecord(
            generation_index=0, population=pop, fail_count=0, success_count=1
        )


# --- the one format: to_plain and build ------------------------------------

texts = st.text(max_size=12)  # any code point, so non-ASCII too
finite = st.floats(allow_nan=False, allow_infinity=False)
ppas = st.builds(PpaMetrics, *[st.floats(0, 1e6, allow_nan=False)] * 3)


@st.composite
def outcomes(draw):
    synth = draw(st.booleans())
    return EvalOutcome(
        sim_passed=draw(st.booleans()),
        synth_succeeded=synth,
        ppa=draw(st.none() | ppas) if synth else None,
        sim_log=draw(texts),
        synth_log=draw(texts),
        post_synth_functional=draw(st.sampled_from([None, True, False])),
    )


@st.composite
def individuals(draw):
    outcome = draw(st.none() | outcomes())
    if outcome is None:
        fitness = None
    else:
        fitness = draw(finite) if outcome.sim_passed else NEG_INF
    parent_ids = tuple(draw(st.lists(st.integers(0, 2**40), max_size=2)))
    return Individual(
        id=draw(st.integers(0, 2**40)),
        thought=draw(texts),
        code=draw(texts),
        feedback=draw(st.none() | texts),
        outcome=outcome,
        fitness=fitness,
        parent_ids=parent_ids,
        strategy=draw(texts) if parent_ids else None,
        generation_born=draw(st.integers(0, 1000)),
    )


@st.composite
def records(draw):
    population = tuple(draw(st.lists(individuals(), min_size=1, max_size=3)))
    fail_count = draw(st.integers(0, len(population)))
    return GenerationRecord(
        generation_index=draw(st.integers(0, 1000)),
        population=population,
        offspring=tuple(draw(st.lists(individuals(), max_size=2))),
        strategy_events=tuple(draw(st.lists(
            st.builds(StrategyEvent, st.sampled_from(PopulationLabel), texts, finite), max_size=2
        ))),
        best_so_far=draw(st.none() | individuals()),
        fail_count=fail_count,
        success_count=len(population) - fail_count,
        bandit_states=draw(st.dictionaries(
            st.sampled_from(["fail", "success"]), st.dictionaries(texts, st.integers())
        )),
    )


@given(individuals())
def test_individual_survives_json(ind):
    assert build(Individual, json.loads(json.dumps(to_plain(ind)))) == ind


@given(records())
def test_generation_record_survives_json(record):
    assert build(GenerationRecord, json.loads(json.dumps(to_plain(record)))) == record
