"""Property tests of the search's invariants over generated inputs:
offspring quotas, parent selection, survivor selection, bandit rewards,
the rules for on-demand critiques, the found-correct verdict and the
clipping of stored logs."""
from __future__ import annotations

import dataclasses
import random
import statistics
import threading

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rtlevo.evaluate as evaluate_module
from rtlevo.bandit import BanditState, record_reward
from rtlevo.evaluate import (
    FEEDBACK_LOG_TAIL_CHARS,
    LOG_CLIP_CHARS,
    LOG_HEAD_CHARS,
    SyntheticEvaluator,
    _feedback_prompt,
    _log_tail,
    clip_log,
)
from rtlevo.evolution import (
    PLACEHOLDER_CODE,
    EvolutionConfig,
    EvolutionEngine,
    offspring_quota,
    select_parents,
    survivor_select,
)
from rtlevo.fitness import SYNTH_FAIL_FITNESS
from rtlevo.llm import CompletionResult
from rtlevo.model import EvalOutcome, PpaMetrics
from rtlevo.prompts import PromptStrategy

from test_acceptance import SPEC, StochasticWorld, _fail, _oracle_survivors, _success


@given(
    fail=st.integers(0, 60),
    success=st.integers(0, 60),
    budget=st.integers(1, 80),
)
def test_quotas_sum_to_budget_within_one_of_share(fail, success, budget):
    assume(fail + success > 0)
    quota_fail, quota_success = offspring_quota(fail, success, budget)
    assert quota_fail + quota_success == budget
    assert abs(quota_fail - budget * fail / (fail + success)) < 1
    assert abs(quota_success - budget * success / (fail + success)) < 1


@given(
    fitnesses=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2, max_size=12),
    passing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fusion_parents_are_distinct(fitnesses, passing, seed):
    if passing:
        pop = [_success(i, f) for i, f in enumerate(fitnesses)]
    else:
        pop = [_fail(i) for i in range(len(fitnesses))]
    chosen = select_parents(pop, PromptStrategy.FUSION, random.Random(seed))
    assert len(chosen) == 2
    assert chosen[0].id != chosen[1].id


# coarse values, so that ties in every metric and in fitness are common
_member = st.tuples(
    st.sampled_from(["fail", "no_ppa", "ppa"]),
    st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    st.sampled_from([10.0, 50.0, 100.0]),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0]),
    st.integers(0, 3),
)


def _individual(id, member):
    shape, power, area, period, fitness, gen = member
    if shape == "fail":
        return _fail(id, gen)
    if shape == "no_ppa":
        return _success(id, SYNTH_FAIL_FITNESS, None, gen)
    return _success(id, fitness, PpaMetrics(power, area, period), gen)


@given(data=st.data())
def test_survivor_select_matches_brute_force_oracle(data):
    pop_size = data.draw(st.integers(3, 9), label="pop_size")
    elite_n = data.draw(st.integers(0, pop_size // 3), label="elite_n")
    members = data.draw(st.lists(_member, min_size=pop_size, max_size=pop_size + 8))
    population = [_individual(i, m) for i, m in enumerate(members)]
    parents, offspring = population[:pop_size], population[pop_size:]
    cfg = EvolutionConfig(
        population_size=pop_size, offspring_count=4, max_generations=1,
        elite_per_metric=elite_n, rng_seed=0,
    )
    got = survivor_select(parents, offspring, cfg)
    want = _oracle_survivors(parents, offspring, elite_n, pop_size)
    assert [i.id for i in got] == [i.id for i in want]


@given(
    pulls=st.lists(
        st.tuples(st.sampled_from(["fix", "explore"]), st.floats(-10.0, 10.0, allow_nan=False)),
        min_size=1,
        max_size=60,
    )
)
def test_incremental_reward_mean_equals_arithmetic_mean(pulls):
    state = BanditState.for_strategies(["fix", "explore", "improve"], 2.0, 1.0)
    for name, reward in pulls:
        record_reward(state, name, reward)
    assert state.total_pulls == len(pulls)
    for name in ("fix", "explore"):
        rewards = [r for n, r in pulls if n == name]
        stats = state.strategies[name]
        assert stats.pull_count == len(rewards)
        if rewards:
            assert stats.q_value == pytest.approx(statistics.fmean(rewards), rel=1e-9, abs=1e-9)
    assert state.strategies["improve"].pull_count == 0


class _CritiquingWorld:
    """StochasticWorld drafts, about one in eight of them unparsable, and a
    distinct critique text per feedback call."""

    def __init__(self, seed):
        self.world = StochasticWorld(seed)
        self.rng = random.Random(seed)
        self.critiques = 0
        self.drafts = []
        self.lock = threading.Lock()

    def complete(self, bundle):
        with self.lock:
            if bundle.purpose == "feedback":
                self.critiques += 1
                return CompletionResult(text=f"critique #{self.critiques}")
            self.drafts.append(bundle)
            if self.rng.random() < 0.125:
                return CompletionResult(text="no code block in this reply")
            return self.world.complete(bundle)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(2, 6),
    workers=st.sampled_from([1, 3]),
)
def test_only_chosen_parents_are_critiqued_once(seed, population, workers):
    provider = _CritiquingWorld(seed)
    critiqued: list[tuple[int, str]] = []
    original = evaluate_module.generate_feedback

    def recording(ind, *args, **kwargs):
        text = original(ind, *args, **kwargs)
        with provider.lock:
            critiqued.append((ind.id, text))
        return text

    cfg = EvolutionConfig(
        population_size=population, offspring_count=population, max_generations=4,
        elite_per_metric=0, rng_seed=seed, max_parallel_evaluations=workers,
    )
    evaluate_module.generate_feedback = recording
    try:
        result = EvolutionEngine(SPEC, cfg, provider, SyntheticEvaluator()).run()
    finally:
        evaluate_module.generate_feedback = original

    feedback_of = dict(critiqued)
    # no individual is critiqued twice
    assert len(feedback_of) == len(critiqued) == provider.critiques
    created = list(result.history[0].population)
    created += [ind for record in result.history[1:] for ind in record.offspring]
    by_id = {ind.id: ind for ind in created}
    placeholders = {ind.id for ind in created if ind.code == PLACEHOLDER_CODE}
    chosen = {pid for bundle in provider.drafts for pid in bundle.parent_ids}
    # exactly the evaluated individuals chosen as parents are critiqued
    assert set(feedback_of) == chosen - placeholders
    # every parent in a draft prompt carries non-empty feedback
    for bundle in provider.drafts:
        for pid in bundle.parent_ids:
            text = feedback_of.get(pid) or by_id[pid].feedback
            assert text and text.strip()
            assert text in bundle.user_text
    # evaluated individuals never chosen keep no feedback
    for record in result.history:
        for ind in [*record.population, *record.offspring]:
            if ind.id not in chosen and ind.id not in placeholders:
                assert ind.feedback is None


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(1, 6),
    offspring=st.integers(1, 6),
    generations=st.integers(1, 3),
    p_initial_fail=st.sampled_from([0.0, 0.7, 1.0]),
    p_fix_repair=st.sampled_from([0.0, 0.5]),
)
@example(
    seed=0, population=4, offspring=4, generations=3, p_initial_fail=1.0, p_fix_repair=0.0
)
def test_found_correct_means_some_individual_passed(
    seed, population, offspring, generations, p_initial_fail, p_fix_repair
):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=offspring, max_generations=generations,
        elite_per_metric=0, rng_seed=seed,
    )
    world = StochasticWorld(seed, p_initial_fail, p_fix_repair)
    result = EvolutionEngine(SPEC, cfg, world, SyntheticEvaluator()).run()
    created = list(result.history[0].population)
    created += [ind for record in result.history[1:] for ind in record.offspring]
    assert result.found_correct == any(ind.outcome.sim_passed for ind in created)


@st.composite
def _logs(draw):
    """Short logs, whitespace-heavy logs and long logs of any code point."""
    pieces = draw(st.lists(st.text(), max_size=5))
    repeat = draw(st.sampled_from([1, 3, 300, 3000]))
    pad = draw(st.sampled_from(["", " ", "\n", " \t\r\n\x0b"]))
    left = draw(st.integers(0, 6000))
    right = draw(st.integers(0, 6000))
    return pad * left + "".join(pieces) * repeat + pad * right


@given(log=_logs())
def test_clipped_log_reads_as_the_whole_log(log):
    clipped = clip_log(log)
    for tail_chars in (FEEDBACK_LOG_TAIL_CHARS, 500):
        assert _log_tail(clipped, tail_chars) == _log_tail(log, tail_chars)
    assert clip_log(clipped) == clipped
    assert len(clipped) <= min(len(log), LOG_CLIP_CHARS)
    if clipped not in (log, log.strip()):
        cut = len(log.strip()) - LOG_HEAD_CHARS - FEEDBACK_LOG_TAIL_CHARS
        assert clipped.count(f"\n[... {cut} characters cut ...]\n") == 1


class _PaddedLogEvaluator:
    """SyntheticEvaluator verdicts with logs of about 30 KB. One passing
    design in three fails synthesis, so its critique quotes the synth log;
    the outcomes it returned are kept by individual id."""

    def __init__(self):
        self.inner = SyntheticEvaluator()
        self.outcomes: dict[int, EvalOutcome] = {}

    def outcome_for(self, code, spec, individual_id=0):
        base = self.inner.outcome_for(code, spec, individual_id)
        body = "".join(f"  cycle {i:05d} id={individual_id}\n" for i in range(1500))
        outcome = dataclasses.replace(base, sim_log=f"\n {base.sim_log}\n{body}{base.sim_log}\n\n")
        if base.sim_passed and individual_id % 3 == 0:
            outcome = EvalOutcome(
                True, False, None, sim_log=outcome.sim_log,
                synth_log=f"{body}ERROR: no cell for id={individual_id}\n",
            )
        self.outcomes[individual_id] = outcome
        return outcome

    def reference_ppa(self, code):
        return self.inner.reference_ppa(code)


@pytest.mark.parametrize("workers", [1, 3])
def test_critique_prompt_is_built_as_from_the_unclipped_outcome(workers):
    # at this seed both a failed simulation and a failed synthesis are critiqued
    seed = 9
    provider = _CritiquingWorld(seed)
    sent: list[str] = []
    complete = provider.complete

    def recording(bundle):
        if bundle.purpose == "feedback":
            with provider.lock:
                sent.append(bundle.user_text)
        return complete(bundle)

    provider.complete = recording
    evaluator = _PaddedLogEvaluator()
    cfg = EvolutionConfig(
        population_size=5, offspring_count=5, max_generations=4,
        elite_per_metric=1, rng_seed=seed, max_parallel_evaluations=workers,
    )
    result = EvolutionEngine(SPEC, cfg, provider, evaluator).run()

    created = list(result.history[0].population)
    created += [ind for record in result.history[1:] for ind in record.offspring]
    evaluated = [ind for ind in created if ind.code != PLACEHOLDER_CODE]
    assert all(len(ind.outcome.sim_log) <= LOG_CLIP_CHARS for ind in evaluated)
    # each design's code is unique, so a prompt names the individual it critiques
    critiqued = [ind for ind in evaluated if f"Design code:\n{ind.code}\n\n" in "".join(sent)]
    assert len(critiqued) == len(sent) > 0
    unclipped = sorted(
        _feedback_prompt(dataclasses.replace(ind, outcome=evaluator.outcomes[ind.id]), SPEC)
        for ind in critiqued
    )
    assert sorted(sent) == unclipped
    assert any("Simulation log (tail):" in text for text in sent)
    assert any("synthesis produced no usable PPA report" in text for text in sent)
