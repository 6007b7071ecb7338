"""Property tests of the search's invariants over generated inputs:
offspring quotas, operator draws, parent selection, survivor selection, bandit rewards,
bandit scores frozen within a generation, the rules for on-demand
critiques, the found-correct verdict, scripted replies that do not
depend on call order, the history read back as written, the one log an
outcome stores and the config snapshot's round trip."""
from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import math
import random
import statistics
import threading

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rtlevo.bandit import (
    BanditState,
    StrategyStats,
    record_reward,
    select_strategy,
    softmax,
    ucb_score,
)
from rtlevo.config import RunConfig, load_config, snapshot_dict
from rtlevo.evaluate import (
    DEFAULT_PASS_PATTERN,
    DEFAULT_SIMULATOR_COMMAND,
    FEEDBACK_LOG_TAIL_CHARS,
    LOG_CLIP_CHARS,
    LOG_HEAD_CHARS,
    SyntheticEvaluator,
    SyntheticEvaluatorConfig,
    ToolchainConfig,
    critique_texts,
    _critiqued_log,
    _log_tail,
    clip_log,
    evaluate,
)
from rtlevo.evolution import (
    PLACEHOLDER_CODE,
    EvolutionConfig,
    RunResult,
    offspring_quota,
    roulette_weights,
    select_parents,
    survivor_select,
)
from rtlevo.fitness import SYNTH_FAIL_FITNESS, FitnessWeights
from rtlevo.llm import (
    ProviderConfig,
    ProviderError,
    ScriptConfig,
    ScriptedProvider,
    ScriptEntry,
)
from rtlevo.model import (
    MAX_WAIT_SECONDS,
    CircuitKind,
    EvalOutcome,
    Individual,
    PpaMetrics,
    ProblemSpec,
)
from rtlevo.prompts import FAIL_STRATEGIES, SUCCESS_STRATEGIES, PromptBundle, PromptStrategy

from closed_world import ClosedWorld
from support import (
    SPEC,
    FixedOutcome,
    derived_rewards,
    fail_ind,
    oracle_survivors,
    replay_rewards,
    run_at_one_and_four_workers,
    success_ind,
)

# the engine runs here compare one worker with four, and each rerun draws fresh examples
pytestmark = pytest.mark.scheduling


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


def _quota_by_largest_remainder(fail_count, success_count, offspring_count):
    """offspring_quota as it was computed before the rounded Fail share:
    both sides floored, and the one seat left to the larger remainder,
    Fail on a tie."""
    if fail_count == 0:
        return 0, offspring_count
    if success_count == 0:
        return offspring_count, 0
    total = fail_count + success_count
    exact_fail = offspring_count * fail_count / total
    exact_success = offspring_count * success_count / total
    quota_fail = math.floor(exact_fail)
    quota_success = math.floor(exact_success)
    if quota_fail + quota_success < offspring_count:
        if exact_fail - quota_fail >= exact_success - quota_success:
            quota_fail += 1
        else:
            quota_success += 1
    return quota_fail, quota_success


def test_quota_matches_largest_remainder_everywhere_up_to_sixty():
    for fail, success, budget in itertools.product(range(61), range(61), range(1, 61)):
        if fail + success:
            assert offspring_quota(fail, success, budget) == _quota_by_largest_remainder(
                fail, success, budget
            ), (fail, success, budget)


@given(
    fitnesses=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_fusion_parents_are_distinct(fitnesses, seed):
    # Fusion is a Success-only operator
    pop = [success_ind(i, f) for i, f in enumerate(fitnesses)]
    chosen = select_parents(pop, PromptStrategy.FUSION, random.Random(seed))
    assert len(chosen) == 2
    assert chosen[0].id != chosen[1].id


@given(
    size=st.integers(1, 12),
    strategy=st.sampled_from(FAIL_STRATEGIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_fail_parent_is_one_uniform_pick(size, strategy, seed):
    pop = [fail_ind(i) for i in range(size)]
    rng, reference = random.Random(seed), random.Random(seed)
    assert select_parents(pop, strategy, rng) == [pop[reference.randrange(len(pop))]]
    assert rng.getstate() == reference.getstate()


def _roulette_by_loop(subpop, arity, rng):
    """Roulette parents as select_parents drew them before it called
    `random.choices`: the first index whose left-to-right cumulative weight
    exceeds the draw. `choices` bisects the same sums, so the two agree
    where `sum` adds left to right, as it does up to CPython 3.11."""
    pool, weights = list(subpop), roulette_weights(subpop)
    chosen = []
    for _ in range(arity):
        target = rng.random() * sum(weights)
        acc = 0.0
        idx = len(weights) - 1
        for i, w in enumerate(weights):
            acc += w
            if target < acc:
                idx = i
                break
        chosen.append(pool.pop(idx))
        weights.pop(idx)
    return chosen


@given(
    fitnesses=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2, max_size=12),
    strategy=st.sampled_from([PromptStrategy.IMPROVE, PromptStrategy.FUSION]),
    seed=st.integers(0, 2**32 - 1),
)
def test_roulette_parents_match_the_cumulative_sum_loop(fitnesses, strategy, seed):
    pop = [success_ind(i, f) for i, f in enumerate(fitnesses)]
    rng, reference = random.Random(seed), random.Random(seed)
    chosen = select_parents(pop, strategy, rng)
    assert chosen == _roulette_by_loop(pop, strategy.arity, reference)
    # one draw per parent on both sides
    assert rng.getstate() == reference.getstate()


def _strategy_by_loop(state, rng, exploration_c, temperature, allowed=None):
    """select_strategy as it drew before it called `random.choices`: the
    first arm whose left-to-right cumulative softmax probability reaches
    the draw, the last arm when rounding leaves the draw above them all."""
    names = [n for n in state.strategies if allowed is None or n in allowed]
    untried = [n for n in names if state.strategies[n].pull_count == 0]
    if untried:
        return untried[rng.randrange(len(untried))]
    scores = [ucb_score(state.strategies[n], state.total_pulls, exploration_c) for n in names]
    draw = rng.random()
    cumulative = 0.0
    for name, p in zip(names, softmax(scores, temperature)):
        cumulative += p
        if draw <= cumulative:
            return name
    return names[-1]


_ARMS = [s.value for s in SUCCESS_STRATEGIES]


@given(
    stats=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(0, 40)), min_size=len(_ARMS), max_size=len(_ARMS)
    ),
    allowed=st.none() | st.sets(st.sampled_from(_ARMS), min_size=1).map(sorted),
    exploration_c=st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 10.0),
    temperature=st.just(math.inf) | st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_draw_matches_the_cumulative_sum_loop(
    stats, allowed, exploration_c, temperature, seed
):
    state = BanditState(
        {name: StrategyStats(q, pulls) for name, (q, pulls) in zip(_ARMS, stats)}
    )
    rng, reference = random.Random(seed), random.Random(seed)
    got = select_strategy(state, rng, exploration_c, temperature, allowed)
    assert got == _strategy_by_loop(state, reference, exploration_c, temperature, allowed)
    # one draw on both sides
    assert rng.getstate() == reference.getstate()


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
        return fail_ind(id, gen)
    if shape == "no_ppa":
        return success_ind(id, SYNTH_FAIL_FITNESS, None, gen)
    return success_ind(id, fitness, PpaMetrics(power, area, period), gen)


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
    want = oracle_survivors(parents, offspring, elite_n, pop_size)
    assert [i.id for i in got] == [i.id for i in want]


@given(
    pulls=st.lists(
        st.tuples(st.sampled_from(["fix", "explore"]), st.floats(-10.0, 10.0, allow_nan=False)),
        min_size=1,
        max_size=60,
    )
)
def test_incremental_reward_mean_equals_arithmetic_mean(pulls):
    state = BanditState.for_strategies(["fix", "explore", "improve"])
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


def _world(seed):
    """A closed world where about one draft in eight is unparsable."""
    return ClosedWorld(seed, p_malformed=0.125)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), population=st.integers(2, 6))
def test_only_chosen_parents_are_critiqued_once(seed, population):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=population, max_generations=4,
        elite_per_metric=0, rng_seed=seed,
    )
    for run in run_at_one_and_four_workers(cfg, lambda: _world(seed)):
        world, history = run.provider, run.history
        asked = [critique for record in history for critique in record.critiques]
        feedback_of = {critique.id: critique.feedback for critique in asked}
        # no individual is critiqued twice
        assert len(feedback_of) == len(asked) == len(world.critiques)
        created = list(history[0].population)
        created += [ind for record in history[1:] for ind in record.offspring]
        by_id = {ind.id: ind for ind in created}
        placeholders = {ind.id for ind in created if ind.code == PLACEHOLDER_CODE}
        chosen = {pid for bundle in world.drafts for pid in bundle.parent_ids}
        # exactly the evaluated individuals chosen as parents are critiqued
        assert set(feedback_of) == chosen - placeholders
        # every parent in a draft prompt carries non-empty feedback
        for bundle in world.drafts:
            for pid in bundle.parent_ids:
                text = feedback_of.get(pid) or by_id[pid].feedback
                assert text and text.strip()
                assert text in bundle.user_text
        # evaluated individuals never chosen keep no feedback
        for record in history:
            for ind in [*record.population, *record.offspring]:
                if ind.id not in chosen and ind.id not in placeholders:
                    assert ind.feedback is None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), population=st.integers(2, 6))
def test_bandit_scores_are_frozen_within_a_generation(seed, population):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=population, max_generations=3,
        elite_per_metric=0, rng_seed=seed,
    )
    # the harness also checks that later generations selected from the
    # states each record was written with and left them as written
    history = run_at_one_and_four_workers(cfg, lambda: _world(seed))[0].history
    for last, record in zip(history, history[1:]):
        passed = last.success_count
        quotas = offspring_quota(len(last.population) - passed, passed, cfg.offspring_count)
        for label, quota in zip(("fail", "success"), quotas):
            pulls = record.bandit_states[label].total_pulls
            assert pulls == last.bandit_states[label].total_pulls + quota


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(1, 6),
    offspring=st.integers(1, 6),
    generations=st.integers(1, 4),
)
def test_bandit_states_replay_zero_one_rewards(seed, population, offspring, generations):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=offspring, max_generations=generations,
        elite_per_metric=0, rng_seed=seed,
    )
    # both runs made this history, so each check holds at k = 1 and k = 4
    history = run_at_one_and_four_workers(cfg, lambda: _world(seed))[0].history
    for state in history[0].bandit_states.values():
        assert state.total_pulls == 0
    wins = collections.Counter()
    for last, record in zip(history, history[1:]):
        assert record.bandit_states == replay_rewards(last, record)
        for label, strategy, reward in derived_rewards(last, record):
            wins[label, strategy] += reward
    # so each arm's Q is its success rate
    for label, state in history[-1].bandit_states.items():
        for name, stats in state.strategies.items():
            if stats.pull_count:
                assert stats.q_value == pytest.approx(wins[label, name] / stats.pull_count, abs=1e-12)


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
    history = run_at_one_and_four_workers(
        cfg, lambda: ClosedWorld(seed, p_initial_fail, p_fix_repair)
    )[0].history
    created = list(history[0].population)
    created += [ind for record in history[1:] for ind in record.offspring]
    assert RunResult(history).found_correct == any(ind.outcome.sim_passed for ind in created)


_CALL_KEYS = st.tuples(st.integers(0, 2), st.integers(0, 4))
_TOPICS = ["an adder", "a counter", "a carry chain"]


@st.composite
def _script_entries(draw):
    matcher = st.one_of(
        _CALL_KEYS.map(lambda key: f"call:{key[0]}/{key[1]}"),
        st.sampled_from(["initial", *(s.value for s in PromptStrategy)]).map("strategy:{}".format),
        st.sampled_from(["generate", "feedback"]).map("purpose:{}".format),
        st.sampled_from([topic.split()[-1] for topic in _TOPICS]),
    )
    matches = draw(st.lists(matcher, min_size=1, max_size=8))
    return [ScriptEntry(match, f"reply {i}") for i, match in enumerate(matches)]


@st.composite
def _bundles(draw):
    strategy = None
    if draw(st.booleans()):
        purpose = "generate"
        strategy = draw(st.none() | st.sampled_from(list(PromptStrategy)))
    else:
        purpose = "feedback"
    return PromptBundle(
        user_text=f"design {draw(st.sampled_from(_TOPICS))}",
        key=draw(_CALL_KEYS),
        strategy=strategy,
        parent_ids=tuple(range(strategy.arity if strategy else 0)),
        purpose=purpose,
    )


@settings(max_examples=50, deadline=None)
@given(
    entries=_script_entries(),
    bundles=st.lists(_bundles(), min_size=1, max_size=12),
    order=st.randoms(use_true_random=False),
)
# an entry that one call could use up would give the second pass another reply
@example(
    entries=[ScriptEntry("purpose:generate", "reply 0"), ScriptEntry("adder", "reply 1")],
    bundles=[PromptBundle("design an adder", (0, 0))],
    order=random.Random(0),
)
def test_scripted_replies_do_not_depend_on_call_order(entries, bundles, order):
    provider = ScriptedProvider(entries)

    def reply(bundle):
        try:
            return provider.complete(bundle).text
        except ProviderError as exc:
            return exc.kind

    in_order = [reply(bundle) for bundle in bundles]
    # the same provider again, each call on its own thread, started shuffled
    got = [None] * len(bundles)

    def call(i):
        got[i] = reply(bundles[i])

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(bundles))]
    order.shuffle(threads)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert got == in_order


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(1, 6),
    offspring=st.integers(1, 6),
    generations=st.integers(1, 4),
    elites=st.integers(0, 2),
)
def test_history_reads_back_as_written_with_each_individual_once(
    seed, population, offspring, generations, elites
):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=offspring, max_generations=generations,
        elite_per_metric=min(elites, population // 3), rng_seed=seed,
    )
    # the harness reads each run's history back and compares it
    one, _ = run_at_one_and_four_workers(cfg, lambda: _world(seed))
    text = one.written.decode("utf-8")
    created = list(one.history[0].population)
    created += [ind for record in one.history[1:] for ind in record.offspring]
    # a code string is written once per individual that has it: placeholders
    # share theirs, every other draft is unique
    for code in {ind.code for ind in created}:
        holders = sum(ind.code == code for ind in created)
        assert text.count(f'"code": {json.dumps(code)}') == holders


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


@given(
    sim_passed=st.booleans(),
    synth_succeeded=st.booleans(),
    ppa=st.sampled_from([None, PpaMetrics(power=0.8, area=90.0, effective_clock_period=1.0)]),
    post_synth=st.sampled_from([None, True, False]),
    sim_log=_logs(),
    synth_log=_logs(),
)
# whitespace-only logs, one long and one short
@example(False, False, None, None, " \n" * 4000, " ")
@example(True, True, None, False, "\t", "\n" * 6000)
def test_an_outcome_stores_only_the_log_its_critique_quotes(
    sim_passed, synth_succeeded, ppa, post_synth, sim_log, synth_log
):
    outcome = EvalOutcome(
        sim_passed, synth_succeeded or ppa is not None, ppa,
        sim_log=sim_log, synth_log=synth_log, post_synth_functional=post_synth,
    )
    ind = Individual(id=1, thought="t", code="module add2; endmodule")
    done = evaluate(ind, SPEC, FixedOutcome(outcome), FitnessWeights(0.5, 0.5, 0.0))
    quoted = _critiqued_log(outcome)
    for name in ("sim_log", "synth_log"):
        stored = clip_log(getattr(outcome, name)) if name == quoted else ""
        assert getattr(done.outcome, name) == stored
    assert dataclasses.replace(done.outcome, sim_log=sim_log, synth_log=synth_log) == outcome
    # the prompt and the stand-in read as from the whole outcome
    whole = dataclasses.replace(done, outcome=outcome)
    assert critique_texts(done, SPEC) == critique_texts(whole, SPEC)


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

    def reference_ppa(self, code, spec):
        return self.inner.reference_ppa(code, spec)


@pytest.mark.parametrize("workers", [1, 3])
def test_critique_prompt_is_built_as_from_the_unclipped_outcome(workers):
    # at this seed both a failed simulation and a failed synthesis are critiqued
    seed = 9
    cfg = EvolutionConfig(
        population_size=5, offspring_count=5, max_generations=4, elite_per_metric=1, rng_seed=seed
    )
    runs = run_at_one_and_four_workers(
        cfg, lambda: _world(seed), _PaddedLogEvaluator, workers=workers
    )
    for run in runs:
        sent = [bundle.user_text for bundle in run.provider.critiques]
        created = list(run.history[0].population)
        created += [ind for record in run.history[1:] for ind in record.offspring]
        evaluated = [ind for ind in created if ind.code != PLACEHOLDER_CODE]
        assert all(len(ind.outcome.sim_log) <= LOG_CLIP_CHARS for ind in evaluated)
        # each design's code is unique, so a prompt names the individual it critiques
        critiqued = [ind for ind in evaluated if f"Design code:\n{ind.code}\n\n" in "".join(sent)]
        assert len(critiqued) == len(sent) > 0
        outcomes = run.evaluator.outcomes
        unclipped = sorted(
            critique_texts(dataclasses.replace(ind, outcome=outcomes[ind.id]), SPEC)[0]
            for ind in critiqued
        )
        assert sorted(sent) == unclipped
        assert any("Simulation log (tail):" in text for text in sent)
        assert any("synthesis produced no usable PPA report" in text for text in sent)


_POSITIVE = st.floats(min_value=1e-9, max_value=1e9)
_TIMEOUT = st.floats(min_value=0.0, max_value=MAX_WAIT_SECONDS, exclude_min=True)
_UNIT = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def _run_configs(draw, directory, provider_kind, evaluator_kind):
    """A RunConfig of the given kinds, with every field drawn within its
    range; its paths are absolute, as loading makes them."""
    problem = ProblemSpec(
        name=draw(st.text()),
        description=draw(st.text(min_size=1).filter(str.strip)),
        testbench=draw(st.text()),
        circuit_kind=draw(st.sampled_from(CircuitKind)),
        target_clock_period=draw(_POSITIVE),
        reference_ppa=PpaMetrics(draw(_POSITIVE), draw(_POSITIVE), draw(_POSITIVE)),
    )
    population = draw(st.integers(1, 60))
    weights = st.builds(FitnessWeights, _UNIT, _UNIT, st.floats(0.0, 1.0))
    evolution = EvolutionConfig(
        population_size=population,
        offspring_count=draw(st.integers(1, 60)),
        max_generations=draw(st.integers(1, 100)),
        elite_per_metric=draw(st.integers(0, population // 3)),
        exploration_c=draw(st.floats(0.0, 1e3)),
        temperature=draw(_POSITIVE),
        rng_seed=draw(st.integers(0, 2**63)),
        weights=draw(st.none() | weights),
        max_parallel_evaluations=draw(st.integers(1, 16)),
    )
    if provider_kind == "http":
        provider = ProviderConfig(
            endpoint_url=draw(
                st.from_regex(r"https?://[a-z0-9.-]+(:[0-9]{1,4})?(/[!-~]*)?", fullmatch=True)
            ),
            model_name=draw(st.text()),
            api_key_env_var=draw(st.text()),
            temperature=draw(st.floats(0.0, 2.0)),
            top_p=draw(_UNIT),
            max_retries=draw(st.integers(0, 10)),
            request_timeout=draw(_TIMEOUT),
            max_parallel_requests=draw(st.integers(1, 16)),
        )
    else:
        provider = ScriptConfig(str(directory / "script.yaml"))
    if evaluator_kind == "toolchain":
        no_braces = st.text().map(lambda text: text.replace("{", "").replace("}", ""))
        evaluator = ToolchainConfig(
            simulator_command=draw(st.sampled_from([DEFAULT_SIMULATOR_COMMAND, "echo {code_file}"])),
            synthesizer_command=draw(no_braces),
            liberty_path=draw(st.sampled_from(["", str(directory / "cells.lib")])),
            per_stage_timeout=draw(_TIMEOUT),
            workdir_root=draw(st.text()),
            pass_pattern=draw(st.sampled_from([DEFAULT_PASS_PATTERN, r"\bok\b"])),
            post_synth_command=draw(no_braces),
        )
    else:
        evaluator = SyntheticEvaluatorConfig()
    return RunConfig(
        problem, evolution, provider, evaluator,
        output_dir=draw(st.text()),
    )


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("snapshots")
    (directory / "script.yaml").write_text("- {match: x, response: y}\n", encoding="utf-8")
    return directory


@pytest.mark.parametrize("evaluator_kind", ["toolchain", "synthetic"])
@pytest.mark.parametrize("provider_kind", ["http", "scripted"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_written_snapshot_loads_into_the_same_config(config_dir, data, provider_kind, evaluator_kind):
    cfg = data.draw(_run_configs(config_dir, provider_kind, evaluator_kind))
    path = config_dir / "config_snapshot.yaml"
    path.write_text(yaml.safe_dump(snapshot_dict(cfg), sort_keys=True), encoding="utf-8")
    assert snapshot_dict(load_config(path)) == snapshot_dict(cfg)
