"""Property tests of the search's invariants over generated inputs:
offspring quotas, parent selection, survivor selection, bandit rewards,
bandit scores frozen within a generation, the rules for on-demand
critiques, the found-correct verdict, the history read back as written,
the clipping of stored logs and the config snapshot's round trip."""
from __future__ import annotations

import dataclasses
import json
import random
import statistics
import tempfile
import threading
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rtlevo.evaluate as evaluate_module
from rtlevo.bandit import BanditState, record_reward
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
    _feedback_prompt,
    _log_tail,
    clip_log,
)
from rtlevo.evolution import (
    PLACEHOLDER_CODE,
    EvolutionConfig,
    EvolutionEngine,
    offspring_quota,
    roulette_weights,
    select_parents,
    survivor_select,
)
from rtlevo.fitness import SYNTH_FAIL_FITNESS, FitnessWeights
from rtlevo.llm import CompletionResult, ProviderConfig, ScriptConfig
from rtlevo.model import CircuitKind, EvalOutcome, PpaMetrics, ProblemSpec, to_plain
from rtlevo.prompts import PromptStrategy
from rtlevo.reporting import GENERATIONS_FILE, append_generation, read_generations

from test_acceptance import SPEC, StochasticWorld, _fail, _oracle_survivors, _success
from test_evolution import JitteredProvider


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
    pop = [_success(i, f) for i, f in enumerate(fitnesses)]
    rng, reference = random.Random(seed), random.Random(seed)
    chosen = select_parents(pop, strategy, rng)
    assert chosen == _roulette_by_loop(pop, strategy.arity, reference)
    # one draw per parent on both sides
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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(2, 6),
    workers=st.sampled_from([1, 4]),
)
def test_bandit_scores_are_frozen_within_a_generation(seed, population, workers):
    written = []
    cfg = EvolutionConfig(
        population_size=population, offspring_count=population, max_generations=3,
        elite_per_metric=0, rng_seed=seed, max_parallel_evaluations=workers,
    )
    engine = EvolutionEngine(
        SPEC, cfg, _CritiquingWorld(seed), SyntheticEvaluator(),
        record_sink=lambda record: written.append(to_plain(record.bandit_states)),
    )
    history = engine.run().history
    # later generations selected from these states and left them as written
    assert [to_plain(record.bandit_states) for record in history] == written
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
    workers=st.sampled_from([1, 3]),
)
def test_bandit_states_replay_zero_one_rewards(seed, population, offspring, generations, workers):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=offspring, max_generations=generations,
        elite_per_metric=0, rng_seed=seed, max_parallel_evaluations=workers,
    )
    history = EvolutionEngine(SPEC, cfg, _CritiquingWorld(seed), SyntheticEvaluator()).run().history
    replayed = {
        label: BanditState.for_strategies(list(state.strategies))
        for label, state in history[0].bandit_states.items()
    }
    wins = {(label, name): 0 for label, state in replayed.items() for name in state.strategies}
    for record in history:
        for event in record.strategy_events:
            # a float, so the history writes 1.0 and 0.0
            assert type(event.reward) is float and event.reward in (0.0, 1.0)
            record_reward(replayed[event.label.value], event.strategy, event.reward)
            wins[event.label.value, event.strategy] += event.reward == 1.0
        assert record.bandit_states == replayed
    # so each arm's Q is its success rate
    for (label, name), won in wins.items():
        stats = replayed[label].strategies[name]
        if stats.pull_count:
            assert stats.q_value == pytest.approx(won / stats.pull_count, abs=1e-12)


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


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(1, 6),
    offspring=st.integers(1, 6),
    generations=st.integers(1, 4),
    elites=st.integers(0, 2),
    workers=st.sampled_from([1, 3]),
)
def test_history_reads_back_as_written_with_each_individual_once(
    seed, population, offspring, generations, elites, workers
):
    cfg = EvolutionConfig(
        population_size=population, offspring_count=offspring, max_generations=generations,
        elite_per_metric=min(elites, population // 3), rng_seed=seed,
        max_parallel_evaluations=workers,
    )
    provider = JitteredProvider(_CritiquingWorld(seed), f"{seed}/{workers}")
    with tempfile.TemporaryDirectory() as run_dir:
        path = Path(run_dir) / GENERATIONS_FILE
        engine = EvolutionEngine(
            SPEC, cfg, provider, SyntheticEvaluator(),
            record_sink=lambda record: append_generation(path, record),
        )
        history = engine.run().history
        assert read_generations(run_dir) == history
        text = path.read_text(encoding="utf-8")
    created = list(history[0].population)
    created += [ind for record in history[1:] for ind in record.offspring]
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


_POSITIVE = st.floats(min_value=1e-9, max_value=1e9)
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
            request_timeout=draw(_POSITIVE),
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
            per_stage_timeout=draw(_POSITIVE),
            workdir_root=draw(st.text()),
            pass_pattern=draw(st.sampled_from([DEFAULT_PASS_PATTERN, r"\bok\b"])),
            post_synth_command=draw(no_braces),
        )
    else:
        evaluator = SyntheticEvaluatorConfig()
    return RunConfig(
        problem, evolution, provider, evaluator,
        output_dir=draw(st.text()), keep_artifacts=draw(st.booleans()),
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
