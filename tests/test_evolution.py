"""Population mechanics and the generation loop."""
from __future__ import annotations

import dataclasses
import gc
import json
import logging
import os
import random
import signal
import sys
import threading
import time
import weakref

import pytest

from rtlevo.bandit import BanditState, record_reward, select_strategy
from rtlevo.evolution import (
    CALL_FAILED_CODE,
    CALL_FAILED_LOG,
    CALL_FAILED_THOUGHT,
    MAX_FAILED_SLOTS_IN_A_ROW,
    PLACEHOLDER_CODE,
    PLACEHOLDER_THOUGHT,
    EvolutionConfig,
    EvolutionEngine,
    _Critique,
    _Slot,
    offspring_quota,
    roulette_weights,
    select_parents,
    survivor_select,
)
from rtlevo.evaluate import SyntheticEvaluator, ToolEnvironmentError
from rtlevo.llm import ProviderError, ScriptedProvider, ScriptEntry
from rtlevo.model import NEG_INF, ConfigError, EvalOutcome, PopulationLabel, PpaMetrics, to_plain
from rtlevo.prompts import FAIL_STRATEGIES, SUCCESS_STRATEGIES, PromptStrategy, render_response
from rtlevo.reporting import GENERATIONS_FILE, HistoryWriter, append_generation, read_generations

from closed_world import ClosedWorld
from support import (
    SPEC,
    FailingDrafts,
    demo_script,
    derived_rewards,
    fail_ind,
    replay_rewards,
    reply,
    run_at_one_and_four_workers,
    success_ind,
)

# --- offspring quotas -------------------------------------------------------


def test_quota_proportional_split():
    assert offspring_quota(7, 3, 10) == (7, 3)
    assert offspring_quota(3, 7, 10) == (3, 7)


def test_quota_remainder_tie_goes_to_fail():
    assert offspring_quota(5, 5, 7) == (4, 3)
    assert offspring_quota(1, 1, 1) == (1, 0)


def test_quota_empty_side_takes_nothing():
    assert offspring_quota(0, 4, 10) == (0, 10)
    assert offspring_quota(4, 0, 10) == (10, 0)


# --- parent selection -------------------------------------------------------


def test_roulette_weights_shift():
    pop = [success_ind(1, 0.1), success_ind(2, 0.3)]
    w = roulette_weights(pop)
    assert w[0] == pytest.approx(1e-6)
    assert w[1] == pytest.approx(0.2 + 1e-6)


def test_fail_selection_is_uniform():
    pop = [fail_ind(i) for i in range(4)]
    rng = random.Random(31)
    counts = {i: 0 for i in range(4)}
    draws = 8000
    for _ in range(draws):
        chosen = select_parents(pop, PromptStrategy.FIX, rng)
        assert len(chosen) == 1
        counts[chosen[0].id] += 1
    for count in counts.values():
        assert abs(count / draws - 0.25) < 0.03


def test_success_selection_prefers_fitter():
    pop = [success_ind(1, 0.1), success_ind(2, 0.2), success_ind(3, 0.3)]
    rng = random.Random(32)
    counts = {1: 0, 2: 0, 3: 0}
    draws = 30000
    for _ in range(draws):
        counts[select_parents(pop, PromptStrategy.IMPROVE, rng)[0].id] += 1
    # shift transform gives weights ~[0, 0.1, 0.2]
    assert abs(counts[3] / draws - 2 / 3) < 0.02
    assert abs(counts[2] / draws - 1 / 3) < 0.02
    assert counts[1] / draws < 0.001


def test_success_selection_uniform_when_equal():
    pop = [success_ind(i, 0.5) for i in range(4)]
    rng = random.Random(33)
    counts = {i: 0 for i in range(4)}
    draws = 8000
    for _ in range(draws):
        counts[select_parents(pop, PromptStrategy.IMPROVE, rng)[0].id] += 1
    for count in counts.values():
        assert abs(count / draws - 0.25) < 0.03


def test_fusion_parents_always_distinct():
    pop = [success_ind(1, 0.2), success_ind(2, 0.9)]
    for trial in range(200):
        rng = random.Random(trial)
        chosen = select_parents(pop, PromptStrategy.FUSION, rng)
        assert len(chosen) == 2
        assert chosen[0].id != chosen[1].id


# --- survivor selection -----------------------------------------------------


def cfg_for(pop_size, elite=1, **overrides):
    fields = dict(
        population_size=pop_size,
        offspring_count=4,
        max_generations=3,
        elite_per_metric=elite,
        rng_seed=0,
    )
    fields.update(overrides)
    return EvolutionConfig(**fields)


def test_survivor_count_is_population_size():
    parents = [success_ind(i, 0.1 * i, PpaMetrics(1 + i, 10 + i, 1 + i)) for i in range(6)]
    offspring = [success_ind(10 + i, 0.05 * i, PpaMetrics(2, 20, 2), gen=1) for i in range(4)]
    out = survivor_select(parents, offspring, cfg_for(6))
    assert len(out) == 6


def test_low_fitness_metric_champion_survives():
    # parent 0 has the lowest power but the worst finite fitness
    champion = success_ind(0, 0.01, PpaMetrics(0.1, 500.0, 5.0))
    parents = [champion] + [
        success_ind(i, 0.2 + 0.1 * i, PpaMetrics(1.0 + i, 100.0, 1.0)) for i in range(1, 4)
    ]
    offspring = [success_ind(10 + i, 0.9, PpaMetrics(1.0, 100.0, 1.0), gen=1) for i in range(4)]
    out = survivor_select(parents, offspring, cfg_for(4))
    assert any(ind.id == champion.id for ind in out)


def test_offspring_never_become_elites():
    # the offspring has the single best power value but elites come from parents
    parents = [success_ind(i, 0.5, PpaMetrics(1.0 + i, 100.0, 1.0)) for i in range(4)]
    offspring = [success_ind(9, 0.001, PpaMetrics(0.001, 1.0, 0.001), gen=1)]
    out = survivor_select(parents, offspring, cfg_for(4, elite=1))
    # offspring id 9 only enters via fitness rank; with fitness 0.001 it loses
    assert all(ind.id != 9 for ind in out)


def test_triple_champion_occupies_one_slot():
    star = success_ind(0, 0.9, PpaMetrics(0.1, 1.0, 0.1))
    parents = [star] + [success_ind(i, 0.1 * i, PpaMetrics(2.0, 50.0, 2.0)) for i in range(1, 4)]
    offspring = [success_ind(10 + i, 0.5 + 0.01 * i, PpaMetrics(3, 60, 3), gen=1) for i in range(4)]
    out = survivor_select(parents, offspring, cfg_for(4))
    ids = [ind.id for ind in out]
    assert ids.count(star.id) == 1
    # vacated elite slots go back to the fitness pool, so all four offspring
    # with fitness ~0.5 beat the 0.1..0.3 parents
    assert sum(1 for i in ids if i >= 10) == 3


def test_no_elites_pure_rank():
    parents = [fail_ind(i) for i in range(3)]
    offspring = [success_ind(5, 0.4, gen=1), success_ind(6, 0.2, gen=1)]
    out = survivor_select(parents, offspring, cfg_for(3, elite=0))
    assert [ind.id for ind in out[:2]] == [5, 6]


# --- config validation ------------------------------------------------------


def test_evolution_config_validation_names_fields():
    for kwargs, field in (
        (dict(population_size=0), "population_size"),
        (dict(offspring_count=0), "offspring_count"),
        (dict(max_generations=0), "max_generations"),
        (dict(elite_per_metric=-1), "elite_per_metric"),
        (dict(population_size=5, elite_per_metric=2), "elite_per_metric"),
        (dict(exploration_c=-0.5), "exploration_c"),
        (dict(temperature=0.0), "temperature"),
        (dict(max_parallel_evaluations=0), "max_parallel_evaluations"),
    ):
        with pytest.raises(ConfigError) as err:
            EvolutionConfig(**kwargs)
        assert field in str(err.value)


# --- the generation loop ----------------------------------------------------


def demo_cfg(**overrides):
    fields = dict(
        population_size=4,
        offspring_count=4,
        max_generations=3,
        elite_per_metric=1,
        rng_seed=5,
    )
    fields.update(overrides)
    return EvolutionConfig(**fields)


def run_demo(**overrides):
    provider = ScriptedProvider(demo_script())
    return EvolutionEngine(SPEC, demo_cfg(**overrides), provider, SyntheticEvaluator()).run()


def test_run_shape_and_found_correct():
    result = run_demo()
    assert result.found_correct is True
    assert len(result.history) == 4  # generation 0 plus three iterations
    for record in result.history:
        assert len(record.population) == 4
        assert record.success_count == sum(ind.outcome.sim_passed for ind in record.population)
    assert len(result.history[0].offspring) == 0
    for record in result.history[1:]:
        assert len(record.offspring) == 4


def test_best_so_far_fitness_never_decreases():
    result = run_demo()
    last = float("-inf")
    for record in result.history:
        assert record.best_so_far is not None
        assert record.best_so_far.fitness >= last
        last = record.best_so_far.fitness


def test_ids_unique_and_contiguous():
    result = run_demo()
    seen = {ind.id for ind in result.history[0].population}
    for record in result.history[1:]:
        for child in record.offspring:
            assert child.id not in seen
            seen.add(child.id)
    assert seen == set(range(4 + 3 * 4))


def test_rewards_match_offspring_outcomes():
    history = run_demo(max_generations=4).history
    seen = set()
    for last, record in zip(history, history[1:]):
        # the engine credited, in slot order, the rewards the rule restates
        assert record.bandit_states == replay_rewards(last, record)
        seen.update((label, reward) for label, _, reward in derived_rewards(last, record))
    # each population's children both earned and missed a reward
    assert seen == {(label.value, reward) for label in PopulationLabel for reward in (0.0, 1.0)}


def test_each_population_draws_only_its_own_operators():
    operators = {PopulationLabel.FAIL: FAIL_STRATEGIES, PopulationLabel.SUCCESS: SUCCESS_STRATEGIES}
    provider = ScriptedProvider(demo_script())
    history = EvolutionEngine(
        SPEC, demo_cfg(max_generations=4), provider, SyntheticEvaluator()
    ).run().history
    for label, strategies in operators.items():
        assert list(history[0].bandit_states[label.value].strategies) == [
            s.value for s in strategies
        ]
    drawn = [
        (PopulationLabel(label), strategy)
        for last, record in zip(history, history[1:])
        for label, strategy, _ in derived_rewards(last, record)
    ]
    assert {label for label, _ in drawn} == set(operators)
    for label, strategy in drawn:
        assert PromptStrategy(strategy) in operators[label]


def test_bandit_pull_totals_cover_all_offspring():
    result = run_demo()
    pulls = 0
    for snapshot in result.history[-1].bandit_states.values():
        pulls += snapshot.total_pulls
    assert pulls == 3 * 4


def test_runs_are_deterministic():
    def materialize(result):
        return json.dumps([to_plain(r) for r in result.history], sort_keys=True)

    assert materialize(run_demo()) == materialize(run_demo())


def test_different_seed_changes_history():
    a = run_demo(rng_seed=5)
    b = run_demo(rng_seed=6)
    da = json.dumps([to_plain(r) for r in a.history], sort_keys=True)
    db = json.dumps([to_plain(r) for r in b.history], sort_keys=True)
    assert da != db


def test_all_fail_world_stays_honest():
    broken = reply("x", "module m; endmodule", bug=True)
    script = [
        ScriptEntry("strategy:initial", broken),
        ScriptEntry("purpose:", "never matched"),
    ]
    for name in ("fix", "simplify", "explore", "refactor", "improve", "fusion"):
        script.append(ScriptEntry(f"strategy:{name}", broken))
    script.append(ScriptEntry("purpose:feedback", "fb"))
    provider = ScriptedProvider(script)
    result = EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator()).run()
    assert result.found_correct is False
    assert result.best.fitness == NEG_INF
    for record in result.history:
        assert record.success_count == 0
    success_pulls = result.history[-1].bandit_states["success"].total_pulls
    assert success_pulls == 0


def test_parse_failure_becomes_placeholder_without_evaluation():
    class CountingEvaluator:
        def __init__(self):
            self.calls = 0
            self.inner = SyntheticEvaluator()

        def outcome_for(self, code, spec, individual_id=0):
            self.calls += 1
            return self.inner.outcome_for(code, spec, individual_id)

        def reference_ppa(self, code, spec):
            return self.inner.reference_ppa(code, spec)

    class RecordingProvider(ScriptedProvider):
        def complete(self, bundle):
            drafts[bundle.key] = bundle
            return super().complete(bundle)

    drafts = {}
    provider = RecordingProvider(
        [ScriptEntry("purpose:generate", "no fence anywhere in this text")]
    )
    evaluator = CountingEvaluator()
    engine = EvolutionEngine(SPEC, demo_cfg(), provider, evaluator)
    record = engine.initialize()
    # generation 1 drafts from placeholders, which carry feedback: no critique calls
    offspring = engine.run_generation().offspring
    assert evaluator.calls == 0
    for ind in [*record.population, *offspring]:
        assert ind.code == PLACEHOLDER_CODE
        assert ind.thought == PLACEHOLDER_THOUGHT
        assert ind.fitness == NEG_INF
        assert ind.feedback == (
            "The previous response was rejected: response contains no fenced "
            "code block. Reply with a '## Thought' section and exactly one "
            "fenced code block containing complete Verilog."
        )
        assert ind.outcome == EvalOutcome(
            sim_passed=False,
            synth_succeeded=False,
            ppa=None,
            sim_log="response parsing failed before simulation: "
            "response contains no fenced code block",
        )
    population_ids = {ind.id for ind in record.population}
    for j, ind in enumerate(offspring):
        bundle = drafts[(1, j)]
        assert ind.id == demo_cfg().population_size + j
        assert ind.parent_ids == bundle.parent_ids
        assert ind.parent_ids and set(ind.parent_ids) <= population_ids
        assert ind.strategy == bundle.strategy.value
        assert ind.generation_born == 1


def test_fusion_infeasible_resamples_other_strategy():
    provider = ScriptedProvider(demo_script())
    engine = EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator())
    frozen = BanditState.for_strategies([s.value for s in SUCCESS_STRATEGIES])
    for strategy in SUCCESS_STRATEGIES:
        if strategy is not PromptStrategy.FUSION:
            record_reward(frozen, strategy.value, 0.0)
    only = success_ind(1, 0.3)
    for trial in range(20):
        rng = random.Random(trial)
        strategy, parents = engine._plan_slot([only], frozen, rng)
        assert strategy is not PromptStrategy.FUSION
        assert parents == [only]
        # a Success child is rewarded for beating its best parent's fitness
        slot = _Slot(9, (1, 0), PopulationLabel.SUCCESS, strategy, tuple(parents))
        assert engine._reward_for(slot, success_ind(2, 0.3)) == 0.0
        assert engine._reward_for(slot, success_ind(3, 0.31)) == 1.0


def test_plan_slot_selects_with_the_configured_constants():
    # the bandit state holds no constants: c and T come from the run's config
    cfg = demo_cfg(exploration_c=0.3, temperature=0.05)
    engine = EvolutionEngine(SPEC, cfg, ScriptedProvider(demo_script()), SyntheticEvaluator())
    frozen = BanditState.for_strategies([s.value for s in SUCCESS_STRATEGIES])
    for n, strategy in enumerate(SUCCESS_STRATEGIES):
        for k in range(n + 1):
            record_reward(frozen, strategy.value, float(k % 2))
    subpop = [success_ind(1, 0.3), success_ind(2, 0.4)]
    picks, default_picks = [], []
    for trial in range(50):
        strategy, _ = engine._plan_slot(subpop, frozen, random.Random(trial))
        picks.append(strategy.value)
        assert strategy.value == select_strategy(frozen, random.Random(trial), 0.3, 0.05)
        default_picks.append(select_strategy(frozen, random.Random(trial), 2.0, 1.0))
    assert picks != default_picks


def test_record_sink_streams_records():
    seen = []
    provider = ScriptedProvider(demo_script())
    engine = EvolutionEngine(
        SPEC, demo_cfg(), provider, SyntheticEvaluator(), record_sink=seen.append
    )
    engine.run()
    assert [r.generation_index for r in seen] == [0, 1, 2, 3]


@pytest.mark.scheduling
@pytest.mark.parametrize("jitter_seed", range(6))
def test_concurrent_slots_replay_sequential_history_under_jitter(jitter_seed):
    # slots draft and evaluate concurrently; a scripted reply is a function
    # of its call and a synthetic verdict of its design, so the order in
    # which they arrive does not matter
    run_at_one_and_four_workers(
        demo_cfg(), lambda: ScriptedProvider(demo_script()), jitter_seed=jitter_seed
    )


class SlowEvaluations:
    """SyntheticEvaluator verdicts, each after a sleep of 0-5 ms drawn from
    the individual's id: ten times the harness's jitter, so that an
    evaluation outlasts the draft calls of later slots, the lanes draft
    ahead of it, and evaluations of concurrent slots finish out of order."""

    def __init__(self):
        self.inner = SyntheticEvaluator()

    def outcome_for(self, code, spec, individual_id=0):
        time.sleep(random.Random(f"evaluation/{individual_id}").uniform(0.0, 0.005))
        return self.inner.outcome_for(code, spec, individual_id)

    def reference_ppa(self, code, spec):
        return self.inner.reference_ppa(code, spec)


@pytest.mark.scheduling
@pytest.mark.parametrize("jitter_seed", range(6))
def test_pipelined_slots_replay_sequential_history_under_evaluation_jitter(jitter_seed):
    # each slot hands its draft to an evaluation and takes the next slot;
    # results still join in slot order, whichever evaluation ends first
    run_at_one_and_four_workers(
        demo_cfg(), lambda: ScriptedProvider(demo_script()), SlowEvaluations,
        jitter_seed=jitter_seed,
    )


class OverlapCounter:
    """Counts draft calls in flight. With `hold`, the first draft call waits
    (up to a timeout) for a second one to arrive, so overlap is observed
    whenever the engine allows it, without depending on timing."""

    def __init__(self, inner, hold):
        self.inner = inner
        self.hold = hold
        self.in_flight = 0
        self.peak = 0
        self.cond = threading.Condition()

    def complete(self, bundle):
        if bundle.purpose != "generate":
            return self.inner.complete(bundle)
        with self.cond:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.cond.notify_all()
            if self.hold:
                self.hold = False
                self.cond.wait_for(lambda: self.peak >= 2, timeout=10)
        try:
            return self.inner.complete(bundle)
        finally:
            with self.cond:
                self.in_flight -= 1


@pytest.mark.scheduling
def test_failed_slot_aborts_concurrent_generation():
    script = [
        ScriptEntry("call:0/0", reply("seed a", "module add2; endmodule", (0.9, 95, 1.0))),
        ScriptEntry("purpose:feedback", "fb"),
    ]
    engine = EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=3), ScriptedProvider(script), SyntheticEvaluator()
    )
    errors = []

    def initialize():
        try:
            engine.initialize()
        except ProviderError as exc:
            errors.append(exc.kind)

    runner = threading.Thread(target=initialize)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert errors == ["unmatched"]
    assert engine.history == []


class FailingFirstCritique:
    """Raises on generation 1's first call, a critique, without passing it
    on, and records the kind of every ProviderError the inner provider raises."""

    def __init__(self, inner):
        self.inner = inner
        self.script_errors = []

    def complete(self, bundle):
        if bundle.key == (1, 0):
            assert bundle.purpose == "feedback"
            time.sleep(0.3)
            raise RuntimeError("critique failed")
        try:
            return self.inner.complete(bundle)
        except ProviderError as exc:
            self.script_errors.append(exc.kind)
            raise


@pytest.mark.scheduling
def test_keyed_call_whose_predecessor_never_comes_does_not_wait():
    provider = FailingFirstCritique(ScriptedProvider(demo_script()))
    engine = EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=2), provider, SyntheticEvaluator()
    )
    errors = []

    def run():
        try:
            engine.run()
        except RuntimeError as exc:
            errors.append(str(exc))

    # slot 0's draft never comes; slot 1's calls, on the other lane, are
    # served without waiting for it
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=5)
    assert not runner.is_alive()
    assert errors == ["critique failed"]
    assert provider.script_errors == []


class FullDisk:
    """Fails every call with the OSError a transcript write to a full disk
    raises, which no critique falls back from, after a pause that lets the
    other worker start its slot. Records the key of every call."""

    def __init__(self):
        self.keys = []
        self.lock = threading.Lock()

    def complete(self, bundle):
        with self.lock:
            self.keys.append(bundle.key)
        time.sleep(0.3)
        raise OSError(28, "No space left on device")


@pytest.mark.scheduling
def test_failed_critique_is_asked_once_and_fails_every_slot_that_needs_it():
    provider = FullDisk()
    engine = EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=2), provider, SyntheticEvaluator()
    )
    first, second = success_ind(0, 0.2), success_ind(1, 0.3)
    # both slots need the first parent's critique, and whichever asks for it
    # first, the other waits on that call
    critiques = {0: _Critique(first, (1, 0)), 1: _Critique(second, (1, 2))}
    slots = [
        _Slot(4, (1, 1), PopulationLabel.SUCCESS, PromptStrategy.IMPROVE, (first,)),
        _Slot(5, (1, 3), PopulationLabel.SUCCESS, PromptStrategy.FUSION, (first, second)),
    ]
    errors = []

    def run():
        try:
            engine._run_slots(slots, critiques)
        except OSError as exc:
            errors.append(exc.strerror)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=5)
    assert not runner.is_alive()
    assert errors == ["No space left on device"]
    # one call for the shared critique, and none for the critique after it
    assert provider.keys == [(1, 0)]
    assert isinstance(critiques[0].result, OSError)
    assert critiques[1].result is None
    assert not any(shared.lock.locked() for shared in critiques.values())


class InterruptAtThirdCall:
    """Sleeps 50 ms in every call, and at the third sends this process the
    SIGINT that Ctrl-C sends. Counts the calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, bundle):
        with self.lock:
            self.calls += 1
            if self.calls == 3:
                os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.05)
        return self.inner.complete(bundle)


@pytest.mark.scheduling
@pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX SIGINT")
def test_ctrl_c_starts_no_further_slot_of_a_concurrent_generation():
    provider = InterruptAtThirdCall(ScriptedProvider(demo_script()))
    engine = EvolutionEngine(
        SPEC,
        demo_cfg(population_size=16, max_parallel_evaluations=2),
        provider,
        SyntheticEvaluator(),
    )
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            engine.initialize()
    finally:
        signal.signal(signal.SIGINT, handler)
    # time for every queued draft to run, had any been left running
    time.sleep(16 * 0.05)
    # the calls in flight at the interrupt and none after them
    assert provider.calls <= 4


@pytest.mark.scheduling
@pytest.mark.parametrize("workers", [1, 2])
def test_slot_drafts_overlap_up_to_the_worker_bound(workers):
    provider = OverlapCounter(ScriptedProvider(demo_script()), hold=workers > 1)
    EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=workers), provider, SyntheticEvaluator()
    ).run()
    assert provider.peak == workers


class PipelineProbe:
    """Provider and evaluator at once: counts draft calls and evaluations in
    flight, the most drafts seen in flight beside an evaluation, and the
    threads evaluations ran on.

    With `hold` = k, overlap is observed whenever the engine allows it,
    without depending on timing: every draft but generation 0's first waits
    (up to a timeout) for a release, and the first evaluation gives it once
    k drafts of later slots are in flight."""

    def __init__(self, hold=0):
        self.provider = ScriptedProvider(demo_script())
        self.evaluator = SyntheticEvaluator()
        self.hold = hold
        self.released = not hold
        self.cond = threading.Condition()
        self.drafts = self.evaluations = 0
        self.peak_drafts = self.peak_evaluations = 0
        self.overlap = 0
        self.evaluation_threads = set()

    def _count(self):
        self.peak_drafts = max(self.peak_drafts, self.drafts)
        self.peak_evaluations = max(self.peak_evaluations, self.evaluations)
        if self.evaluations:
            self.overlap = max(self.overlap, self.drafts)
        self.cond.notify_all()

    def complete(self, bundle):
        if bundle.purpose != "generate":
            return self.provider.complete(bundle)
        with self.cond:
            self.drafts += 1
            self._count()
            if bundle.key != (0, 0):
                self.cond.wait_for(lambda: self.released, timeout=10)
        try:
            return self.provider.complete(bundle)
        finally:
            with self.cond:
                self.drafts -= 1

    def outcome_for(self, code, spec, individual_id=0):
        with self.cond:
            self.evaluations += 1
            self.evaluation_threads.add(threading.get_ident())
            self._count()
            if not self.released:
                self.cond.wait_for(lambda: self.drafts >= self.hold, timeout=10)
                self._count()
                self.released = True
        try:
            return self.evaluator.outcome_for(code, spec, individual_id)
        finally:
            with self.cond:
                self.evaluations -= 1

    def reference_ppa(self, code, spec):
        return self.evaluator.reference_ppa(code, spec)


@pytest.mark.scheduling
@pytest.mark.parametrize("workers", [2, 3])
def test_drafts_overlap_evaluations_within_the_worker_bound(workers):
    probe = PipelineProbe(hold=workers)
    EvolutionEngine(SPEC, demo_cfg(max_parallel_evaluations=workers), probe, probe).run()
    # k drafts in flight beside an evaluation: the lane that handed slot 0
    # off drafts again at once
    assert probe.overlap == workers
    assert probe.peak_drafts <= workers
    assert 1 <= probe.peak_evaluations <= workers


def test_one_worker_evaluates_inline_without_overlap():
    probe = PipelineProbe()
    EvolutionEngine(SPEC, demo_cfg(max_parallel_evaluations=1), probe, probe).run()
    assert probe.evaluation_threads == {threading.get_ident()}
    assert probe.overlap == 0
    assert probe.peak_drafts == probe.peak_evaluations == 1


class PaddedLogs:
    """SyntheticEvaluator verdicts with each log padded to about 12 KB, as a
    real simulator's and synthesizer's output would be. Each log ends in a
    line that names it and its individual."""

    def __init__(self):
        self.inner = SyntheticEvaluator()

    def outcome_for(self, code, spec, individual_id=0):
        base = self.inner.outcome_for(code, spec, individual_id)
        body = "cycle ok\n" * 1400
        return dataclasses.replace(
            base,
            sim_log=f"{base.sim_log}\n{body}[end of sim log {individual_id}]",
            synth_log=f"{base.synth_log}\n{body}[end of synth log {individual_id}]",
        )

    def reference_ppa(self, code, spec):
        return self.inner.reference_ppa(code, spec)


def test_history_keeps_only_the_log_tails_a_critique_quotes(tmp_path):
    # generation 0: two passes with PPA, one without, and one failure
    script = [ScriptEntry("call:0/2", reply("seed c", "module add2; endmodule"))] + demo_script()
    path = tmp_path / GENERATIONS_FILE
    with HistoryWriter(path) as writer:
        EvolutionEngine(
            SPEC, demo_cfg(), ScriptedProvider(script), PaddedLogs(),
            record_sink=lambda record: append_generation(writer, record),
        ).run()
    text = path.read_text(encoding="utf-8")
    history = read_generations(tmp_path)
    created = list(history[0].population) + [ind for r in history[1:] for ind in r.offspring]
    kinds = set()
    for ind in created:
        outcome = ind.outcome
        kind = "sim" if not outcome.sim_passed else "synth" if outcome.ppa is None else None
        kinds.add(kind)
        for log in ("sim", "synth"):
            tail = f"[end of {log} log {ind.id}]"
            assert (tail in text) == (log == kind), (ind.id, log, kind)
            assert getattr(outcome, f"{log}_log").endswith(tail) == (log == kind)
            # a log that no critique of its outcome quotes is not stored
            assert (getattr(outcome, f"{log}_log") == "") == (log != kind)
    assert kinds == {"sim", "synth", None}


class FailingEvaluation:
    """Raises ToolEnvironmentError for one individual once another
    evaluation is in flight (or after a timeout); every other evaluation
    takes a while. Counts evaluations in flight."""

    def __init__(self, failing_id):
        self.inner = SyntheticEvaluator()
        self.failing_id = failing_id
        self.cond = threading.Condition()
        self.in_flight = 0

    def outcome_for(self, code, spec, individual_id=0):
        with self.cond:
            self.in_flight += 1
            self.cond.notify_all()
        try:
            if individual_id == self.failing_id:
                with self.cond:
                    self.cond.wait_for(lambda: self.in_flight >= 2, timeout=10)
                raise ToolEnvironmentError("synthesizer vanished")
            time.sleep(0.2)
            return self.inner.outcome_for(code, spec, individual_id)
        finally:
            with self.cond:
                self.in_flight -= 1

    def reference_ppa(self, code, spec):
        return self.inner.reference_ppa(code, spec)


@pytest.mark.scheduling
def test_failed_evaluation_aborts_after_every_stage_has_finished():
    cfg = demo_cfg(max_parallel_evaluations=2)
    # the second offspring of generation 1
    evaluator = FailingEvaluation(failing_id=cfg.population_size + 1)
    seen = []
    engine = EvolutionEngine(
        SPEC, cfg, ScriptedProvider(demo_script()), evaluator, record_sink=seen.append
    )
    errors = []

    def run():
        try:
            engine.run()
        except ToolEnvironmentError as exc:
            errors.append((str(exc), evaluator.in_flight))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    # nothing was left running under the caller's cleanup
    assert errors == [("synthesizer vanished", 0)]
    assert [r.generation_index for r in seen] == [0]
    assert len(engine.history) == 1


# --- critiques on demand ----------------------------------------------------


# the keys of a demo_cfg() run's critique calls, in key order
CRITIQUE_KEYS = ((1, 0), (1, 2), (1, 4), (1, 6), (2, 0), (2, 3), (3, 0), (3, 4))


def per_critique_script():
    """demo_script with its feedback entry replaced by one `call:G/N` entry
    per critique of a demo_cfg() run, so each critique gets a distinct
    reply; a feedback bundle never matches a `strategy:` entry, so these
    entries, placed after them, catch only critiques."""
    script = [e for e in demo_script() if e.match != "purpose:feedback"]
    return script + [
        ScriptEntry(f"call:{g}/{n}", f"critique {i}") for i, (g, n) in enumerate(CRITIQUE_KEYS)
    ]


@pytest.mark.scheduling
@pytest.mark.parametrize("jitter_seed", range(3))
def test_one_shot_feedback_entries_replay_at_any_worker_count(jitter_seed):
    # a slot left waiting on a critique would hang the run, which the
    # harness fails after RUN_TIMEOUT
    one, _ = run_at_one_and_four_workers(
        demo_cfg(), lambda: ScriptedProvider(per_critique_script()), jitter_seed=jitter_seed
    )
    assert b"critique " in one.written


class CallLog:
    """Records every bundle sent to the inner provider, in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.bundles = []
        self.lock = threading.Lock()

    def complete(self, bundle):
        with self.lock:
            self.bundles.append(bundle)
        return self.inner.complete(bundle)


@pytest.mark.scheduling
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("jitter_seed", range(3))
def test_every_call_key_reaches_the_provider_once_at_any_worker_count(workers, jitter_seed):
    one, four = run_at_one_and_four_workers(
        demo_cfg(), lambda: CallLog(ScriptedProvider(per_critique_script())),
        jitter_seed=jitter_seed, workers=workers,
    )
    keys = [bundle.key for bundle in four.provider.bundles]
    # a critique that slots of two workers need is still asked for once
    assert len(keys) == len(set(keys))
    assert set(keys) == {bundle.key for bundle in one.provider.bundles}
    assert set(CRITIQUE_KEYS) < set(keys)


def test_critique_only_for_parents_and_carried_into_child_prompt():
    provider = CallLog(ScriptedProvider(per_critique_script()))
    result = EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator()).run()
    critiques = [b for b in provider.bundles if b.purpose == "feedback"]
    history = result.history
    created = list(history[0].population) + [i for r in history[1:] for i in r.offspring]
    chosen = {pid for ind in created for pid in ind.parent_ids}
    evaluated_parents = chosen & {ind.id for ind in created if ind.code != PLACEHOLDER_CODE}
    assert len(critiques) == len(evaluated_parents) > 0
    # every reply parses, so critique n went to the n-th parent to be
    # chosen; every later prompt naming that parent carries it verbatim
    feedback_of = {}
    for bundle in provider.bundles:
        if bundle.purpose == "feedback":
            continue
        for pid in bundle.parent_ids:
            if pid not in feedback_of:
                feedback_of[pid] = f"critique {len(feedback_of)}"
            assert feedback_of[pid] in bundle.user_text
    for record in result.history:
        for ind in record.population:
            if ind.id in feedback_of:
                assert ind.feedback in (None, feedback_of[ind.id])
            elif ind.code != PLACEHOLDER_CODE:
                assert ind.feedback is None
    assert any(
        ind.feedback == feedback_of[ind.id]
        for record in result.history for ind in record.population if ind.id in feedback_of
    )


def test_calls_of_a_generation_are_keyed_in_slot_order():
    provider = CallLog(ScriptedProvider(demo_script()))
    EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator()).run()
    by_generation = {}
    for bundle in provider.bundles:
        assert bundle.key is not None
        by_generation.setdefault(bundle.key[0], []).append(bundle)
    assert sorted(by_generation) == [0, 1, 2, 3]
    for generation, bundles in by_generation.items():
        # one worker makes the calls in key order, with no gaps
        assert [b.key[1] for b in bundles] == list(range(len(bundles)))
        drafts = [b for b in bundles if b.purpose == "generate"]
        assert len(drafts) == 4
        # a slot's critiques come before its draft, so a generation ends on one
        assert bundles[-1].purpose == "generate"


def test_failed_critique_call_falls_back_to_outcome_summary():
    class FeedbackDown:
        """Fails every feedback call."""

        def __init__(self, inner):
            self.inner = inner

        def complete(self, bundle):
            if bundle.purpose == "feedback":
                raise ProviderError("transient", "endpoint is down")
            return self.inner.complete(bundle)

    provider = CallLog(FeedbackDown(ScriptedProvider(demo_script())))
    result = EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator()).run()
    assert len(result.history) == 4
    drafts = [b for b in provider.bundles if b.purpose == "generate" and b.parent_ids]
    assert drafts
    for bundle in drafts:
        # the fallback summaries of a failing and of a passing parent
        assert "Simulation failed. Log tail" in bundle.user_text or "PPA vs reference" in bundle.user_text


def test_logged_failures_keep_no_provider_alive(caplog):
    # an unparsable draft and failing critiques, logged under a handler that
    # keeps its records: an exception kept by a record would keep its
    # traceback, whose frames hold the engine and its provider
    script = [e for e in demo_script() if e.match not in ("strategy:initial", "purpose:feedback")]
    script.append(ScriptEntry("strategy:initial", "no fence here"))
    provider = ScriptedProvider(script)
    alive = weakref.ref(provider)
    with caplog.at_level(logging.WARNING):
        EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator()).run()
    assert "unusable response" in caplog.text
    assert "feedback call failed" in caplog.text
    del provider
    gc.collect()
    assert alive() is None


def test_fix_reply_repeating_a_placeholder_becomes_a_placeholder():
    class CountingEvaluator:
        def __init__(self):
            self.calls = 0

        def outcome_for(self, code, spec, individual_id=0):
            self.calls += 1
            return SyntheticEvaluator().outcome_for(code, spec, individual_id)

        def reference_ppa(self, code, spec):
            raise AssertionError("not used")

    # generation 0 is all placeholders; every operator then hands the
    # placeholder parent's own code back
    script = [ScriptEntry("strategy:initial", "no fence here")]
    script += [
        ScriptEntry(f"strategy:{s.value}", render_response("same", PLACEHOLDER_CODE))
        for s in PromptStrategy
    ]
    provider = CallLog(ScriptedProvider(script))
    evaluator = CountingEvaluator()
    result = EvolutionEngine(SPEC, demo_cfg(), provider, evaluator).run()
    assert evaluator.calls == 0
    assert all(b.purpose == "generate" for b in provider.bundles)
    assert PromptStrategy.FIX in {b.strategy for b in provider.bundles}
    for record in result.history[1:]:
        for child in record.offspring:
            assert child.code == PLACEHOLDER_CODE
            assert "declares no module" in child.feedback
            assert child.fitness == NEG_INF


# --- failed draft calls ------------------------------------------------------


class EvaluatedIds:
    """SyntheticEvaluator verdicts; keeps the id of every individual it evaluates."""

    def __init__(self):
        self.ids = []
        self.lock = threading.Lock()

    def outcome_for(self, code, spec, individual_id=0):
        with self.lock:
            self.ids.append(individual_id)
        return SyntheticEvaluator().outcome_for(code, spec, individual_id)

    def reference_ppa(self, code, spec):
        raise AssertionError("not used")


def _first_draft_key_of_generation_one(cfg):
    world = ClosedWorld(cfg.rng_seed)
    EvolutionEngine(SPEC, cfg, world, SyntheticEvaluator()).run()
    return min(bundle.key for bundle in world.drafts if bundle.key[0] == 1)


@pytest.mark.scheduling
@pytest.mark.parametrize("kind", ["transient", "protocol"])
def test_a_failed_draft_call_fails_only_its_slot_at_any_worker_count(kind):
    cfg = demo_cfg(population_size=5, offspring_count=5, max_generations=3)
    failing = _first_draft_key_of_generation_one(cfg)
    runs = run_at_one_and_four_workers(
        cfg,
        lambda: FailingDrafts(ClosedWorld(cfg.rng_seed), lambda key: key == failing, kind),
        EvaluatedIds,
    )
    history = runs[0].history
    assert len(history) == 4
    [(j, ind)] = [
        (j, ind) for j, ind in enumerate(history[1].offspring) if ind.code == CALL_FAILED_CODE
    ]
    # a placeholder, scored and unrewarded, that ran no tool stage
    assert ind.thought == CALL_FAILED_THOUGHT
    assert ind.fitness == NEG_INF
    assert ind.outcome.sim_log == CALL_FAILED_LOG + "endpoint is down"
    assert "The previous request failed: endpoint is down." in ind.feedback
    label, strategy, reward = list(derived_rewards(history[0], history[1]))[j]
    assert reward == 0.0
    # its operator still counts the pull
    assert history[1].bandit_states == replay_rewards(history[0], history[1])
    pulls = [record.bandit_states[label].strategies[strategy].pull_count for record in history[:2]]
    assert pulls[1] > pulls[0]
    for run in runs:
        assert ind.id not in run.evaluator.ids
        assert len(run.evaluator.ids) == 5 + 3 * 5 - 1


@pytest.mark.scheduling
@pytest.mark.parametrize("workers", [1, 4])
def test_an_auth_error_on_a_draft_ends_the_run(workers):
    provider = FailingDrafts(ClosedWorld(5), lambda key: key == (0, 2), "auth")
    engine = EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=workers), provider, SyntheticEvaluator()
    )
    with pytest.raises(ProviderError) as raised:
        engine.run()
    assert raised.value.kind == "auth"
    assert engine.history == []


@pytest.mark.scheduling
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize(
    "size, failing_generations, records",
    [
        # nine failed slots in a row, then drafts that arrive
        (MAX_FAILED_SLOTS_IN_A_ROW - 1, 1, None),
        (MAX_FAILED_SLOTS_IN_A_ROW, 1, 1),
        # a streak carries over from one generation to the next
        (MAX_FAILED_SLOTS_IN_A_ROW // 2, 2, 2),
    ],
)
def test_failed_slots_in_a_row_end_the_run_after_the_record_that_completes_them(
    workers, size, failing_generations, records
):
    cfg = demo_cfg(
        population_size=size, offspring_count=size, max_generations=3,
        max_parallel_evaluations=workers,
    )
    provider = FailingDrafts(ClosedWorld(5), lambda key: key[0] < failing_generations)
    engine = EvolutionEngine(SPEC, cfg, provider, SyntheticEvaluator())
    if records is None:
        assert len(engine.run().history) == 4
        return
    with pytest.raises(RuntimeError) as raised:
        engine.run()
    assert not isinstance(raised.value, ProviderError)
    assert len(engine.history) == records
    last = records * size - 1
    assert str(raised.value) == (
        f"{MAX_FAILED_SLOTS_IN_A_ROW} draft calls in a row failed, the last for "
        f"individual {last}: endpoint is down"
    )


@pytest.mark.scheduling
@pytest.mark.parametrize("workers", [1, 3])
def test_an_auth_error_on_a_critique_ends_the_run(workers):
    class CritiqueKeyRevoked:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, bundle):
            if bundle.purpose == "feedback":
                raise ProviderError("auth", "authentication rejected (HTTP 401)")
            return self.inner.complete(bundle)

    provider = CritiqueKeyRevoked(ScriptedProvider(demo_script()))
    engine = EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=workers), provider, SyntheticEvaluator()
    )
    with pytest.raises(ProviderError) as raised:
        engine.run()
    assert raised.value.kind == "auth"
    # generation 0 asks for no critique; generation 1's first one fails it
    assert len(engine.history) == 1
