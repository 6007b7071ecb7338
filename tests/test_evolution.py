"""Population mechanics and the generation loop."""
from __future__ import annotations

import json
import random
import sys
import threading
import time

import pytest

from rtlevo.bandit import BanditState, record_reward
from rtlevo.evolution import (
    PLACEHOLDER_CODE,
    PLACEHOLDER_THOUGHT,
    EvolutionConfig,
    EvolutionEngine,
    offspring_quota,
    roulette_weights,
    run_evolution,
    select_parents,
    survivor_select,
)
from rtlevo.evaluate import SyntheticEvaluator
from rtlevo.fitness import SYNTH_FAIL_FITNESS
from rtlevo.llm import ScriptedProvider, ScriptEntry, ScriptError
from rtlevo.model import (
    NEG_INF,
    CircuitKind,
    ConfigError,
    EvalOutcome,
    Individual,
    PopulationLabel,
    PpaMetrics,
    ProblemSpec,
)
from rtlevo.prompts import SUCCESS_STRATEGIES, PromptStrategy, render_response

REF = PpaMetrics(power=1.0, area=100.0, effective_clock_period=1.0)

SPEC = ProblemSpec(
    name="add2",
    functional_description="a two bit adder named add2 with carry out",
    testbench_source="",
    reference_ppa=REF,
    circuit_kind=CircuitKind.COMBINATIONAL,
    target_clock_period=0.01,
)


def fail_ind(id, gen=0):
    return Individual(
        id=id, thought="t", code=f"// broken {id}", feedback="fb",
        outcome=EvalOutcome(False, False, None, sim_log="failed"),
        fitness=NEG_INF, generation_born=gen,
    )


def success_ind(id, fitness, ppa=None, gen=0):
    return Individual(
        id=id, thought="t", code=f"// works {id}", feedback="fb",
        outcome=EvalOutcome(True, ppa is not None, ppa, sim_log="all tests passed"),
        fitness=fitness, generation_born=gen,
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


def test_quota_validation():
    with pytest.raises(ValueError):
        offspring_quota(0, 0, 10)
    with pytest.raises(ValueError):
        offspring_quota(-1, 2, 10)
    with pytest.raises(ValueError):
        offspring_quota(1, 1, 0)


def test_quota_property_seeded():
    rng = random.Random(202)
    for _ in range(500):
        fail = rng.randrange(0, 20)
        success = rng.randrange(0, 20)
        if fail + success == 0:
            continue
        budget = rng.randrange(1, 25)
        qf, qs = offspring_quota(fail, success, budget)
        assert qf >= 0 and qs >= 0
        assert qf + qs == budget
        if fail and success:
            exact = budget * fail / (fail + success)
            assert abs(qf - exact) < 1.0


# --- parent selection -------------------------------------------------------


def test_roulette_weights_shift():
    pop = [success_ind(1, 0.1), success_ind(2, 0.3)]
    w = roulette_weights(pop)
    assert w[0] == pytest.approx(1e-6)
    assert w[1] == pytest.approx(0.2 + 1e-6)


def test_roulette_weights_reject_non_finite():
    with pytest.raises(ValueError):
        roulette_weights([fail_ind(1)])


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


def test_select_parents_errors():
    with pytest.raises(ValueError):
        select_parents([], PromptStrategy.FIX, random.Random(0))
    with pytest.raises(ValueError):
        select_parents([success_ind(1, 0.5)], PromptStrategy.FUSION, random.Random(0))


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


def test_survivor_parent_count_checked():
    with pytest.raises(ValueError):
        survivor_select([fail_ind(1)], [], cfg_for(3, elite=0))


def oracle_survivors(parents, offspring, elite_n, pop_size):
    """Brute-force restatement: explicit pairwise minimum search."""

    def metric_key(ind, metric):
        return (getattr(ind.outcome.ppa, metric), -ind.fitness, ind.id)

    def rank_key(ind):
        return (-ind.fitness, -ind.generation_born, ind.id)

    elites = []
    if elite_n > 0:
        for metric in ("power", "area", "effective_clock_period"):
            pool = [p for p in parents if p.outcome is not None and p.outcome.ppa is not None]
            for _ in range(min(elite_n, len(pool))):
                best = pool[0]
                for cand in pool[1:]:
                    if metric_key(cand, metric) < metric_key(best, metric):
                        best = cand
                pool.remove(best)
                if best.id not in [e.id for e in elites]:
                    elites.append(best)
    taken = {e.id for e in elites}
    rest = [i for i in list(parents) + list(offspring) if i.id not in taken]
    ordered = []
    while rest:
        best = rest[0]
        for cand in rest[1:]:
            if rank_key(cand) < rank_key(best):
                best = cand
        ordered.append(best)
        rest.remove(best)
    return elites + ordered[: pop_size - len(elites)]


def test_survivors_match_brute_force_oracle():
    rng = random.Random(77)
    for trial in range(300):
        pop_size = rng.randrange(3, 9)
        elite_n = rng.randrange(0, pop_size // 3 + 1)
        next_id = 0

        def random_ind(gen):
            nonlocal next_id
            next_id += 1
            shape = rng.randrange(3)
            if shape == 0:
                return fail_ind(next_id, gen=gen)
            if shape == 1:
                return success_ind(next_id, SYNTH_FAIL_FITNESS, None, gen=gen)
            ppa = PpaMetrics(
                power=round(rng.uniform(0.1, 2.0), 1),
                area=round(rng.uniform(10, 200), 0),
                effective_clock_period=round(rng.uniform(0.1, 2.0), 1),
            )
            return success_ind(next_id, round(rng.uniform(-1, 1), 1), ppa, gen=gen)

        parents = [random_ind(rng.randrange(0, 3)) for _ in range(pop_size)]
        offspring = [random_ind(rng.randrange(1, 4)) for _ in range(rng.randrange(0, 8))]
        got = survivor_select(parents, offspring, cfg_for(pop_size, elite=elite_n))
        want = oracle_survivors(parents, offspring, elite_n, pop_size)
        assert [i.id for i in got] == [i.id for i in want], f"trial {trial}"


# --- config validation ------------------------------------------------------


def test_evolution_config_validation_names_fields():
    for kwargs, field in (
        (dict(population_size=0), "population_size"),
        (dict(offspring_count=0), "offspring_count"),
        (dict(max_generations=0), "max_generations"),
        (dict(elite_per_metric=-1), "elite_per_metric"),
        (dict(population_size=5, elite_per_metric=2), "elite_per_metric"),
        (dict(reward=float("nan")), "reward"),
        (dict(exploration_c=-0.5), "exploration_c"),
        (dict(temperature=0.0), "temperature"),
        (dict(max_parallel_evaluations=0), "max_parallel_evaluations"),
    ):
        with pytest.raises(ConfigError) as err:
            EvolutionConfig(**kwargs)
        assert field in str(err.value)


# --- the generation loop ----------------------------------------------------


def reply(thought, code, ppa=None, bug=False):
    body = code
    if bug:
        body += "\n// BUG"
    if ppa:
        power, area, period = ppa
        body += f"\n// PPA: power={power} area={area} period={period}"
    return render_response(thought, body)


def demo_script():
    """Small closed world: two seeds pass, the rest fail, operators have
    fixed outcomes so every run is predictable."""
    return [
        ScriptEntry("strategy:initial", reply("seed a", "module add2; endmodule", (0.9, 95, 1.0))),
        ScriptEntry("strategy:initial", reply("seed b", "module add2; endmodule", (0.95, 98, 1.0))),
        ScriptEntry("strategy:initial", reply("seed bad", "module add2; endmodule", bug=True), repeat=True),
        ScriptEntry("strategy:fix", reply("patch", "module add2; endmodule", (0.8, 90, 1.0)), repeat=True),
        ScriptEntry("strategy:simplify", reply("shrink", "module add2; endmodule", (0.7, 80, 1.0)), repeat=True),
        ScriptEntry("strategy:explore", reply("wild", "module add2; endmodule", bug=True), repeat=True),
        ScriptEntry("strategy:refactor", reply("rewrite", "module add2; endmodule", (1.2, 120, 1.0)), repeat=True),
        ScriptEntry("strategy:improve", reply("tune", "module add2; endmodule", (0.5, 50, 1.0)), repeat=True),
        ScriptEntry("strategy:fusion", reply("merge", "module add2; endmodule", (0.4, 40, 1.0)), repeat=True),
        ScriptEntry("purpose:feedback", "fb", repeat=True),
    ]


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
    return run_evolution(SPEC, demo_cfg(**overrides), provider, SyntheticEvaluator())


def test_run_shape_and_found_correct():
    result = run_demo()
    assert result.found_correct is True
    assert len(result.history) == 4  # generation 0 plus three iterations
    for record in result.history:
        assert len(record.population) == 4
        assert record.fail_count + record.success_count == 4
    assert len(result.history[0].offspring) == 0
    for record in result.history[1:]:
        assert len(record.offspring) == 4
        assert len(record.strategy_events) == 4


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
    result = run_demo(max_generations=4)
    cfg_reward = 1.0
    for g in range(1, len(result.history)):
        prev = {ind.id: ind for ind in result.history[g - 1].population}
        record = result.history[g]
        assert len(record.offspring) == len(record.strategy_events)
        for child, event in zip(record.offspring, record.strategy_events):
            assert event.strategy == child.strategy
            if event.label is PopulationLabel.FAIL:
                expected = cfg_reward if child.outcome.sim_passed else 0.0
            else:
                baseline = max(prev[pid].fitness for pid in child.parent_ids)
                expected = cfg_reward if child.fitness > baseline else 0.0
            assert event.reward == expected, (g, child.id, event.strategy)


def test_bandit_pull_totals_cover_all_offspring():
    result = run_demo()
    pulls = 0
    for snapshot in result.bandit_snapshots.values():
        pulls += snapshot["total_pulls"]
    assert pulls == 3 * 4


def test_runs_are_deterministic():
    def materialize(result):
        return json.dumps([r.to_dict() for r in result.history], sort_keys=True)

    assert materialize(run_demo()) == materialize(run_demo())


def test_different_seed_changes_history():
    a = run_demo(rng_seed=5)
    b = run_demo(rng_seed=6)
    da = json.dumps([r.to_dict() for r in a.history], sort_keys=True)
    db = json.dumps([r.to_dict() for r in b.history], sort_keys=True)
    assert da != db


def test_all_fail_world_stays_honest():
    script = [
        ScriptEntry("strategy:initial", reply("x", "m", bug=True), repeat=True),
        ScriptEntry("purpose:", "never matched"),
    ]
    for name in ("fix", "simplify", "explore", "refactor", "improve", "fusion"):
        script.append(ScriptEntry(f"strategy:{name}", reply("x", "m", bug=True), repeat=True))
    script.append(ScriptEntry("purpose:feedback", "fb", repeat=True))
    provider = ScriptedProvider(script)
    result = run_evolution(SPEC, demo_cfg(), provider, SyntheticEvaluator())
    assert result.found_correct is False
    assert result.best.fitness == NEG_INF
    for record in result.history:
        assert record.success_count == 0
    success_pulls = result.bandit_snapshots["success"]["total_pulls"]
    assert success_pulls == 0


def test_parse_failure_becomes_placeholder_without_evaluation():
    class CountingEvaluator:
        def __init__(self):
            self.calls = 0
            self.inner = SyntheticEvaluator()

        def outcome_for(self, code, spec, individual_id=0):
            self.calls += 1
            return self.inner.outcome_for(code, spec, individual_id)

        def reference_ppa(self, code):
            return self.inner.reference_ppa(code)

    provider = ScriptedProvider(
        [ScriptEntry("strategy:initial", "no fence anywhere in this text", repeat=True)]
    )
    evaluator = CountingEvaluator()
    engine = EvolutionEngine(SPEC, demo_cfg(), provider, evaluator)
    record = engine.initialize()
    assert evaluator.calls == 0
    for ind in record.population:
        assert ind.code == PLACEHOLDER_CODE
        assert ind.thought == PLACEHOLDER_THOUGHT
        assert ind.fitness == NEG_INF
        assert "rejected" in ind.feedback
        assert ind.outcome.sim_passed is False


def test_fusion_infeasible_resamples_other_strategy():
    provider = ScriptedProvider(demo_script())
    engine = EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator())
    frozen = BanditState.for_strategies([s.value for s in SUCCESS_STRATEGIES], 2.0, 1.0)
    for strategy in SUCCESS_STRATEGIES:
        if strategy is not PromptStrategy.FUSION:
            record_reward(frozen, strategy.value, 0.0)
    only = success_ind(1, 0.3)
    for trial in range(20):
        rng = random.Random(trial)
        strategy, parents, baseline = engine._plan_slot(
            PopulationLabel.SUCCESS, [only], frozen, rng
        )
        assert strategy is not PromptStrategy.FUSION
        assert parents == [only]
        assert baseline == 0.3


def test_engine_call_order_enforced():
    provider = ScriptedProvider(demo_script())
    engine = EvolutionEngine(SPEC, demo_cfg(), provider, SyntheticEvaluator())
    with pytest.raises(RuntimeError):
        engine.run_generation()
    engine.initialize()
    with pytest.raises(RuntimeError):
        engine.initialize()


def test_record_sink_streams_records():
    seen = []
    provider = ScriptedProvider(demo_script())
    run_evolution(SPEC, demo_cfg(), provider, SyntheticEvaluator(), record_sink=seen.append)
    assert [r.generation_index for r in seen] == [0, 1, 2, 3]


def test_parallel_evaluation_matches_sequential():
    def run_with(workers):
        provider = ScriptedProvider(demo_script())
        result = run_evolution(
            SPEC,
            demo_cfg(max_parallel_evaluations=workers),
            provider,
            SyntheticEvaluator(),
        )
        return json.dumps([r.to_dict() for r in result.history], sort_keys=True)

    # slots draft concurrently; the scripted provider serves the keyed draft
    # calls in slot order, so workers consume entries as one worker would
    assert run_with(1) == run_with(3)


class JitteredProvider:
    """Sleeps a seeded 0-5 ms before each call, so that concurrent slots
    reach the inner provider in an order that changes from seed to seed."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def complete(self, bundle):
        with self.lock:
            delay = self.rng.uniform(0.0, 0.005)
        time.sleep(delay)
        return self.inner.complete(bundle)


@pytest.mark.parametrize("jitter_seed", range(6))
def test_concurrent_slots_replay_sequential_history_under_jitter(jitter_seed):
    def run_with(workers):
        provider = JitteredProvider(ScriptedProvider(demo_script()), f"{jitter_seed}/{workers}")
        result = run_evolution(
            SPEC,
            demo_cfg(max_parallel_evaluations=workers),
            provider,
            SyntheticEvaluator(),
        )
        return json.dumps([r.to_dict() for r in result.history], sort_keys=True)

    # more workers than cores, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run_with(1) == run_with(4)
    finally:
        sys.setswitchinterval(interval)


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


def test_failed_slot_aborts_concurrent_generation():
    script = [
        ScriptEntry("strategy:initial", reply("seed a", "module add2; endmodule", (0.9, 95, 1.0))),
        ScriptEntry("purpose:feedback", "fb", repeat=True),
    ]
    engine = EvolutionEngine(
        SPEC, demo_cfg(max_parallel_evaluations=3), ScriptedProvider(script), SyntheticEvaluator()
    )
    errors = []

    def initialize():
        try:
            engine.initialize()
        except ScriptError as exc:
            errors.append(exc.kind)

    runner = threading.Thread(target=initialize)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert errors == ["unmatched"]
    assert engine.history == []


@pytest.mark.parametrize("workers", [1, 2])
def test_slot_drafts_overlap_up_to_the_worker_bound(workers):
    provider = OverlapCounter(ScriptedProvider(demo_script()), hold=workers > 1)
    run_evolution(
        SPEC, demo_cfg(max_parallel_evaluations=workers), provider, SyntheticEvaluator()
    )
    assert provider.peak == workers
