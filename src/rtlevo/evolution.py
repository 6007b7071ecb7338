"""Dual-population evolutionary loop over LLM-generated design candidates.

Candidates are split by simulation verdict into Fail and Success
sub-populations. Each generation: offspring quotas proportional to
sub-population sizes, per-population bandit strategy selection, parent
selection (uniform for Fail, roulette for Success), prompt/complete/parse,
evaluation, bandit rewards, then survivor selection with per-metric elites.

The engine thread plans every slot of a generation in slot order (quota,
strategy from the frozen bandit scores, parents, prompt). Each slot then
runs as one task, draft -> parse -> evaluate (simulate, synthesize,
feedback), with up to `max_parallel_evaluations` tasks in flight; at one
they run inline on the engine thread. The generation waits for all of its
slots before rewards and survivor selection.

Determinism: individual ids are claimed before any fan-out, each offspring
slot gets its own RNG stream keyed by (seed, generation, slot), results
join in slot order, and rewards are applied in slot order. Draft prompts
carry their (generation, slot) key, which the scripted provider uses to
serve them in slot order, so with a scripted provider and the synthetic
evaluator a fixed seed replays bit-identically at any concurrency.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import random
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .bandit import BanditState, record_reward, select_strategy
from .evaluate import Evaluator, evaluate
from .fitness import FitnessWeights
from .llm import Provider
from .model import (
    ConfigError,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PopulationLabel,
    ProblemSpec,
    StrategyEvent,
    classify,
)
from .prompts import (
    FAIL_STRATEGIES,
    SUCCESS_STRATEGIES,
    ParseError,
    PromptBundle,
    PromptStrategy,
    allowed_strategies,
    build_evolutionary_prompt,
    build_initial_prompt,
    parse_llm_response,
)

logger = logging.getLogger(__name__)

PLACEHOLDER_CODE = "// placeholder: the response could not be parsed\n"
PLACEHOLDER_THOUGHT = "(response could not be parsed)"

# Roulette weights are fitness shifted above zero; the epsilon keeps the
# worst member selectable and makes the all-equal case exactly uniform.
ROULETTE_EPSILON = 1e-6


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 10
    offspring_count: int = 10
    max_generations: int = 20
    elite_per_metric: int = 1
    reward: float = 1.0
    exploration_c: float = 2.0
    temperature: float = 1.0
    rng_seed: int = 0
    weights: FitnessWeights | None = None
    max_parallel_evaluations: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ConfigError(
                f"evolution.population_size must be >= 1, got {self.population_size!r}"
            )
        if self.offspring_count < 1:
            raise ConfigError(
                f"evolution.offspring_count must be >= 1, got {self.offspring_count!r}"
            )
        if self.max_generations < 1:
            raise ConfigError(
                f"evolution.max_generations must be >= 1, got {self.max_generations!r}"
            )
        if not 0 <= 3 * self.elite_per_metric <= self.population_size:
            raise ConfigError(
                "evolution.elite_per_metric must satisfy 0 <= 3*n <= population_size, "
                f"got n={self.elite_per_metric!r} with N={self.population_size!r}"
            )
        if not math.isfinite(self.reward):
            raise ConfigError(f"evolution.reward must be finite, got {self.reward!r}")
        if self.exploration_c < 0:
            raise ConfigError(f"evolution.exploration_c must be >= 0, got {self.exploration_c!r}")
        if self.temperature <= 0:
            raise ConfigError(f"evolution.temperature must be > 0, got {self.temperature!r}")
        if self.max_parallel_evaluations < 1:
            raise ConfigError(
                "evolution.max_parallel_evaluations must be >= 1, "
                f"got {self.max_parallel_evaluations!r}"
            )

    def weights_for(self, spec: ProblemSpec) -> FitnessWeights:
        return self.weights or FitnessWeights.for_circuit_kind(spec.circuit_kind)


def offspring_quota(fail_count: int, success_count: int, offspring_count: int) -> tuple[int, int]:
    """Split the offspring budget proportionally to sub-population sizes.

    Largest-remainder rounding keeps the quotas summing to the budget; an
    exact remainder tie goes to the Fail side.
    """
    if fail_count < 0 or success_count < 0:
        raise ValueError("sub-population counts must be >= 0")
    total = fail_count + success_count
    if total == 0:
        raise ValueError("cannot split offspring over an empty population")
    if offspring_count < 1:
        raise ValueError(f"offspring_count must be >= 1, got {offspring_count!r}")
    if fail_count == 0:
        return 0, offspring_count
    if success_count == 0:
        return offspring_count, 0
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


def roulette_weights(subpop: list[Individual]) -> list[float]:
    fitnesses = []
    for ind in subpop:
        if ind.fitness is None or not math.isfinite(ind.fitness):
            raise ValueError(f"roulette needs finite fitness; individual {ind.id} has {ind.fitness!r}")
        fitnesses.append(ind.fitness)
    lowest = min(fitnesses)
    return [f - lowest + ROULETTE_EPSILON for f in fitnesses]


def _roulette_index(weights: list[float], rng: random.Random) -> int:
    target = rng.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if target < acc:
            return i
    return len(weights) - 1


def select_parents(
    subpop: list[Individual], strategy: PromptStrategy, rng: random.Random
) -> list[Individual]:
    """Draw `strategy.arity` parents: uniformly from a Fail sub-population,
    fitness-proportionally (after the shift transform) from a Success one.
    Two-parent draws are always distinct."""
    if not subpop:
        raise ValueError("cannot select parents from an empty sub-population")
    arity = strategy.arity
    if arity > len(subpop):
        raise ValueError(
            f"strategy {strategy.value} needs {arity} distinct parents, "
            f"sub-population has {len(subpop)}"
        )
    label = classify(subpop[0])
    if label is PopulationLabel.FAIL:
        pool = list(subpop)
        chosen = []
        for _ in range(arity):
            idx = rng.randrange(len(pool))
            chosen.append(pool.pop(idx) if arity > 1 else pool[idx])
        return chosen
    pool = list(subpop)
    weights = roulette_weights(pool)
    chosen = []
    for _ in range(arity):
        idx = _roulette_index(weights, rng)
        chosen.append(pool.pop(idx))
        weights.pop(idx)
    return chosen


def _rank_key(ind: Individual) -> tuple[float, int, int]:
    # descending fitness, then younger generation, then lower id
    assert ind.fitness is not None
    return (-ind.fitness, -ind.generation_born, ind.id)


def survivor_select(
    parents: list[Individual], offspring: list[Individual], cfg: EvolutionConfig
) -> list[Individual]:
    """Next population: per-metric best synthesized parents first (deduplicated),
    the rest by fitness rank over parents and offspring together."""
    if len(parents) != cfg.population_size:
        raise ValueError(
            f"expected {cfg.population_size} parents, got {len(parents)}"
        )
    elites: list[Individual] = []
    if cfg.elite_per_metric > 0:
        synthesized = [
            p for p in parents if p.outcome is not None and p.outcome.ppa is not None
        ]
        for metric in ("power", "area", "effective_clock_period"):
            ranked = sorted(
                synthesized,
                key=lambda p, m=metric: (getattr(p.outcome.ppa, m), -p.fitness, p.id),
            )
            for winner in ranked[: cfg.elite_per_metric]:
                if all(winner.id != kept.id for kept in elites):
                    elites.append(winner)
    elite_ids = {kept.id for kept in elites}
    pool = [ind for ind in [*parents, *offspring] if ind.id not in elite_ids]
    pool.sort(key=_rank_key)
    return elites + pool[: cfg.population_size - len(elites)]


@dataclass
class RunResult:
    best: Individual | None
    found_correct: bool
    history: list[GenerationRecord]
    bandit_snapshots: dict[str, dict]


class EvolutionEngine:
    """Drives one run: id assignment, the generation loop, bandits, history.

    `record_sink`, when given, receives each GenerationRecord as soon as it
    is final, for streaming persistence.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        cfg: EvolutionConfig,
        provider: Provider,
        evaluator: Evaluator,
        record_sink: Callable[[GenerationRecord], None] | None = None,
    ):
        self.spec = spec
        self.cfg = cfg
        self.provider = provider
        self.evaluator = evaluator
        self.weights = cfg.weights_for(spec)
        self.bandits: dict[PopulationLabel, BanditState] = {
            PopulationLabel.FAIL: BanditState.for_strategies(
                [s.value for s in FAIL_STRATEGIES], cfg.exploration_c, cfg.temperature
            ),
            PopulationLabel.SUCCESS: BanditState.for_strategies(
                [s.value for s in SUCCESS_STRATEGIES], cfg.exploration_c, cfg.temperature
            ),
        }
        self.history: list[GenerationRecord] = []
        self.best: Individual | None = None
        self.found_correct = False
        self._next_id = 0
        self._record_sink = record_sink

    def _claim_ids(self, count: int) -> list[int]:
        ids = list(range(self._next_id, self._next_id + count))
        self._next_id += count
        return ids

    def _run_slot(self, ind_id: int, bundle: PromptBundle) -> Individual:
        """One slot's task: draft, parse, then evaluate. The keyed draft
        prompt carries the slot's generation, operator and parents. A
        response that cannot be parsed becomes a placeholder that skips
        evaluation."""
        generation = bundle.key[0]
        strategy = bundle.strategy.value if bundle.strategy else None
        text = self.provider.complete(bundle).text
        try:
            thought, code = parse_llm_response(text)
        except ParseError as exc:
            logger.warning("individual %d: unusable response (%s)", ind_id, exc)
            outcome = EvalOutcome(
                sim_passed=False,
                synth_succeeded=False,
                ppa=None,
                sim_log=f"response parsing failed before simulation: {exc}",
                synth_log="",
            )
            feedback = (
                f"The previous response was rejected: {exc}. Reply with a "
                "'## Thought' section and exactly one fenced code block "
                "containing complete Verilog."
            )
            return Individual(
                id=ind_id,
                thought=PLACEHOLDER_THOUGHT,
                code=PLACEHOLDER_CODE,
                feedback=feedback,
                outcome=outcome,
                fitness=float("-inf"),
                parent_ids=bundle.parent_ids,
                strategy=strategy,
                generation_born=generation,
            )
        drafted = Individual(
            id=ind_id,
            thought=thought,
            code=code,
            parent_ids=bundle.parent_ids,
            strategy=strategy,
            generation_born=generation,
        )
        return evaluate(drafted, self.spec, self.evaluator, self.provider, self.weights)

    def _run_slots(self, slots: list[tuple[int, PromptBundle]]) -> list[Individual]:
        """Run each (id, draft prompt) slot as one task, up to
        max_parallel_evaluations at a time, and join the results in slot
        order.

        Lanes take slots in slot order, and once a slot fails no lane takes
        another, so every slot that starts runs to its end and all slots
        before it have started: a provider that serves drafts in slot order
        never waits on a slot that will not come.
        """
        lanes = min(self.cfg.max_parallel_evaluations, len(slots))
        results: list[Individual] = [None] * len(slots)  # type: ignore[list-item]
        pending = iter(enumerate(slots))
        take = threading.Lock()
        failed = threading.Event()

        def lane() -> None:
            while not failed.is_set():
                with take:
                    j, slot = next(pending, (-1, None))
                if slot is None:
                    return
                try:
                    results[j] = self._run_slot(*slot)
                except BaseException:
                    failed.set()
                    raise

        if lanes <= 1:
            lane()
        else:
            with ThreadPoolExecutor(max_workers=lanes) as pool:
                for future in [pool.submit(lane) for _ in range(lanes)]:
                    future.result()
        for ind in results:
            self._consider_best(ind)
            if ind.outcome is not None and ind.outcome.sim_passed:
                self.found_correct = True
        return results

    def _consider_best(self, ind: Individual) -> None:
        if self.best is None or _rank_key(ind) < _rank_key(self.best):
            self.best = ind

    def _emit_record(
        self,
        generation: int,
        population: list[Individual],
        offspring: list[Individual],
        events: list[StrategyEvent],
    ) -> GenerationRecord:
        fail_count = sum(1 for ind in population if classify(ind) is PopulationLabel.FAIL)
        record = GenerationRecord(
            generation_index=generation,
            population=tuple(population),
            offspring=tuple(offspring),
            strategy_events=tuple(events),
            best_so_far=self.best,
            fail_count=fail_count,
            success_count=len(population) - fail_count,
            bandit_states={
                label.value: state.snapshot() for label, state in self.bandits.items()
            },
        )
        self.history.append(record)
        if self._record_sink is not None:
            self._record_sink(record)
        return record

    def initialize(self) -> GenerationRecord:
        """Create and evaluate generation 0 from independent initial prompts."""
        if self.history:
            raise RuntimeError("engine already initialized")
        slots = [
            (ind_id, dataclasses.replace(build_initial_prompt(self.spec), key=(0, j)))
            for j, ind_id in enumerate(self._claim_ids(self.cfg.population_size))
        ]
        population = self._run_slots(slots)
        return self._emit_record(0, population, [], [])

    def _plan_slot(
        self,
        label: PopulationLabel,
        subpop: list[Individual],
        frozen: BanditState,
        rng: random.Random,
    ) -> tuple[PromptStrategy, list[Individual], float | None]:
        allowed = [s.value for s in allowed_strategies(label)]
        name = select_strategy(frozen, rng, allowed)
        strategy = PromptStrategy(name)
        if strategy is PromptStrategy.FUSION and len(subpop) < 2:
            reduced = [n for n in allowed if n != PromptStrategy.FUSION.value]
            name = select_strategy(frozen, rng, reduced)
            logger.info(
                "fusion infeasible with %d success member(s); resampled %s", len(subpop), name
            )
            strategy = PromptStrategy(name)
        parents = select_parents(subpop, strategy, rng)
        baseline = None
        if label is PopulationLabel.SUCCESS:
            baseline = max(p.fitness for p in parents)
        return strategy, parents, baseline

    def _reward_for(self, label: PopulationLabel, child: Individual, baseline: float | None) -> float:
        assert child.outcome is not None and child.fitness is not None
        if label is PopulationLabel.FAIL:
            improved = child.outcome.sim_passed
        else:
            assert baseline is not None
            improved = child.fitness > baseline
        return self.cfg.reward if improved else 0.0

    def run_generation(self) -> GenerationRecord:
        """One full iteration: quotas, offspring, evaluation, rewards, survivors."""
        if not self.history:
            raise RuntimeError("call initialize() before run_generation()")
        generation = len(self.history)
        parents = list(self.history[-1].population)
        fail_pop = [p for p in parents if classify(p) is PopulationLabel.FAIL]
        success_pop = [p for p in parents if classify(p) is PopulationLabel.SUCCESS]
        quota_fail, _ = offspring_quota(
            len(fail_pop), len(success_pop), self.cfg.offspring_count
        )
        ids = self._claim_ids(self.cfg.offspring_count)
        # selections all read this generation's frozen scores; rewards land
        # on the live states only after every offspring is evaluated
        frozen = {label: state.copy() for label, state in self.bandits.items()}
        slots = []
        plans = []
        for j in range(self.cfg.offspring_count):
            if j < quota_fail:
                label, subpop = PopulationLabel.FAIL, fail_pop
            else:
                label, subpop = PopulationLabel.SUCCESS, success_pop
            rng = random.Random(f"{self.cfg.rng_seed}/{generation}/{j}")
            strategy, chosen, baseline = self._plan_slot(label, subpop, frozen[label], rng)
            bundle = build_evolutionary_prompt(strategy, self.spec, chosen)
            slots.append((ids[j], dataclasses.replace(bundle, key=(generation, j))))
            plans.append((label, strategy, baseline))
        offspring = self._run_slots(slots)
        events = []
        for child, (label, strategy, baseline) in zip(offspring, plans):
            reward = self._reward_for(label, child, baseline)
            record_reward(self.bandits[label], strategy.value, reward)
            events.append(StrategyEvent(label=label, strategy=strategy.value, reward=reward))
        survivors = survivor_select(parents, offspring, self.cfg)
        return self._emit_record(generation, survivors, offspring, events)

    def result(self) -> RunResult:
        return RunResult(
            best=self.best,
            found_correct=self.found_correct,
            history=list(self.history),
            bandit_snapshots={
                label.value: state.snapshot() for label, state in self.bandits.items()
            },
        )

    def run(self) -> RunResult:
        """Initialize, iterate max_generations times, return the all-time best."""
        if not self.history:
            self.initialize()
        for _ in range(self.cfg.max_generations):
            self.run_generation()
        if not self.found_correct:
            logger.warning("no functionally correct design found in %s", self.spec.name)
        return self.result()


def run_evolution(
    spec: ProblemSpec,
    cfg: EvolutionConfig,
    provider: Provider,
    evaluator: Evaluator,
    record_sink: Callable[[GenerationRecord], None] | None = None,
) -> RunResult:
    return EvolutionEngine(spec, cfg, provider, evaluator, record_sink).run()
