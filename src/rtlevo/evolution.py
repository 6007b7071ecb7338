"""Dual-population evolutionary loop over LLM-generated design candidates.

Candidates are split by simulation verdict into Fail and Success
sub-populations. Each generation: offspring quotas proportional to
sub-population sizes, per-population bandit strategy selection, parent
selection (uniform for Fail, roulette for Success), prompt/complete/parse,
evaluation, bandit rewards, then survivor selection with per-metric elites.

An individual's feedback is the critique its operator prompts carry. It is
asked for once, by the first slot to need the individual as a parent,
while any other slot that chose it waits for that call; individuals never
chosen keep `feedback` None, and placeholders (for a response that could
not be parsed or a draft call that failed) carry a fixed text and are
never critiqued.

The engine thread plans every slot of a generation in slot order (quota,
strategy from the frozen bandit scores, parents). Each slot then runs in
two halves: the LLM half (its parents' critiques, its prompt, draft and
parse) and the tool half (simulate, synthesize). At
`max_parallel_evaluations` = k >= 2 the slots queue in slot order on k
drafting workers and their drafts on k evaluation workers; at k = 1 they
run one at a time on the engine thread. The generation waits for all of
its slots before rewards and survivor selection; the critiqued parents
replace their uncritiqued copies in the population, and the record lists
the critiques it asked for.

A draft call that still fails with a transient or protocol error after
its retries fails only its slot, which becomes a placeholder; ten such
slots in a row end the run. Any other provider error ends it at once.

The engine keeps no state beside its history: each generation reads only
the last record and writes the next. Its bandit states are the frozen
scores; each slot's reward lands, in slot order, on a copy of its
population's state, written into the new record. The record stores no
reward: each follows from the offspring and its parents.

Determinism: ids follow from the generation index, each offspring slot
gets its own RNG stream keyed by (seed, generation, slot), results join in
slot order, and rewards are applied in slot order. Every provider call of
a generation carries a key (generation, n), numbered on the engine thread
in slot order with each slot's critiques before its draft. A scripted
provider's reply is a function of the call, its key included, so with a
scripted provider and the synthetic evaluator a fixed seed replays
bit-identically at any concurrency.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import random
import threading
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

from .bandit import BanditState, record_reward, select_strategy
from .evaluate import Evaluator, critique, evaluate
from .fitness import FitnessWeights
from .llm import Provider, ProviderError
from .model import (
    NEG_INF,
    ConfigError,
    Critique,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PopulationLabel,
    ProblemSpec,
    check_range,
    classify,
)
from .prompts import (
    FAIL_STRATEGIES,
    SUCCESS_STRATEGIES,
    ParseError,
    PromptStrategy,
    build_evolutionary_prompt,
    build_initial_prompt,
    parse_llm_response,
)

logger = logging.getLogger(__name__)

PLACEHOLDER_CODE = "// placeholder: the response could not be parsed\n"
PLACEHOLDER_THOUGHT = "(response could not be parsed)"

# A draft call that still fails with one of these after its retries fails
# only its slot: the endpoint is down or garbled for now. Any other kind
# (auth, or a script with no reply) fails every later call too, so it ends
# the run at once.
SLOT_FAILING_KINDS = ("transient", "protocol")
# The code, thought and sim log of a slot whose draft call failed. A reply
# cannot carry this code, which declares no module, so it alone marks the slot.
CALL_FAILED_CODE = "// placeholder: the draft call failed\n"
CALL_FAILED_THOUGHT = "(draft call failed)"
CALL_FAILED_LOG = "draft call failed before simulation: "
# The run ends once this many slots in a row, in slot order across
# generations, failed their draft call.
MAX_FAILED_SLOTS_IN_A_ROW = 10

# Roulette weights are fitness shifted above zero; the epsilon keeps the
# worst member selectable and makes the all-equal case exactly uniform.
ROULETTE_EPSILON = 1e-6


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 10
    offspring_count: int = 10
    max_generations: int = 20
    elite_per_metric: int = 1
    exploration_c: float = 2.0
    temperature: float = 1.0
    rng_seed: int = 0
    weights: FitnessWeights | None = None
    max_parallel_evaluations: int = 1

    def __post_init__(self) -> None:
        for name in ("population_size", "offspring_count", "max_generations"):
            check_range(f"evolution.{name}", getattr(self, name), "[1, inf)")
        if not 0 <= 3 * self.elite_per_metric <= self.population_size:
            raise ConfigError(
                "evolution.elite_per_metric must satisfy 0 <= 3*n <= population_size, "
                f"got n={self.elite_per_metric!r} with N={self.population_size!r}"
            )
        check_range("evolution.exploration_c", self.exploration_c, "[0, inf)")
        check_range("evolution.temperature", self.temperature, "(0, inf]")
        check_range("evolution.max_parallel_evaluations", self.max_parallel_evaluations, "[1, inf)")

    def weights_for(self, spec: ProblemSpec) -> FitnessWeights:
        return self.weights or FitnessWeights.for_circuit_kind(spec.circuit_kind)


def offspring_quota(fail_count: int, success_count: int, offspring_count: int) -> tuple[int, int]:
    """Split the offspring budget λ proportionally to sub-population sizes:
    the Fail side gets its exact share rounded half up, floor(λ·f/(f+s) + 1/2)
    in integers, and the Success side the rest. The two exact shares sum to
    λ, so their fractional parts are r and 1 - r: this is the paper's
    largest-remainder split, with an exact tie going to Fail. The counts
    split a population of at least one member (EvolutionConfig)."""
    total = fail_count + success_count
    quota_fail = (2 * offspring_count * fail_count + total) // (2 * total)
    return quota_fail, offspring_count - quota_fail


def roulette_weights(subpop: list[Individual]) -> list[float]:
    """Success members' fitness, which is finite, shifted above zero."""
    lowest = min(ind.fitness for ind in subpop)
    return [ind.fitness - lowest + ROULETTE_EPSILON for ind in subpop]


def select_parents(
    subpop: list[Individual], strategy: PromptStrategy, rng: random.Random
) -> list[Individual]:
    """Draw `strategy.arity` parents: one, uniformly, from a Fail
    sub-population, whose operators all take one parent; fitness-
    proportionally (after the shift transform) from a Success one, where
    Fusion's two draws are without replacement, so distinct. The engine
    draws only from a side its quota gives a slot, so `subpop` is never
    empty, and it resamples Fusion when the side has fewer than two
    members."""
    if classify(subpop[0]) is PopulationLabel.FAIL:
        return [subpop[rng.randrange(len(subpop))]]
    pool = list(subpop)
    weights = roulette_weights(pool)
    chosen = []
    for _ in range(strategy.arity):
        idx = rng.choices(range(len(weights)), weights)[0]
        chosen.append(pool.pop(idx))
        weights.pop(idx)
    return chosen


def _rank_key(ind: Individual) -> tuple[float, int, int]:
    # descending fitness, then younger generation, then lower id
    return (-ind.fitness, -ind.generation_born, ind.id)


def survivor_select(
    parents: list[Individual], offspring: list[Individual], cfg: EvolutionConfig
) -> list[Individual]:
    """Next population: per-metric best synthesized parents first (deduplicated),
    the rest by fitness rank over parents and offspring together."""
    elites: list[Individual] = []
    synthesized = [p for p in parents if p.outcome.ppa is not None]
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


def _placeholder(thought: str, code: str, rejected: str, sim_log: str) -> dict:
    """The fields of an unusable draft: its placeholder thought and code,
    feedback that says what was `rejected`, and a failed outcome, already
    scored."""
    return dict(
        thought=thought,
        code=code,
        feedback=(
            f"The previous {rejected}. Reply with a '## Thought' section and "
            "exactly one fenced code block containing complete Verilog."
        ),
        outcome=EvalOutcome(sim_passed=False, synth_succeeded=False, ppa=None, sim_log=sim_log),
        fitness=NEG_INF,
    )


def _failed_slots_in_a_row(record: GenerationRecord, streak: int) -> int:
    """The count of slots in a row that failed their draft call, carried
    from `streak` over the slots `record` drafted, in slot order. Raises
    once it reaches MAX_FAILED_SLOTS_IN_A_ROW."""
    for ind in record.drafts:
        streak = streak + 1 if ind.code == CALL_FAILED_CODE else 0
        if streak == MAX_FAILED_SLOTS_IN_A_ROW:
            raise RuntimeError(
                f"{streak} draft calls in a row failed, the last for individual {ind.id}: "
                + ind.outcome.sim_log.removeprefix(CALL_FAILED_LOG)
            )
    return streak


@dataclass(frozen=True)
class _Slot:
    """One planned slot: the id it fills, the key of its draft call, and
    the population whose bandit chose its operator, the operator and the
    parents (none of these for generation 0)."""

    ind_id: int
    key: tuple[int, int]
    label: PopulationLabel | None = None
    strategy: PromptStrategy | None = None
    parents: tuple[Individual, ...] = ()


@dataclass(eq=False)
class _Critique:
    """A parent's one critique call of a generation, keyed at plan time.
    The first slot to need it makes the call under `lock`; the others wait
    on the lock and take its `result`: the critiqued copy, or the exception
    the call raised, which they re-raise without asking again."""

    parent: Individual
    key: tuple[int, int]
    lock: threading.Lock = dataclasses.field(default_factory=threading.Lock)
    result: Individual | BaseException | None = None

    def critiqued(self, spec: ProblemSpec, provider: Provider) -> Individual:
        with self.lock:
            if self.result is None:
                try:
                    self.result = critique(self.parent, spec, provider, self.key)
                except BaseException as exc:
                    self.result = exc
        if isinstance(self.result, BaseException):
            raise self.result
        return self.result


@dataclass
class RunResult:
    history: list[GenerationRecord]

    @property
    def best(self) -> Individual:
        """The all-time best, which the last record holds."""
        return self.history[-1].best_so_far

    @property
    def found_correct(self) -> bool:
        """Whether some individual passed simulation: only those that failed
        it have fitness -inf, and the best outranks every other."""
        return self.best.fitness != NEG_INF


class EvolutionEngine:
    """Drives one run: the generation loop over its history, whose last
    record is the whole search state.

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
        self.history: list[GenerationRecord] = []
        self._record_sink = record_sink

    def _draft(self, slot: _Slot, critiques: dict[int, _Critique]) -> Individual:
        """A slot's LLM half: its parents' critiques, from `critiques` by
        parent id, then its prompt, draft and parse. The drafted individual
        has no outcome yet. An unparsable response, or a draft call that
        failed with a SLOT_FAILING_KINDS error after its retries, becomes a
        placeholder that arrives already scored and skips evaluation; any
        other provider error ends the run."""
        if slot.strategy is None:
            bundle = build_initial_prompt(self.spec, slot.key)
        else:
            parents = [
                critiques[p.id].critiqued(self.spec, self.provider) if p.id in critiques else p
                for p in slot.parents
            ]
            bundle = build_evolutionary_prompt(slot.strategy, self.spec, parents, slot.key)
        try:
            thought, code = parse_llm_response(self.provider.complete(bundle).text)
            fields = dict(thought=thought, code=code)
        except ProviderError as exc:
            if exc.kind not in SLOT_FAILING_KINDS:
                raise
            logger.warning("individual %d: draft call failed (%s)", slot.ind_id, str(exc))
            fields = _placeholder(
                CALL_FAILED_THOUGHT, CALL_FAILED_CODE,
                f"request failed: {exc}", f"{CALL_FAILED_LOG}{exc}",
            )
        except ParseError as exc:
            logger.warning("individual %d: unusable response (%s)", slot.ind_id, str(exc))
            fields = _placeholder(
                PLACEHOLDER_THOUGHT, PLACEHOLDER_CODE,
                f"response was rejected: {exc}",
                f"response parsing failed before simulation: {exc}",
            )
        return Individual(
            id=slot.ind_id,
            **fields,
            parent_ids=bundle.parent_ids,
            strategy=slot.strategy.value if slot.strategy else None,
            generation_born=slot.key[0],
        )

    def _evaluate(self, drafted: Individual) -> Individual:
        """A slot's tool half: simulate and synthesize a drafted individual;
        a placeholder passes through."""
        if drafted.outcome is not None:
            return drafted
        return evaluate(drafted, self.spec, self.evaluator, self.weights)

    def _run_slots(self, slots: list[_Slot], critiques: dict[int, _Critique]) -> list[Individual]:
        """Draft and evaluate every slot and join the results in slot order:
        one at a time on the engine thread at max_parallel_evaluations = 1;
        at k >= 2 queued in slot order on a k-worker drafting pool, each of
        whose tasks queues its individual on a k-worker evaluation pool.
        Once a half fails, or Ctrl-C interrupts the engine thread's wait, no
        further half starts, and the error is raised only after every
        running half has finished, so no tool stage is still running when
        the caller cleans up."""
        workers = min(self.cfg.max_parallel_evaluations, len(slots))
        if workers <= 1:
            return [self._evaluate(self._draft(slot, critiques)) for slot in slots]
        failed = threading.Event()

        def guarded(half, *args):
            if not failed.is_set():
                try:
                    return half(*args)
                except BaseException:
                    failed.set()
                    raise

        def draft(slot: _Slot) -> Future | None:
            drafted = guarded(self._draft, slot, critiques)
            return drafted and evaluations.submit(guarded, self._evaluate, drafted)

        with ThreadPoolExecutor(max_workers=workers) as evaluations:
            with ThreadPoolExecutor(max_workers=workers) as drafts:
                try:
                    queued = [drafts.submit(draft, slot) for slot in slots]
                    wait(queued)
                except BaseException:
                    failed.set()
                    raise
        # a skipped half's None never reaches the caller: the failure raises first
        evaluated = [future.result() for future in queued]
        return [future.result() for future in evaluated if future]

    def _emit(self, record: GenerationRecord) -> GenerationRecord:
        self.history.append(record)
        if self._record_sink is not None:
            self._record_sink(record)
        return record

    def initialize(self) -> GenerationRecord:
        """Create and evaluate generation 0 from independent initial prompts;
        its record holds both populations' fresh bandit states. Called once,
        before any `run_generation`, as `run` does."""
        slots = [_Slot(j, key=(0, j)) for j in range(self.cfg.population_size)]
        population = self._run_slots(slots, {})
        states = {
            label.value: BanditState.for_strategies([s.value for s in operators])
            for label, operators in zip(PopulationLabel, (FAIL_STRATEGIES, SUCCESS_STRATEGIES))
        }
        best = min(population, key=_rank_key)
        return self._emit(
            GenerationRecord(0, tuple(population), best_so_far=best, bandit_states=states)
        )

    def _plan_slot(
        self, subpop: list[Individual], frozen: BanditState, rng: random.Random
    ) -> tuple[PromptStrategy, list[Individual]]:
        """An operator from the population's frozen bandit state, whose arms
        are that population's operators, and its parents."""
        c, t = self.cfg.exploration_c, self.cfg.temperature
        name = select_strategy(frozen, rng, c, t)
        if name == PromptStrategy.FUSION.value and len(subpop) < 2:
            name = select_strategy(frozen, rng, c, t, [n for n in frozen.strategies if n != name])
            logger.info(
                "fusion infeasible with %d success member(s); resampled %s", len(subpop), name
            )
        strategy = PromptStrategy(name)
        return strategy, select_parents(subpop, strategy, rng)

    def _reward_for(self, slot: _Slot, child: Individual) -> float:
        """1.0 for a success and 0.0 otherwise: a Fail-population child succeeds by
        passing simulation, a Success-population child by beating its best parent's fitness."""
        if slot.label is PopulationLabel.FAIL:
            improved = child.outcome.sim_passed
        else:
            improved = child.fitness > max(p.fitness for p in slot.parents)
        return 1.0 if improved else 0.0

    def run_generation(self) -> GenerationRecord:
        """One full iteration from the last record: quotas, offspring,
        evaluation, rewards, survivors, and the next record."""
        last = self.history[-1]
        generation = last.generation_index + 1
        parents = list(last.population)
        fail_pop = [p for p in parents if classify(p) is PopulationLabel.FAIL]
        success_pop = [p for p in parents if classify(p) is PopulationLabel.SUCCESS]
        quota_fail, _ = offspring_quota(
            len(fail_pop), len(success_pop), self.cfg.offspring_count
        )
        first_id = self.cfg.population_size + (generation - 1) * self.cfg.offspring_count
        calls = itertools.count()
        critiques: dict[int, _Critique] = {}
        slots = []
        for j in range(self.cfg.offspring_count):
            if j < quota_fail:
                label, subpop = PopulationLabel.FAIL, fail_pop
            else:
                label, subpop = PopulationLabel.SUCCESS, success_pop
            rng = random.Random(f"{self.cfg.rng_seed}/{generation}/{j}")
            strategy, chosen = self._plan_slot(subpop, last.bandit_states[label.value], rng)
            # keyed at the first slot to choose the parent, made by the first to need it
            for parent in chosen:
                if parent.feedback is None and parent.id not in critiques:
                    critiques[parent.id] = _Critique(parent, (generation, next(calls)))
            key = (generation, next(calls))
            slots.append(_Slot(first_id + j, key, label, strategy, tuple(chosen)))
        offspring = self._run_slots(slots, critiques)
        critiqued = {ind_id: shared.result for ind_id, shared in critiques.items()}
        parents = [critiqued.get(p.id, p) for p in parents]
        states = {name: state.copy() for name, state in last.bandit_states.items()}
        for child, slot in zip(offspring, slots):
            record_reward(states[slot.label.value], slot.strategy.value, self._reward_for(slot, child))
        survivors = survivor_select(parents, offspring, self.cfg)
        best = critiqued.get(last.best_so_far.id, last.best_so_far)
        best = min([best, *offspring], key=_rank_key)
        # in call-key order: slots were planned, and their critiques keyed, in slot order
        asked = tuple(Critique(ind.id, ind.feedback) for ind in critiqued.values())
        return self._emit(GenerationRecord(
            generation, tuple(survivors), best, tuple(offspring), states, asked
        ))

    def result(self) -> RunResult:
        return RunResult(history=list(self.history))

    def run(self) -> RunResult:
        """Initialize, iterate max_generations times, return the all-time best.
        Ends the run, after the record that completes the streak, once
        MAX_FAILED_SLOTS_IN_A_ROW slots in a row failed their draft call;
        counted in slot order over the records, the point is the same at
        any concurrency."""
        streak = _failed_slots_in_a_row(self.initialize(), 0)
        for _ in range(self.cfg.max_generations):
            streak = _failed_slots_in_a_row(self.run_generation(), streak)
        result = self.result()
        if not result.found_correct:
            logger.warning("no functionally correct design found in %s", self.spec.name)
        return result
