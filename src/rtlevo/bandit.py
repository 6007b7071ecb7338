"""Adaptive strategy selection: UCB scores, incremental averages, softmax sampling.

Each population keeps its own independent state over its own strategy set;
the engine is the single writer, so no locking is done here.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

# Returned for strategies that have never been pulled; compares greater than
# any finite score so callers can give them absolute priority.
UNTRIED_SCORE = math.inf


@dataclass
class StrategyStats:
    """Running average reward and pull count for one strategy."""

    q_value: float = 0.0
    pull_count: int = 0


@dataclass
class BanditState:
    """Per-population strategy statistics plus selection hyperparameters.

    Each generation record holds one per population, read back by its fields.
    """

    strategies: dict[str, StrategyStats]
    total_pulls: int = 0
    exploration_c: float = 2.0
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature!r}")
        if self.exploration_c < 0:
            raise ValueError(f"exploration_c must be >= 0, got {self.exploration_c!r}")

    @classmethod
    def for_strategies(
        cls, names: list[str], exploration_c: float = 2.0, temperature: float = 1.0
    ) -> "BanditState":
        return cls(
            strategies={name: StrategyStats() for name in names},
            exploration_c=exploration_c,
            temperature=temperature,
        )

    def copy(self) -> "BanditState":
        strategies = {name: dataclasses.replace(s) for name, s in self.strategies.items()}
        return dataclasses.replace(self, strategies=strategies)


def ucb_score(stats: StrategyStats, total_pulls: int, exploration_c: float) -> float:
    """Upper-confidence-bound score: Q + c * sqrt(ln(T) / k).

    Undefined at zero pulls, so untried strategies (or a fresh state) get
    `UNTRIED_SCORE`, which outranks every finite score.
    """
    if stats.pull_count == 0 or total_pulls == 0:
        return UNTRIED_SCORE
    return stats.q_value + exploration_c * math.sqrt(math.log(total_pulls) / stats.pull_count)


def record_reward(state: BanditState, strategy: str, reward: float) -> BanditState:
    """Credit one reward to a strategy via the incremental average update.

    After the update Q equals the exact arithmetic mean of all rewards the
    strategy has received. Returns the (mutated) state for convenience.
    """
    stats = state.strategies.get(strategy)
    if stats is None:
        raise ValueError(f"unknown strategy {strategy!r}; known: {sorted(state.strategies)}")
    stats.pull_count += 1
    stats.q_value += (reward - stats.q_value) / stats.pull_count
    state.total_pulls += 1
    return state


def softmax(scores: list[float], temperature: float) -> list[float]:
    """Temperature-scaled softmax, stabilized by max subtraction."""
    if not scores:
        raise ValueError("softmax requires at least one score")
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    top = max(scores)
    exps = [math.exp((s - top) / temperature) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def select_strategy(
    state: BanditState,
    rng: random.Random,
    allowed: list[str] | None = None,
) -> str:
    """Pick a strategy: untried ones first (uniformly), then softmax over UCB scores.

    `allowed` restricts the choice to a subset of the state's strategies,
    e.g. when an operator is infeasible this generation. Deterministic given
    the rng state.
    """
    names = [n for n in state.strategies if allowed is None or n in allowed]
    if not names:
        raise ValueError("no strategies available for selection")
    untried = [n for n in names if state.strategies[n].pull_count == 0]
    if untried:
        return untried[rng.randrange(len(untried))]
    scores = [ucb_score(state.strategies[n], state.total_pulls, state.exploration_c) for n in names]
    probs = softmax(scores, state.temperature)
    draw = rng.random()
    cumulative = 0.0
    for name, p in zip(names, probs):
        cumulative += p
        if draw <= cumulative:
            return name
    return names[-1]
