"""Adaptive strategy selection: UCB scores, incremental averages, softmax sampling.

The paper's rule is one weighted draw: each arm's UCB1 score (Auer et al.,
2002), Q + c * sqrt(ln T / k), goes through a softmax at temperature T,
and the arm is drawn with those probabilities. An untried arm (k = 0)
scores +inf, so the softmax puts all its mass on the untried arms, equally;
`select_strategy` draws uniformly among them instead of dividing by zero.

Each population keeps its own independent state over its own strategy set;
the engine is the single writer, so no locking is done here. The engine
also supplies every input these functions assume: known arm names, a
non-empty choice, and the exploration constant and temperature that
`EvolutionConfig` has range-checked.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass


@dataclass
class StrategyStats:
    """Running average reward and pull count for one strategy."""

    q_value: float = 0.0
    pull_count: int = 0


@dataclass
class BanditState:
    """Per-population strategy statistics.

    Each generation record holds one per population, read back by its
    fields. The selection constants c and T are run settings, passed to
    `select_strategy`, not state.
    """

    strategies: dict[str, StrategyStats]

    @property
    def total_pulls(self) -> int:
        return sum(s.pull_count for s in self.strategies.values())

    @classmethod
    def for_strategies(cls, names: list[str]) -> "BanditState":
        return cls(strategies={name: StrategyStats() for name in names})

    def copy(self) -> "BanditState":
        return BanditState({name: dataclasses.replace(s) for name, s in self.strategies.items()})


def ucb_score(stats: StrategyStats, total_pulls: int, exploration_c: float) -> float:
    """Upper-confidence-bound score: Q + c * sqrt(ln(T) / k).

    Defined for a pulled strategy only (k >= 1, so T >= 1): `select_strategy`
    picks an untried strategy before it scores any.
    """
    return stats.q_value + exploration_c * math.sqrt(math.log(total_pulls) / stats.pull_count)


def record_reward(state: BanditState, strategy: str, reward: float) -> None:
    """Credit one reward to a strategy via the incremental average update.

    After the update Q equals the exact arithmetic mean of all rewards the
    strategy has received.
    """
    stats = state.strategies[strategy]
    stats.pull_count += 1
    stats.q_value += (reward - stats.q_value) / stats.pull_count


def softmax(scores: list[float], temperature: float) -> list[float]:
    """Temperature-scaled softmax, stabilized by max subtraction; the
    temperature is in (0, inf], where inf gives the uniform distribution."""
    top = max(scores)
    exps = [math.exp((s - top) / temperature) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def select_strategy(
    state: BanditState,
    rng: random.Random,
    exploration_c: float,
    temperature: float,
    allowed: list[str] | None = None,
) -> str:
    """Pick a strategy: untried ones first (uniformly), then the paper's
    draw, weighted by the softmax at `temperature` of the UCB scores with
    constant `exploration_c`; `temperature` = inf draws uniformly.

    `allowed` restricts the choice to a subset of the state's strategies,
    e.g. when an operator is infeasible this generation. Deterministic given
    the rng state.
    """
    names = [n for n in state.strategies if allowed is None or n in allowed]
    untried = [n for n in names if state.strategies[n].pull_count == 0]
    if untried:
        return untried[rng.randrange(len(untried))]
    total = state.total_pulls
    scores = [ucb_score(state.strategies[n], total, exploration_c) for n in names]
    return rng.choices(names, softmax(scores, temperature))[0]
