from __future__ import annotations

import math
import random

import pytest

from rtlevo.bandit import (
    UNTRIED_SCORE,
    BanditState,
    StrategyStats,
    record_reward,
    select_strategy,
    softmax,
    ucb_score,
)
from rtlevo.model import to_plain


def test_q_is_exact_arithmetic_mean():
    rng = random.Random(3)
    for _ in range(50):
        state = BanditState.for_strategies(["a", "b"])
        rewards = [rng.uniform(-2, 2) for _ in range(rng.randrange(1, 40))]
        for r in rewards:
            record_reward(state, "a", r)
        mean = sum(rewards) / len(rewards)
        assert abs(state.strategies["a"].q_value - mean) <= 1e-12
        assert state.strategies["a"].pull_count == len(rewards)
        assert state.total_pulls == len(rewards)


def test_ucb_closed_form():
    stats = StrategyStats(q_value=0.5, pull_count=4)
    got = ucb_score(stats, total_pulls=10, exploration_c=2.0)
    assert got == pytest.approx(0.5 + 2.0 * math.sqrt(math.log(10) / 4))
    assert got == pytest.approx(2.017427, abs=1e-5)


def test_ucb_untried_gets_priority_score():
    assert ucb_score(StrategyStats(), total_pulls=5, exploration_c=2.0) == UNTRIED_SCORE
    assert ucb_score(StrategyStats(0.5, 3), total_pulls=0, exploration_c=2.0) == UNTRIED_SCORE
    assert UNTRIED_SCORE > 1e300


def test_record_reward_unknown_strategy():
    state = BanditState.for_strategies(["a"])
    with pytest.raises(ValueError):
        record_reward(state, "zzz", 1.0)


def test_softmax_sums_to_one_and_is_shift_invariant():
    rng = random.Random(11)
    for _ in range(200):
        scores = [rng.uniform(-50, 50) for _ in range(rng.randrange(1, 8))]
        tau = rng.uniform(0.1, 5.0)
        probs = softmax(scores, tau)
        assert abs(sum(probs) - 1.0) <= 1e-9
        shift = rng.uniform(-100, 100)
        shifted = softmax([s + shift for s in scores], tau)
        assert all(abs(p - q) <= 1e-12 for p, q in zip(probs, shifted))


def test_softmax_known_value():
    probs = softmax([1.0, 0.0], 1.0)
    assert probs[0] == pytest.approx(1 / (1 + math.exp(-1)))
    assert probs[0] == pytest.approx(0.7310585786, abs=1e-9)


def test_softmax_temperature_sharpens():
    cold = softmax([1.0, 0.0], 0.1)
    hot = softmax([1.0, 0.0], 10.0)
    assert cold[0] > 0.99
    assert 0.5 < hot[0] < 0.6


def test_softmax_input_validation():
    with pytest.raises(ValueError):
        softmax([], 1.0)
    with pytest.raises(ValueError):
        softmax([1.0], 0.0)


def test_untried_strategies_selected_first():
    state = BanditState.for_strategies(["a", "b", "c"])
    record_reward(state, "a", 1.0)
    rng = random.Random(0)
    picks = {select_strategy(state, rng) for _ in range(50)}
    assert picks == {"b", "c"}


def test_select_respects_allowed_subset():
    state = BanditState.for_strategies(["a", "b", "c"])
    for name in ("a", "b", "c"):
        record_reward(state, name, 0.5)
    rng = random.Random(0)
    picks = {select_strategy(state, rng, allowed=["b", "c"]) for _ in range(100)}
    assert picks <= {"b", "c"}
    with pytest.raises(ValueError):
        select_strategy(state, rng, allowed=["nope"])


def test_selection_frequency_matches_softmax():
    # engineered scores [1, 0]: Q values 1 and 0, one pull each, c=0
    state = BanditState(
        strategies={"hi": StrategyStats(1.0, 1), "lo": StrategyStats(0.0, 1)},
        total_pulls=2,
        exploration_c=0.0,
        temperature=1.0,
    )
    rng = random.Random(123)
    draws = 20_000
    hits = sum(1 for _ in range(draws) if select_strategy(state, rng) == "hi")
    assert hits / draws == pytest.approx(0.7311, abs=0.01)


def test_copy_and_snapshot_are_detached():
    state = BanditState.for_strategies(["a", "b"], exploration_c=1.5, temperature=0.7)
    record_reward(state, "a", 1.0)
    frozen = state.copy()
    snap = to_plain(state)
    record_reward(state, "a", 0.0)
    assert frozen.strategies["a"].q_value == 1.0
    assert frozen.total_pulls == 1
    assert snap["strategies"]["a"] == {"q_value": 1.0, "pull_count": 1}
    assert snap["exploration_c"] == 1.5 and snap["temperature"] == 0.7
    assert state.strategies["a"].q_value == 0.5


def test_state_hyperparameter_validation():
    with pytest.raises(ValueError):
        BanditState.for_strategies(["a"], temperature=0.0)
    with pytest.raises(ValueError):
        BanditState.for_strategies(["a"], exploration_c=-1.0)
