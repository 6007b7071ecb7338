from __future__ import annotations

import math
import random

import pytest

from rtlevo.fitness import (
    MIN_EFFECTIVE_PERIOD,
    SYNTH_FAIL_FITNESS,
    FitnessWeights,
    compute_fitness,
    effective_period,
    fitness_of,
)
from rtlevo.model import NEG_INF, CircuitKind, ConfigError, EvalOutcome, PpaMetrics


def oracle_fitness(gen: PpaMetrics, ref: PpaMetrics, w: FitnessWeights) -> float:
    # independent direct evaluation of the weighted relative-improvement sum
    terms = [
        w.alpha * (ref.power - gen.power) / ref.power,
        w.beta * (ref.area - gen.area) / ref.area,
        w.gamma
        * (ref.effective_clock_period - gen.effective_clock_period)
        / ref.effective_clock_period,
    ]
    return math.fsum(terms)


def test_identity_scores_exactly_zero():
    ref = PpaMetrics(3.7, 412.0, 0.9)
    w = FitnessWeights(1 / 3, 1 / 3, 1 / 3)
    assert compute_fitness(ref, ref, w) == 0.0


def test_matches_oracle_on_randomized_triples():
    rng = random.Random(42)
    for _ in range(100):
        ref = PpaMetrics(
            rng.uniform(1, 1e4), rng.uniform(1, 1e4), rng.uniform(1, 1e4)
        )
        gen = PpaMetrics(
            rng.uniform(0, 1e4), rng.uniform(0, 1e4), rng.uniform(0, 1e4)
        )
        w = FitnessWeights(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.01, 1))
        assert abs(compute_fitness(gen, ref, w) - oracle_fitness(gen, ref, w)) <= 1e-12


def test_hand_computed_examples():
    w = FitnessWeights(0.5, 0.5, 0.0)
    # power halved, area unchanged: 0.5 * 0.5 = 0.25
    assert compute_fitness(PpaMetrics(0.5, 100, 1), PpaMetrics(1, 100, 1), w) == pytest.approx(0.25)
    # area 50% worse: 0.5 * (-0.5) = -0.25
    assert compute_fitness(PpaMetrics(1, 150, 1), PpaMetrics(1, 100, 1), w) == pytest.approx(-0.25)
    w3 = FitnessWeights(1 / 3, 1 / 3, 1 / 3)
    # timing halved only: (1/3) * 0.5 = 1/6
    got = compute_fitness(PpaMetrics(1, 100, 0.5), PpaMetrics(1, 100, 1), w3)
    assert got == pytest.approx(1 / 6)


def test_weights_validation():
    with pytest.raises(ConfigError):
        FitnessWeights(-0.1, 0.5, 0.5)
    with pytest.raises(ConfigError):
        FitnessWeights(0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        FitnessWeights(float("nan"), 0.5, 0.5)


def test_default_weights_by_circuit_kind():
    comb = FitnessWeights.for_circuit_kind(CircuitKind.COMBINATIONAL)
    assert (comb.alpha, comb.beta, comb.gamma) == (0.5, 0.5, 0.0)
    seq = FitnessWeights.for_circuit_kind(CircuitKind.SEQUENTIAL)
    assert seq.alpha == seq.beta == seq.gamma == pytest.approx(1 / 3)


def test_effective_period():
    # negative slack inflates the achieved period
    assert effective_period(0.01, -0.49) == pytest.approx(0.50)
    # positive slack shrinks it
    assert effective_period(0.01, 0.005) == pytest.approx(0.005)
    # clamped at the floor when slack exceeds the target
    assert effective_period(0.01, 0.02) == MIN_EFFECTIVE_PERIOD


def test_fitness_of_three_paths():
    ref = PpaMetrics(1.0, 100.0, 1.0)
    w = FitnessWeights(0.5, 0.5, 0.0)
    sim_fail = EvalOutcome(False, False, None, sim_log="x")
    assert fitness_of(sim_fail, ref, w) == NEG_INF
    synth_fail = EvalOutcome(True, False, None, sim_log="ok", synth_log="err")
    assert fitness_of(synth_fail, ref, w) == SYNTH_FAIL_FITNESS
    no_report = EvalOutcome(True, True, None, sim_log="ok", synth_log="junk")
    assert fitness_of(no_report, ref, w) == SYNTH_FAIL_FITNESS
    good = EvalOutcome(True, True, PpaMetrics(0.5, 100, 1), sim_log="ok", synth_log="ok")
    assert fitness_of(good, ref, w) == pytest.approx(0.25)


def test_sentinel_ranks_above_sim_failure_and_below_any_real_score():
    ref = PpaMetrics(1.0, 100.0, 1.0)
    w = FitnessWeights(0.5, 0.5, 0.0)
    awful = PpaMetrics(1e6, 1e6, 1e6)
    assert NEG_INF < SYNTH_FAIL_FITNESS < compute_fitness(awful, ref, w)
