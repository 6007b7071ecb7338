"""Scalar fitness of an evaluated candidate relative to the reference design."""

from __future__ import annotations

from dataclasses import dataclass

from .model import CircuitKind, ConfigError, EvalOutcome, NEG_INF, PpaMetrics, check_range

# Finite sentinel for candidates that pass simulation but yield no usable
# synthesis metrics: keeps them in the Success population while ranking them
# below every synthesizable design.
SYNTH_FAIL_FITNESS = -1.0e9

# Floor for the effective clock period so a large positive slack can never
# drive the achieved-period estimate to zero or below.
MIN_EFFECTIVE_PERIOD = 1.0e-9


@dataclass(frozen=True)
class FitnessWeights:
    """Per-metric weights: alpha for power, beta for area, gamma for timing.
    A weight left out counts as zero."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            check_range(f"weights.{name}", getattr(self, name), "[0, inf)")
        if self.alpha + self.beta + self.gamma <= 0:
            raise ConfigError("weights must not all be zero")

    @classmethod
    def for_circuit_kind(cls, kind: CircuitKind) -> "FitnessWeights":
        """Default weights: (1/2, 1/2, 0) combinational, (1/3, 1/3, 1/3) sequential."""
        if kind is CircuitKind.COMBINATIONAL:
            return cls(0.5, 0.5, 0.0)
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def effective_period(target_period: float, worst_slack: float) -> float:
    """Achieved-period estimate at a fixed synthesis clock: target minus worst slack.

    Negative slack inflates the period, positive slack shrinks it; the result
    is clamped below at MIN_EFFECTIVE_PERIOD.
    """
    return max(target_period - worst_slack, MIN_EFFECTIVE_PERIOD)


def compute_fitness(gen: PpaMetrics, ref: PpaMetrics, weights: FitnessWeights) -> float:
    """Weighted sum of relative improvements over the reference design.

    Each term is (ref - gen) / ref for power, area and effective clock
    period, so higher is better and a candidate identical to the reference
    scores exactly zero.
    """
    return (
        weights.alpha * (ref.power - gen.power) / ref.power
        + weights.beta * (ref.area - gen.area) / ref.area
        + weights.gamma
        * (ref.effective_clock_period - gen.effective_clock_period)
        / ref.effective_clock_period
    )


def fitness_of(outcome: EvalOutcome, ref: PpaMetrics, weights: FitnessWeights) -> float:
    """Fitness of an evaluation outcome: -inf on simulation failure, a finite
    sentinel when synthesis produced no usable metrics, the PPA score otherwise.
    An outcome carries PPA only when synthesis succeeded (EvalOutcome)."""
    if not outcome.sim_passed:
        return NEG_INF
    if outcome.ppa is not None:
        return compute_fitness(outcome.ppa, ref, weights)
    return SYNTH_FAIL_FITNESS
