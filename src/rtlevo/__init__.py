"""Evolutionary RTL generation: LLM prompt operators, dual populations,
bandit-adapted strategy selection, and PPA-driven survivor selection."""

__version__ = "0.1.0"
