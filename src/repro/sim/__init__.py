"""Simulation kernel: clock and deterministic RNG."""

from .clock import SimClock
from .rng import make_rng, spawn_rng

__all__ = ["SimClock", "make_rng", "spawn_rng"]
