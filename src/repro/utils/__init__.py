"""Shared utilities: RNG management, timing, math helpers, formatting."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timer import Timer
from repro.utils.mathstats import (
    binomial_coefficient_ln,
    chernoff_lower_tail_samples,
    chernoff_upper_tail_samples,
    hoeffding_samples,
    upsilon,
)
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_epsilon,
    check_delta,
    check_k,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "upsilon",
    "binomial_coefficient_ln",
    "chernoff_upper_tail_samples",
    "chernoff_lower_tail_samples",
    "hoeffding_samples",
    "format_table",
    "check_epsilon",
    "check_delta",
    "check_k",
    "check_probability",
]
