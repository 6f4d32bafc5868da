"""Influence estimation with a stopping rule (Algorithm 3, Estimate-Inf).

Based on the Stopping-Rule algorithm of Dagum, Karp, Luby & Ross (2000):
generate RR sets until the number of *successes* (sets hit by S) reaches
``Λ₂ = 1 + (1+ε')·Υ(ε', δ')``, then return ``Γ·Λ₂/T``.  One crucial twist
from the paper: a cap ``T_max``.  Early SSA candidates can have tiny
influence, which would need Ω(n) samples to verify; the cap (proportional
to |R|) aborts those verifications cheaply, keeping SSA near-linear.

The returned estimate satisfies the one-sided guarantee of Lemma 3:
``Pr[Ic(S) ≤ (1+ε') I(S)] ≥ 1 - δ'``.

Verification set ``t`` is a pure function of the verification stream's
seed and ``t``, so the stream is a pool like any other: the estimator
reads pooled sets ``[start, start+T)`` by position from a sampling
context, and sets it reads past its stopping point stay pooled for the
next call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.mathstats import upsilon


@dataclass(frozen=True)
class InfluenceEstimate:
    """Result of one Estimate-Inf invocation.

    ``influence`` is ``None`` when the sample cap was hit before Λ₂
    successes accumulated (the paper's ``-1`` sentinel); ``samples_used``
    counts the RR sets the estimate read either way, so the call stopped
    at stream position ``start + samples_used``.
    """

    influence: float | None
    samples_used: int
    successes: int

    @property
    def capped(self) -> bool:
        """True when the estimator aborted at T_max."""
        return self.influence is None


def required_successes(epsilon: float, delta: float) -> float:
    """``Λ₂ = 1 + (1 + ε')·Υ(ε', δ')`` (Alg. 3 line 1)."""
    return 1.0 + (1.0 + epsilon) * upsilon(epsilon, delta)


def estimate_influence(
    ctx,
    seeds: Sequence[int],
    epsilon: float,
    delta: float,
    max_samples: int,
    *,
    start: int = 0,
) -> InfluenceEstimate:
    """Run Estimate-Inf for seed set ``seeds`` (Algorithm 3).

    Samples are the sets ``[start, start + T)`` of ``ctx`` (a
    :class:`~repro.engine.context.SamplingContext` or a pool's query
    view), read by position.  Callers choose whether that stream is
    independent of the optimization samples (SSA verifies on its own
    stream; the stopping-rule guarantee needs fresh randomness).
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if max_samples < 1:
        raise ParameterError(f"max_samples must be at least 1, got {max_samples}")

    lambda_2 = required_successes(epsilon, delta)
    n = ctx.graph.n
    seed_mask = np.zeros(n, dtype=bool)
    seed_arr = np.asarray(list(seeds), dtype=np.int64)
    if seed_arr.size == 0:
        raise ParameterError("seed set must be non-empty")
    if seed_arr.min() < 0 or seed_arr.max() >= n:
        raise ParameterError("seed id out of range")
    seed_mask[seed_arr] = True

    # Read ahead in blocks (one set per top-up would pay a block's
    # dispatch for every set): at first the successes still missing,
    # doubling while none has come, then as many sets as the hit rate so
    # far says are needed.  The stopping set is the one a set-by-set loop
    # stops at; sets read past it stay pooled.
    successes = 0
    t = 0
    while t < max_samples:
        missing = math.ceil(lambda_2 - successes)
        want = max(missing, t) if successes == 0 else missing * t / successes
        count = min(max_samples - t, max(1, math.ceil(want)))
        lo = start + t
        flat, offsets = ctx.require(lo + count).flat_view(lo, lo + count)
        # Every RR set holds its root, so no reduceat segment is empty.
        hits = np.logical_or.reduceat(seed_mask[flat], offsets[:-1])
        reached = successes + np.cumsum(hits)
        if reached[-1] >= lambda_2:
            used = int(np.searchsorted(reached, lambda_2)) + 1
            t += used
            return InfluenceEstimate(
                influence=ctx.scale * lambda_2 / t,
                samples_used=t,
                successes=int(reached[used - 1]),
            )
        successes = int(reached[-1])
        t += count
    return InfluenceEstimate(influence=None, samples_used=max_samples, successes=successes)
