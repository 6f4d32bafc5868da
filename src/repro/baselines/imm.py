"""IMM — Influence Maximization via Martingales (Tang et al., SIGMOD 2015).

IMM is the strongest published competitor the paper compares against
(Section 7).  Two phases:

1. **Sampling / LB estimation.**  For x = n/2, n/4, ... it generates
   ``θ_i = λ' / x`` RR sets and runs greedy max-coverage; if the candidate's
   estimated influence clears ``(1+ε')·x`` the loop stops with the lower
   bound ``LB = Î(S_k)/(1+ε')``.  The statistical price of checking *all*
   seed sets at once is the ``ln C(n,k)`` union-bound baked into λ'.
2. **Node selection.**  It tops the pool up to ``θ = λ* / LB`` RR sets and
   returns greedy max-coverage over them.

The two weaknesses the Stop-and-Stare paper targets are visible right in
the structure: λ' and λ* both carry ``ln C(n,k)``, and θ probes a
threshold that was never shown minimal — so IMM's sample count is the
yardstick our Table 3 benchmark compares SSA/D-SSA against.

Following the published IMM, phase 2 *reuses* the phase-1 RR sets.  (The
post-publication erratum showing this reuse slightly breaks independence
is acknowledged in DESIGN.md; it does not affect sample-count comparisons.)

Like the Stop-and-Stare algorithms, the body (:func:`imm_on_context`)
only consumes a prefix of its context's RR stream, so IMM queries share
a warm engine session's pool with D-SSA/TIM — same stream derivation,
same prefix semantics.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.max_coverage import max_coverage
from repro.core.result import IMResult
from repro.core.thresholds import _E_FACTOR  # shared (1 - 1/e) constant
from repro.diffusion.models import DiffusionModel
from repro.engine.context import SamplingContext
from repro.engine.registry import register_algorithm
from repro.exceptions import ParameterError
from repro.graph.digraph import CSRGraph
from repro.sampling.backends import ExecutionBackend
from repro.sampling.roots import UniformRoots, WeightedRoots
from repro.utils.mathstats import binomial_coefficient_ln
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k, check_positive_int


def imm_on_context(
    ctx: SamplingContext,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    max_samples: int | None = None,
) -> IMResult:
    """IMM's two phases against a (possibly warm) sampling context."""
    graph = ctx.graph
    n = graph.n
    check_k(k, n)
    check_epsilon(epsilon)
    delta = check_delta(delta if delta is not None else 1.0 / max(n, 2))
    if max_samples is not None:
        check_positive_int(max_samples, name="max_samples")

    scale = ctx.scale
    ln_binom = binomial_coefficient_ln(n, k)
    ln_inv_delta = math.log(1.0 / delta)

    # Phase-1 constants (Section 4.2 of the IMM paper, with n^{-l} -> delta).
    eps_prime = math.sqrt(2.0) * epsilon
    rounds = max(1, int(math.ceil(math.log2(n))) - 1)
    lambda_prime = (
        (2.0 + 2.0 * eps_prime / 3.0)
        * (ln_binom + ln_inv_delta + math.log(max(math.log2(max(n, 2)), 1.0)))
        * n
        / (eps_prime * eps_prime)
    )
    # Phase-2 constant λ* (Eq. 13 of our paper / Theorem 1 of IMM).
    alpha = math.sqrt(math.log(2.0 / delta))
    beta = math.sqrt(_E_FACTOR * (ln_binom + math.log(2.0 / delta)))
    lambda_star = 2.0 * n * (_E_FACTOR * alpha + beta) ** 2 / (epsilon * epsilon)

    with Timer() as timer:
        used = 0
        lower_bound = 1.0
        iterations = 0
        for i in range(1, rounds + 1):
            iterations += 1
            x = n / (2.0**i)
            theta_i = int(math.ceil(lambda_prime / x))
            if max_samples is not None:
                theta_i = min(theta_i, max_samples)
            used = max(used, theta_i)
            pool = ctx.require(used)
            cover = max_coverage(pool, k, start=0, end=used)
            estimate = cover.influence_estimate(scale)
            if estimate >= (1.0 + eps_prime) * x:
                lower_bound = estimate / (1.0 + eps_prime)
                break
            if max_samples is not None and used >= max_samples:
                lower_bound = max(estimate / (1.0 + eps_prime), 1.0)
                break

        theta = int(math.ceil(lambda_star / lower_bound))
        if max_samples is not None:
            theta = min(theta, max_samples)
        used = max(used, theta)
        pool = ctx.require(used)
        cover = max_coverage(pool, k, start=0, end=theta)

    return IMResult(
        algorithm="IMM",
        seeds=cover.seeds,
        influence=cover.influence_estimate(scale),
        samples=used,
        optimization_samples=used,
        iterations=iterations + 1,
        stopped_by="theta",
        elapsed_seconds=timer.elapsed,
        memory_bytes=ctx.pool.memory_bytes(end=used) + graph.memory_bytes(),
        extras={
            "lower_bound": lower_bound,
            "theta": theta,
            "lambda_prime": lambda_prime,
            "lambda_star": lambda_star,
        },
    )


@register_algorithm(
    "IMM",
    aliases=("imm",),
    description="IMM (Tang et al. 2015): martingale LB estimation + fixed theta",
    engine_func=imm_on_context,
    needs_rr_sets=True,
    supports_backend=True,
    supports_horizon=False,
    accepts=(
        "epsilon",
        "delta",
        "model",
        "seed",
        "roots",
        "max_samples",
        "backend",
        "workers",
        "kernel",
    ),
)
def imm(
    graph: CSRGraph,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    roots: "UniformRoots | WeightedRoots | None" = None,
    max_samples: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    workers: int | None = None,
    kernel=None,
) -> IMResult:
    """Run IMM and return a ``(1-1/e-ε)``-approximate seed set w.h.p.

    ``backend``/``workers`` parallelize RR-set generation (IMM batch
    samples in both phases, so it shards the same way SSA does).  This
    is the one-shot convenience over a throwaway session; use
    :class:`~repro.engine.engine.InfluenceEngine` for warm repeat
    queries.
    """
    ctx = SamplingContext(
        graph, model, seed=seed, roots=roots, backend=backend, workers=workers,
        kernel=kernel,
    )
    try:
        return imm_on_context(
            ctx, k, epsilon=epsilon, delta=delta, max_samples=max_samples
        )
    finally:
        ctx.close()


def imm_sample_requirement(
    n: int, k: int, epsilon: float, delta: float, opt_k: float
) -> float:
    """Analytic θ IMM would need given a *known* OPT_k (for tests/benches)."""
    if opt_k <= 0:
        raise ParameterError(f"opt_k must be positive, got {opt_k}")
    alpha = math.sqrt(math.log(2.0 / delta))
    beta = math.sqrt(
        _E_FACTOR * (binomial_coefficient_ln(n, k) + math.log(2.0 / delta))
    )
    return 2.0 * n * (_E_FACTOR * alpha + beta) ** 2 / (epsilon * epsilon * opt_k)
