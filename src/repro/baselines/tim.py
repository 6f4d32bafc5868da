"""TIM and TIM+ (Tang, Xiao, Shi — SIGMOD 2014).

TIM is the two-step RIS skeleton with an explicit sample threshold
``θ = λ / KPT``, where λ carries the ``ln C(n,k)`` union bound (Eq. 12 of
the Stop-and-Stare paper) and KPT is a lower bound on OPT_k obtained by
the KPT-estimation procedure (Alg. 2 of the TIM paper): RR sets are
generated in doubling batches, and each set R contributes
``κ(R) = 1 - (1 - width(R)/m)^k`` — the probability a random size-k seed
set covers R — until the running mean clears the current scale's bar.

Because ``KPT ≤ OPT_k`` with no matching upper bound, θ overshoots by the
unbounded ratio ``OPT_k / KPT`` — precisely shortcoming (1) the
Stop-and-Stare paper lists for prior art.

TIM+ adds an intermediate refinement: greedy on a small pool proposes a
seed set whose influence is estimated on fresh samples, and
``KPT+ = max(KPT, Î/(1+ε'))`` tightens θ before the main run.

Both variants run on an engine-provided sampling context
(:func:`tim_on_context`), consuming only stream prefixes — so warm
:class:`~repro.engine.engine.InfluenceEngine` sessions share one pool
between TIM, TIM+, IMM, and D-SSA.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.max_coverage import max_coverage
from repro.core.result import IMResult
from repro.diffusion.models import DiffusionModel
from repro.engine.context import SamplingContext
from repro.engine.registry import register_algorithm
from repro.graph.digraph import CSRGraph
from repro.sampling.backends import ExecutionBackend
from repro.utils.mathstats import binomial_coefficient_ln
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k, check_positive_int


def _kpt_estimation(
    ctx: SamplingContext,
    k: int,
    delta: float,
    *,
    max_samples: int | None,
) -> tuple[float, int]:
    """KPT lower-bound estimation (TIM paper, Algorithm 2).

    Consumes a stream prefix of ``ctx`` and returns ``(KPT, used)`` —
    the sets it consumed stay in the pool for the later phases (and for
    any other query of the session) to reuse.  KPT ≥ 1 (the trivial
    lower bound when estimation falls through).
    """
    graph = ctx.graph
    n, m = graph.n, graph.m
    if m == 0:
        return 1.0, 0
    log_n = max(math.log2(n), 2.0)
    base_count = 6.0 * math.log(1.0 / delta) + 6.0 * math.log(log_n)
    in_degrees = np.diff(graph.in_indptr)
    used = 0
    for i in range(1, int(log_n)):
        c_i = int(math.ceil(base_count * (2.0**i)))
        if max_samples is not None:
            c_i = min(c_i, max_samples)
        start = used
        used += c_i
        flat, offsets = ctx.require(used).flat_view(start, used)
        # width(R): the edges of G entering nodes of R.  Every RR set
        # holds its root, so no reduceat segment is empty.
        widths = np.add.reduceat(in_degrees[flat], offsets[:-1])
        kappa_sum = 0.0
        for width in widths.tolist():
            kappa_sum += 1.0 - (1.0 - width / m) ** k
        if kappa_sum / c_i > 1.0 / (2.0**i):
            return max(1.0, n * kappa_sum / (2.0 * c_i)), used
        if max_samples is not None and used >= max_samples:
            break
    return 1.0, used


def tim_on_context(
    ctx: SamplingContext,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    max_samples: int | None = None,
    refine: bool = False,
) -> IMResult:
    """TIM (``refine=False``) / TIM+ (``refine=True``) on a context."""
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

    with Timer() as timer:
        kpt, used = _kpt_estimation(ctx, k, delta, max_samples=max_samples)
        kpt_refined = kpt

        if refine and used > 0:
            # TIM+ intermediate step: propose seeds from the existing pool,
            # then bound their influence from a fresh batch of the same size.
            eps_prime = min(0.9, math.sqrt(2.0) * epsilon)
            proposal = max_coverage(ctx.pool, k, start=0, end=used)
            fresh_count = min(used, max_samples or used)
            fresh_start = used
            used += fresh_count
            pool = ctx.require(used)
            fresh_cov = pool.coverage(proposal.seeds, start=fresh_start, end=used)
            estimate = scale * fresh_cov / fresh_count
            kpt_refined = max(kpt, estimate / (1.0 + eps_prime))

        lam = (8.0 + 2.0 * epsilon) * n * (ln_inv_delta + ln_binom + math.log(2.0)) / (
            epsilon * epsilon
        )
        theta = int(math.ceil(lam / kpt_refined))
        if max_samples is not None:
            theta = min(theta, max_samples)
        theta = max(theta, 1)
        used = max(used, theta)
        pool = ctx.require(used)
        cover = max_coverage(pool, k, start=0, end=theta)

    return IMResult(
        algorithm="TIM+" if refine else "TIM",
        seeds=cover.seeds,
        influence=cover.influence_estimate(scale),
        samples=used,
        optimization_samples=used,
        iterations=1,
        stopped_by="theta",
        elapsed_seconds=timer.elapsed,
        memory_bytes=ctx.pool.memory_bytes(end=used) + graph.memory_bytes(),
        extras={"kpt": kpt, "kpt_refined": kpt_refined, "theta": theta},
    )


def _one_shot(
    graph, k, *, refine, epsilon, delta, model, seed, max_samples, backend, workers,
    kernel,
):
    ctx = SamplingContext(
        graph, model, seed=seed, backend=backend, workers=workers, kernel=kernel
    )
    try:
        return tim_on_context(
            ctx, k, epsilon=epsilon, delta=delta, max_samples=max_samples, refine=refine
        )
    finally:
        ctx.close()


def tim_plus_on_context(ctx, k, **kwargs) -> IMResult:
    """TIM+ body (``tim_on_context`` with the refinement step on)."""
    return tim_on_context(ctx, k, refine=True, **kwargs)


_TIM_ACCEPTS = (
    "epsilon", "delta", "model", "seed", "max_samples", "backend", "workers", "kernel"
)


@register_algorithm(
    "TIM",
    aliases=("tim",),
    description="TIM (Tang et al. 2014): KPT estimation + one-shot RIS at theta",
    engine_func=tim_on_context,
    needs_rr_sets=True,
    supports_backend=True,
    supports_horizon=False,
    accepts=_TIM_ACCEPTS,
)
def tim(
    graph: CSRGraph,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    max_samples: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    workers: int | None = None,
    kernel=None,
) -> IMResult:
    """TIM: KPT estimation, then one-shot RIS at ``θ = λ/KPT``."""
    return _one_shot(
        graph, k, refine=False, epsilon=epsilon, delta=delta, model=model,
        seed=seed, max_samples=max_samples, backend=backend, workers=workers,
        kernel=kernel,
    )


@register_algorithm(
    "TIM+",
    aliases=("tim+", "tim_plus", "timplus"),
    description="TIM+ : TIM with the intermediate KPT refinement step",
    engine_func=tim_plus_on_context,
    needs_rr_sets=True,
    supports_backend=True,
    supports_horizon=False,
    accepts=_TIM_ACCEPTS,
)
def tim_plus(
    graph: CSRGraph,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    max_samples: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    workers: int | None = None,
    kernel=None,
) -> IMResult:
    """TIM+: TIM with the intermediate KPT refinement step."""
    return _one_shot(
        graph, k, refine=True, epsilon=epsilon, delta=delta, model=model,
        seed=seed, max_samples=max_samples, backend=backend, workers=workers,
        kernel=kernel,
    )
