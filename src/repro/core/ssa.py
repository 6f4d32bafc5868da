"""SSA — the Stop-and-Stare Algorithm (Algorithm 1).

SSA interleaves two sample pools:

* ``R`` — the optimization pool, doubled every iteration, fed to greedy
  max-coverage to get a candidate seed set ``Ŝ_k``;
* an **independent** verification stream consumed by Estimate-Inf
  (Algorithm 3) whenever the candidate passes the coverage precondition.

Stopping requires both conditions of Section 4.1:

* **C1** ``Cov_R(Ŝ_k) ≥ Λ₁ = (1+ε₁)(1+ε₂)·Υ(ε₃, δ/3i_max)`` — enough
  coverage that the optimum's influence is estimated within ε₃;
* **C2** ``Î(Ŝ_k) ≤ (1+ε₁)·Ic(Ŝ_k)`` — the optimization-pool estimate
  agrees with the independent error-bounded estimate.

If neither fires before the pool reaches ``N_max``, the cap itself
guarantees the approximation (Lemma 4).  Theorem 2: the returned set is a
``(1-1/e-ε)``-approximation with probability ≥ 1-δ; Theorem 3: the sample
count is within a constant factor of a type-1 minimum threshold.

The body (:func:`ssa_on_context`) reads two
:class:`~repro.engine.context.SamplingContext` pools, seeded with the two
children of ``spawn_rngs(seed, 2)``: the optimization pool ``[0, used)``
of the ``split`` stream, and the ``verify`` stream, which Estimate-Inf
reads by position from where the previous check stopped.  Both are
cacheable prefixes, so a warm engine query samples nothing it has
sampled before and stays byte-identical to :func:`ssa` at equal seeds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.estimate_inf import estimate_influence
from repro.core.max_coverage import max_coverage
from repro.core.result import IMResult
from repro.core.thresholds import (
    EpsilonSplit,
    default_epsilon_split,
    max_iterations,
    sample_cap,
)
from repro.diffusion.models import DiffusionModel
from repro.engine.context import SamplingContext
from repro.engine.registry import register_algorithm
from repro.graph.digraph import CSRGraph
from repro.sampling.backends import ExecutionBackend
from repro.sampling.roots import UniformRoots, WeightedRoots
from repro.utils.mathstats import upsilon
from repro.utils.rng import spawn_rngs
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k, check_positive_int


def ssa_on_context(
    ctx: SamplingContext,
    verify: SamplingContext,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    max_samples: int | None = None,
    split: EpsilonSplit | None = None,
) -> IMResult:
    """Algorithm 1 against (possibly warm) optimization and verification
    contexts.

    The optimization pool is ``ctx``'s prefix ``[0, used)`` with
    ``used`` doubling per iteration.  Each Estimate-Inf check reads
    ``verify`` from the position the previous check stopped at, so the
    query consumes the verification prefix ``[0, verified)``; the sets
    do not depend on the candidate, only where each check stops does.
    """
    graph = ctx.graph
    n = graph.n
    check_k(k, n)
    check_epsilon(epsilon)
    delta = check_delta(delta if delta is not None else 1.0 / max(n, 2))
    if max_samples is not None:
        check_positive_int(max_samples, name="max_samples")
    split = split if split is not None else default_epsilon_split(epsilon)
    split.validate(epsilon, tolerance=1e-6)
    e1, e2, e3 = split.epsilon_1, split.epsilon_2, split.epsilon_3

    n_max = sample_cap(n, k, epsilon, delta)
    if max_samples is not None:
        n_max = min(n_max, float(max_samples))
    i_max = max_iterations(n, k, epsilon, delta)
    per_iter_delta = delta / (3.0 * i_max)
    lambda_base = upsilon(epsilon, per_iter_delta)
    lambda_1 = (1.0 + e1) * (1.0 + e2) * upsilon(e3, per_iter_delta)

    scale = ctx.scale
    verified = 0

    with Timer() as timer:
        # The first iteration doubles to 2·⌈Λ⌉ and requires that prefix in
        # one batch; materializing the ⌈Λ⌉ prefix here would be the same
        # stream (batch-invariant) with one extra backend fan-out.
        used = int(math.ceil(lambda_base))

        cover = None
        iterations = 0
        stopped_by = "cap"
        epsilon_trace: list[dict] = []

        while True:
            iterations += 1
            used *= 2  # double R
            pool = ctx.require(used)
            cover = max_coverage(pool, k, start=0, end=used)
            influence_hat = cover.influence_estimate(scale)

            record = {
                "iteration": iterations,
                "pool": used,
                "coverage": cover.coverage,
                "influence_hat": influence_hat,
            }

            if cover.coverage >= lambda_1:  # condition C1
                t_max = int(
                    math.ceil(2.0 * used * (1.0 + e2) / (1.0 - e2) * (e3 * e3) / (e2 * e2))
                )
                check = estimate_influence(
                    verify, cover.seeds, e2, per_iter_delta, t_max, start=verified
                )
                verified += check.samples_used
                record["verify_samples"] = check.samples_used
                record["influence_check"] = check.influence
                if check.influence is not None and influence_hat <= (1.0 + e1) * check.influence:
                    stopped_by = "conditions"  # C2 met
                    epsilon_trace.append(record)
                    break
            epsilon_trace.append(record)

            if used >= n_max:
                stopped_by = "cap"
                break

    return IMResult(
        algorithm="SSA",
        seeds=cover.seeds,
        influence=cover.influence_estimate(scale),
        samples=used + verified,
        optimization_samples=used,
        verification_samples=verified,
        iterations=iterations,
        stopped_by=stopped_by,
        elapsed_seconds=timer.elapsed,
        memory_bytes=ctx.pool.memory_bytes(end=used) + graph.memory_bytes(),
        extras={
            "epsilon_split": (e1, e2, e3),
            "lambda_1": lambda_1,
            "n_max": n_max,
            "i_max": i_max,
            "trace": epsilon_trace,
        },
    )


@register_algorithm(
    "SSA",
    aliases=("ssa",),
    description="Stop-and-Stare (Alg. 1): doubling pool + independent verification",
    engine_func=ssa_on_context,
    streams=("split", "verify"),
    needs_rr_sets=True,
    supports_backend=True,
    supports_horizon=True,
    accepts=(
        "epsilon",
        "delta",
        "model",
        "seed",
        "roots",
        "max_samples",
        "horizon",
        "backend",
        "workers",
        "kernel",
        "split",
    ),
)
def ssa(
    graph: CSRGraph,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    split: EpsilonSplit | None = None,
    roots: "UniformRoots | WeightedRoots | None" = None,
    max_samples: int | None = None,
    horizon: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    workers: int | None = None,
    kernel=None,
) -> IMResult:
    """Run SSA and return a ``(1-1/e-ε)``-approximate seed set w.h.p.

    Parameters
    ----------
    graph:
        Weighted influence graph.
    k:
        Seed budget.
    epsilon, delta:
        Approximation and failure parameters; ``delta`` defaults to the
        paper's ``1/n``.
    model:
        ``"IC"`` or ``"LT"``.
    seed:
        RNG seed; two independent child streams are spawned for the
        optimization and verification pools.
    split:
        Optional explicit (ε₁, ε₂, ε₃); defaults to Section 4.2's
        recommendation.  Must satisfy Eq. 18.
    roots:
        Optional root distribution — pass a
        :class:`~repro.sampling.roots.WeightedRoots` to solve the TVM
        objective instead of plain IM.
    max_samples:
        Optional hard override of the ``N_max`` cap (testing/budgeting).
    horizon:
        Optional time-critical cap T: the objective becomes the expected
        number of activations within T rounds (RR sets are truncated to
        T reverse hops, the exact dual of T-round cascades).
    backend, workers:
        Parallel execution of the sampling: backend name
        (``"serial"``, ``"thread"``, ``"process"``) and worker count.
        The optimization and verification streams share one fleet.

    One-shot convenience over a throwaway single-query session; use
    :class:`~repro.engine.engine.InfluenceEngine` to answer many
    queries against one warm backend and RR pool.
    """
    # One spawn: a Generator seed's spawn counter moves on every call.
    main_seed, verify_seed = spawn_rngs(seed, 2)
    with SamplingContext(
        graph, model, seed=main_seed, roots=roots, horizon=horizon,
        backend=backend, workers=workers, kernel=kernel,
    ) as ctx, SamplingContext(
        # Borrows ctx's started fleet, and is released before ctx closes it.
        graph, model, seed=verify_seed, roots=roots, horizon=horizon,
        backend=ctx.sampler.backend,
    ) as verify:
        return ssa_on_context(
            ctx, verify, k, epsilon=epsilon, delta=delta, max_samples=max_samples, split=split
        )
