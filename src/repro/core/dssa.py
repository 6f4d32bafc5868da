"""D-SSA — the Dynamic Stop-and-Stare Algorithm (Algorithm 4).

D-SSA removes SSA's fixed ε-split.  It works on a *single* stream of RR
sets ``R₁, R₂, ...``; at iteration t the first ``Λ·2^(t-1)`` sets (R_t)
feed max-coverage, and the next ``Λ·2^(t-1)`` sets (R^c_t) verify the
candidate.  Because ``R_{t+1} = R_t ∪ R^c_t``, verification samples are
*reused* for optimization next round — the inefficiency the paper calls
out in SSA (Section 5.2 "SSA Limitation") is gone.

Stopping requires both conditions of Section 6:

* **D1** ``Cov_{R^c_t}(Ŝ_k) ≥ Λ₁ = 1 + (1+ε)·Υ(ε, δ/3t_max)`` — the
  verify half carries enough signal for an (ε, ·)-estimate of I(Ŝ_k);
* **D2** ``ε_t = (ε₁+ε₂+ε₁ε₂)(1-1/e-ε) + (1-1/e)·ε₃ ≤ ε`` with the
  precision parameters *measured from the data* (Alg. 4 lines 11–13).

Theorem 5: ``(1-1/e-ε)``-approximation w.h.p.; Theorem 6: sample count
within a constant factor of the type-2 minimum threshold — the strongest
possible guarantee inside the RIS framework.

The algorithm body (:func:`dssa_on_context`) runs on an engine-provided
:class:`~repro.engine.context.SamplingContext` and only ever consumes a
*prefix* of the session's RR stream, so warm
:class:`~repro.engine.engine.InfluenceEngine` queries reuse the cached
pool byte-identically; :func:`dssa` is the one-shot wrapper over a
throwaway context.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.max_coverage import max_coverage
from repro.core.result import IMResult
from repro.core.thresholds import max_iterations, sample_cap
from repro.diffusion.models import DiffusionModel
from repro.engine.context import SamplingContext
from repro.engine.registry import register_algorithm
from repro.graph.digraph import CSRGraph
from repro.sampling.backends import ExecutionBackend
from repro.sampling.roots import UniformRoots, WeightedRoots
from repro.utils.mathstats import upsilon
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k, check_positive_int

_E_FACTOR = 1.0 - 1.0 / math.e


def dssa_on_context(
    ctx: SamplingContext,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    max_samples: int | None = None,
) -> IMResult:
    """Algorithm 4 against a (possibly warm) sampling context.

    Consumes the stream prefix ``[0, need)`` where ``need`` doubles per
    iteration — already-cached sets are served without resampling, and
    the reported ``samples`` is the query's own demand (what a cold run
    would have generated), not the session's lifetime count.
    """
    graph = ctx.graph
    n = graph.n
    check_k(k, n)
    check_epsilon(epsilon)
    delta = check_delta(delta if delta is not None else 1.0 / max(n, 2))
    if max_samples is not None:
        check_positive_int(max_samples, name="max_samples")
    if epsilon >= _E_FACTOR:
        # ε₃'s formula contains √(1-1/e-ε); beyond this the guarantee is vacuous.
        raise ValueError(f"epsilon must be below 1-1/e ≈ {_E_FACTOR:.4f} for D-SSA")

    n_max = sample_cap(n, k, epsilon, delta)
    if max_samples is not None:
        n_max = min(n_max, float(max_samples))
    t_max = max_iterations(n, k, epsilon, delta)
    per_iter_delta = delta / (3.0 * t_max)
    lambda_base = int(math.ceil(upsilon(epsilon, per_iter_delta)))
    lambda_1 = 1.0 + (1.0 + epsilon) * upsilon(epsilon, per_iter_delta)
    scale = ctx.scale

    with Timer() as timer:
        cover = None
        influence_hat = 0.0
        iterations = 0
        need = 0
        stopped_by = "cap"
        epsilon_trace: list[dict] = []

        while True:
            iterations += 1
            half = lambda_base * (2 ** (iterations - 1))
            need = 2 * half
            stream = ctx.require(need)

            cover = max_coverage(stream, k, start=0, end=half)
            influence_hat = cover.influence_estimate(scale)

            verify_cov = stream.coverage(cover.seeds, start=half, end=need)
            record = {
                "iteration": iterations,
                "find_half": half,
                "coverage": cover.coverage,
                "verify_coverage": verify_cov,
                "influence_hat": influence_hat,
            }

            if verify_cov >= lambda_1:  # condition D1
                influence_check = scale * verify_cov / half
                # Dynamic precision parameters (Alg. 4 lines 11-13).  The
                # 2^(t-1) factor follows the paper's normalization (the
                # Λ part of |R_t| is folded into the Υ(ε, ·) term).
                e1 = influence_hat / influence_check - 1.0
                e2 = epsilon * math.sqrt(
                    scale * (1.0 + epsilon) / (2 ** (iterations - 1) * influence_check)
                )
                e3 = epsilon * math.sqrt(
                    scale
                    * (1.0 + epsilon)
                    * (1.0 - 1.0 / math.e - epsilon)
                    / ((1.0 + epsilon / 3.0) * 2 ** (iterations - 1) * influence_check)
                )
                eps_t = (e1 + e2 + e1 * e2) * (1.0 - 1.0 / math.e - epsilon) + _E_FACTOR * e3
                record.update(
                    {
                        "influence_check": influence_check,
                        "epsilon_1": e1,
                        "epsilon_2": e2,
                        "epsilon_3": e3,
                        "epsilon_t": eps_t,
                    }
                )
                if eps_t <= epsilon:  # condition D2
                    stopped_by = "conditions"
                    epsilon_trace.append(record)
                    break
            epsilon_trace.append(record)

            if need >= n_max:
                stopped_by = "cap"
                break

    return IMResult(
        algorithm="D-SSA",
        seeds=cover.seeds,
        influence=influence_hat,
        samples=need,
        optimization_samples=need,
        verification_samples=0,  # verify half is reused, not extra
        iterations=iterations,
        stopped_by=stopped_by,
        elapsed_seconds=timer.elapsed,
        memory_bytes=ctx.pool.memory_bytes(end=need) + graph.memory_bytes(),
        extras={
            "lambda_1": lambda_1,
            "n_max": n_max,
            "t_max": t_max,
            "trace": epsilon_trace,
        },
    )


@register_algorithm(
    "D-SSA",
    aliases=("dssa",),
    description="Dynamic Stop-and-Stare (Alg. 4): one stream, data-driven epsilons",
    engine_func=dssa_on_context,
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
    ),
)
def dssa(
    graph: CSRGraph,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    roots: "UniformRoots | WeightedRoots | None" = None,
    max_samples: int | None = None,
    horizon: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    workers: int | None = None,
    kernel=None,
) -> IMResult:
    """Run D-SSA and return a ``(1-1/e-ε)``-approximate seed set w.h.p.

    Same surface as :func:`repro.core.ssa.ssa` minus the ε-split — D-SSA
    derives ε₁, ε₂, ε₃ from the observed estimates each iteration.
    ``horizon`` switches to the time-critical objective (activations
    within T rounds).  ``backend``/``workers`` parallelize RR-set
    generation (D-SSA consumes a single merged stream, so the guarantees
    are untouched — the merge only needs i.i.d. sets).

    One-shot convenience over a throwaway single-query session; to
    answer several queries against one warm backend and RR pool, use
    :class:`~repro.engine.engine.InfluenceEngine` (byte-identical
    results at equal seeds).
    """
    ctx = SamplingContext(
        graph,
        model,
        seed=seed,
        roots=roots,
        horizon=horizon,
        backend=backend,
        workers=workers,
        kernel=kernel,
    )
    try:
        return dssa_on_context(
            ctx, k, epsilon=epsilon, delta=delta, max_samples=max_samples
        )
    finally:
        ctx.close()
