"""Amortized multi-k influence sweeps.

The figures of the paper sweep k over a wide range, re-running each
algorithm per k.  Greedy max-coverage has a *nested* structure: the
seeds chosen for budget k are a prefix of the seeds chosen for any
k' > k on the same RR pool.  So one D-SSA run at k_max yields, for free,
a coverage-consistent seed prefix and influence estimate for every
smaller k — the cheap way to produce "influence vs k" curves for
planning dashboards.

The guarantee caveat is surfaced honestly: only the k_max point carries
D-SSA's (1-1/e-ε) certificate; prefix points are greedy-on-the-same-pool
estimates (in practice indistinguishable from per-k runs, which
``tests/extensions/test_sweep.py`` checks statistically).  The prefix
curve is scored on a fresh stream's sets ``[0, pool_size)``, sampled by
index on the graph and model the k_max run answered on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dssa import dssa
from repro.core.max_coverage import max_coverage
from repro.diffusion.models import DiffusionModel
from repro.exceptions import ParameterError
from repro.graph.digraph import CSRGraph
from repro.sampling.base import make_sampler
from repro.sampling.rr_collection import RRCollection


@dataclass(frozen=True)
class SweepResult:
    """Influence-vs-k curve from one amortized run.

    ``seeds`` is the k_max greedy ordering; the seed set for any smaller
    k is ``seeds[:k]`` and ``influence_at[k]`` its coverage estimate.
    """

    seeds: list[int]
    influence_at: dict[int, float]
    samples: int
    k_max: int

    def marginal_gains(self) -> list[float]:
        """Influence gain per added seed along the greedy ordering."""
        ks = sorted(self.influence_at)
        values = [self.influence_at[k] for k in ks]
        return [b - a for a, b in zip([0.0] + values, values)]


def influence_sweep(
    graph: CSRGraph,
    k_values: "list[int]",
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    max_samples: int | None = None,
    engine=None,
) -> SweepResult:
    """One D-SSA run at max(k_values); prefix estimates for the rest.

    Pass a warm :class:`~repro.engine.engine.InfluenceEngine` as
    ``engine`` to serve the k_max run from its session pool (byte-
    identical to the one-shot run at the engine's seed; ``graph``,
    ``model`` and ``seed`` are then taken from the session, whose graph
    reflects every ``mutate``).  For a sweep where every point carries
    its own certificate, use ``engine.sweep(ks)`` instead — one
    guaranteed query per k, amortized through the shared pool.
    """
    if engine is not None:
        graph, model = engine.graph, engine.model
    if not k_values:
        raise ParameterError("k_values must be non-empty")
    k_values = sorted(set(int(k) for k in k_values))
    if k_values[0] < 1 or k_values[-1] > graph.n:
        raise ParameterError(f"k values must lie in [1, {graph.n}], got {k_values}")
    k_max = k_values[-1]

    if engine is not None:
        result = engine.maximize(
            k_max,
            epsilon=epsilon,
            delta=delta,
            algorithm="D-SSA",
            max_samples=max_samples,
        )
    else:
        result = dssa(
            graph,
            k_max,
            epsilon=epsilon,
            delta=delta,
            model=model,
            seed=seed,
            max_samples=max_samples,
        )

    # Recover the greedy ordering's prefix coverages on a fresh pool of
    # the same size D-SSA ended with: unbiased prefix estimates that do
    # not reuse the stopping-correlated samples.
    pool_size = max(1000, result.optimization_samples // 2)
    if max_samples is not None:
        pool_size = min(pool_size, max_samples)
    sampler = make_sampler(graph, model, seed=np.random.default_rng(result.samples), roots=None)
    pool = RRCollection(graph.n)
    pool.extend(sampler.sample_block(np.arange(pool_size)))
    cover = max_coverage(pool, k_max)

    influence_at: dict[int, float] = {}
    running = 0
    marginals = cover.marginal_coverage
    for i, k in enumerate(range(1, k_max + 1)):
        running += marginals[i] if i < len(marginals) else 0
        if k in k_values:
            influence_at[k] = graph.n * running / len(pool)

    return SweepResult(
        seeds=cover.seeds,
        influence_at=influence_at,
        samples=result.samples + pool_size,
        k_max=k_max,
    )
