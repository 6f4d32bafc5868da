"""Budgeted (cost-aware) influence maximization over RR sets.

The paper's companion work (reference [12], "Cost-aware Targeted Viral
Marketing in billion-scale networks") replaces the cardinality constraint
|S| ≤ k with a knapsack constraint Σ c(v) ≤ B: celebrity endorsements
cost more than micro-influencers.  The RIS reduction is unchanged — only
the coverage subproblem becomes *budgeted* max-coverage, solved here with
the classic Khuller–Moss–Naor scheme (reference [27] of the paper):

* greedy by coverage-per-cost ratio within budget, and
* the best single affordable node,

taking the better of the two, which guarantees a (1-1/√e) fraction of the
optimal coverage (and (1-1/e)/2 in general).

``budgeted_dssa`` runs the D-SSA sampling loop with this selector — a
pragmatic extension: the stopping analysis is calibrated for the
cardinality-constrained greedy, so the approximation constant here is the
budgeted one, not the paper's (1-1/e-ε).  Like D-SSA it reads stream
prefixes from a :class:`~repro.engine.context.SamplingContext`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.max_coverage import MaxCoverageResult
from repro.core.result import IMResult
from repro.core.thresholds import max_iterations, sample_cap
from repro.diffusion.models import DiffusionModel
from repro.engine.context import SamplingContext
from repro.exceptions import ParameterError
from repro.graph.digraph import CSRGraph
from repro.sampling.block import concat_ranges
from repro.sampling.rr_collection import RRCollection, sets_in_range
from repro.utils.mathstats import upsilon
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon


def budgeted_max_coverage(
    collection: RRCollection,
    costs: np.ndarray,
    budget: float,
    *,
    start: int = 0,
    end: int | None = None,
) -> MaxCoverageResult:
    """Budgeted greedy max-coverage (Khuller–Moss–Naor).

    ``costs[v] > 0`` is node v's seeding cost; the returned seed set
    satisfies ``Σ costs ≤ budget``.
    """
    n = collection.n
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (n,):
        raise ParameterError(f"costs must have shape ({n},), got {costs.shape}")
    if np.any(costs <= 0) or not np.all(np.isfinite(costs)):
        raise ParameterError("costs must be positive and finite")
    if budget <= 0:
        raise ParameterError(f"budget must be positive, got {budget}")

    flat, offsets = collection.flat_view(start, end)
    num_sets = len(offsets) - 1
    postings, node_ptr = collection.node_index()
    bounds = np.array([start, start + num_sets], dtype=postings.dtype)
    base_counts = np.bincount(flat, minlength=n).astype(np.float64)

    # Candidate 1: ratio greedy.
    counts = base_counts.copy()
    covered = np.zeros(num_sets, dtype=bool)

    greedy_seeds: list[int] = []
    greedy_marginals: list[int] = []
    remaining = float(budget)
    excluded = np.zeros(n, dtype=bool)
    while True:
        affordable = (~excluded) & (costs <= remaining)
        if not affordable.any():
            break
        ratios = np.where(affordable, counts / costs, -np.inf)
        v = int(np.argmax(ratios))
        if ratios[v] <= 0:
            break
        containing = sets_in_range(postings, node_ptr, v, bounds) - bounds[0]
        newly = containing[~covered[containing]]
        greedy_seeds.append(v)
        greedy_marginals.append(int(newly.size))
        covered[newly] = True
        if newly.size:
            touched = flat[concat_ranges(offsets[newly], offsets[newly + 1])]
            np.subtract.at(counts, touched, 1)
        excluded[v] = True
        remaining -= float(costs[v])
    greedy_cov = int(sum(greedy_marginals))

    # Candidate 2: the best single affordable node.
    single_mask = costs <= budget
    single_cov = 0
    single_seed: list[int] = []
    if single_mask.any():
        masked = np.where(single_mask, base_counts, -1.0)
        best_single = int(np.argmax(masked))
        if masked[best_single] > 0:
            single_cov = int(base_counts[best_single])
            single_seed = [best_single]

    if single_cov > greedy_cov:
        return MaxCoverageResult(
            seeds=single_seed,
            coverage=single_cov,
            num_sets=num_sets,
            marginal_coverage=[single_cov],
        )
    return MaxCoverageResult(
        seeds=greedy_seeds,
        coverage=greedy_cov,
        num_sets=num_sets,
        marginal_coverage=greedy_marginals,
    )


def budgeted_dssa(
    graph: CSRGraph,
    costs: np.ndarray,
    budget: float,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    model: "str | DiffusionModel" = "IC",
    seed: int | np.random.Generator | None = None,
    max_samples: int | None = None,
) -> IMResult:
    """D-SSA's sampling loop with a knapsack seed constraint.

    The stopping rule mirrors Algorithm 4 with the budgeted selector in
    place of Algorithm 2; the quality guarantee inherits the budgeted
    greedy's constant (see module docstring) rather than (1-1/e-ε).
    """
    n = graph.n
    check_epsilon(epsilon)
    delta = check_delta(delta if delta is not None else 1.0 / max(n, 2))
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (n,):
        raise ParameterError(f"costs must have shape ({n},), got {costs.shape}")
    min_cost = float(costs.min()) if n else 0.0
    if budget < min_cost:
        raise ParameterError(
            f"budget {budget} cannot afford any node (cheapest costs {min_cost})"
        )

    # Thresholds are computed against the effective max seed count.
    k_effective = max(1, min(n, int(budget // max(min_cost, 1e-12))))
    n_max = sample_cap(n, min(k_effective, n), epsilon, delta)
    if max_samples is not None:
        n_max = min(n_max, float(max_samples))
    t_max = max_iterations(n, min(k_effective, n), epsilon, delta)
    per_iter_delta = delta / (3.0 * t_max)
    lambda_base = int(math.ceil(upsilon(epsilon, per_iter_delta)))
    lambda_1 = 1.0 + (1.0 + epsilon) * upsilon(epsilon, per_iter_delta)

    with SamplingContext(graph, model, seed=seed) as ctx, Timer() as timer:
        scale = ctx.scale
        cover = None
        influence_hat = 0.0
        iterations = 0
        stopped_by = "cap"
        while True:
            iterations += 1
            half = lambda_base * (2 ** (iterations - 1))
            need = 2 * half
            stream = ctx.require(need)
            cover = budgeted_max_coverage(stream, costs, budget, start=0, end=half)
            influence_hat = cover.influence_estimate(scale)
            verify_cov = stream.coverage(cover.seeds, start=half, end=need) if cover.seeds else 0
            if verify_cov >= lambda_1:
                influence_check = scale * verify_cov / half
                e1 = influence_hat / influence_check - 1.0
                e2 = epsilon * math.sqrt(
                    scale * (1.0 + epsilon) / (2 ** (iterations - 1) * influence_check)
                )
                if (e1 + e2 + e1 * e2) <= epsilon:
                    stopped_by = "conditions"
                    break
            if len(stream) >= n_max:
                break

    return IMResult(
        algorithm="budgeted-D-SSA",
        seeds=cover.seeds,
        influence=influence_hat,
        samples=ctx.sampled,
        optimization_samples=ctx.sampled,
        iterations=iterations,
        stopped_by=stopped_by,
        elapsed_seconds=timer.elapsed,
        memory_bytes=stream.memory_bytes() + graph.memory_bytes(),
        extras={
            "budget": float(budget),
            "spent": float(costs[cover.seeds].sum()) if cover.seeds else 0.0,
        },
    )
