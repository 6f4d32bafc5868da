"""Exact influence-spread oracles for tiny graphs.

Both IC and LT admit a *live-edge* characterization (Kempe et al. 2003):

* IC — every edge (u, v) is independently live with probability w(u, v);
  I(S) is the expected number of nodes reachable from S over live edges.
* LT — every node keeps at most one incoming edge, edge (u, v) with
  probability w(u, v) (none with the residual); same reachability.

For graphs with a handful of edges we can enumerate all live-edge worlds
and compute I(S) *exactly*, giving tests a ground truth that Monte Carlo
and RIS estimates must converge to.

The module also keeps reference implementations of the RR-pool readers
that predate the pool's node→set index: greedy and budgeted greedy that
argsort the range on every call, gather-and-cumsum coverage, and a
from-scratch index build.  The index-backed readers must reproduce them
exactly.  TIM's KPT estimation is kept here as its per-set width loop,
which the block-wise estimation must reproduce to the last bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.max_coverage import MaxCoverageResult
from repro.exceptions import SamplingError
from repro.graph.digraph import CSRGraph


def _reachable(n: int, adjacency: dict[int, list[int]], seeds: list[int]) -> int:
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def exact_ic_spread(graph: CSRGraph, seeds: list[int]) -> float:
    """Exact I(S) under IC by enumerating all 2^m live-edge worlds.

    Only feasible for m ≲ 18; tests keep their graphs tiny.
    """
    edges = [(int(u), int(v)) for u, v in graph.edges().tolist()]
    weights = [graph.edge_weight(u, v) for u, v in edges]
    m = len(edges)
    if m > 20:
        raise ValueError(f"exact_ic_spread is exponential in m; got m={m}")
    total = 0.0
    for mask in range(1 << m):
        prob = 1.0
        adjacency: dict[int, list[int]] = {}
        for i, ((u, v), w) in enumerate(zip(edges, weights)):
            if mask >> i & 1:
                prob *= w
                adjacency.setdefault(u, []).append(v)
            else:
                prob *= 1.0 - w
        if prob == 0.0:
            continue
        total += prob * _reachable(graph.n, adjacency, seeds)
    return total


def exact_lt_spread(graph: CSRGraph, seeds: list[int]) -> float:
    """Exact I(S) under LT via the live-edge view: each node keeps at most
    one in-edge (edge (u,v) with probability w(u,v), none with the
    residual probability).  Enumerates the product of per-node choices.
    """
    choices_per_node: list[list[tuple[int | None, float]]] = []
    for v in range(graph.n):
        sources = graph.in_neighbors(v).tolist()
        weights = graph.in_edge_weights(v).tolist()
        options: list[tuple[int | None, float]] = [
            (u, w) for u, w in zip(sources, weights) if w > 0
        ]
        residual = 1.0 - sum(w for _, w in options)
        if residual > 1e-12:
            options.append((None, residual))
        choices_per_node.append(options)

    world_count = 1
    for options in choices_per_node:
        world_count *= len(options)
    if world_count > 200_000:
        raise ValueError(f"exact_lt_spread would enumerate {world_count} worlds")

    total = 0.0
    for combo in itertools.product(*choices_per_node):
        prob = 1.0
        adjacency: dict[int, list[int]] = {}
        for v, (u, w) in enumerate(combo):
            prob *= w
            if u is not None:
                adjacency.setdefault(int(u), []).append(v)
        if prob == 0.0:
            continue
        total += prob * _reachable(graph.n, adjacency, seeds)
    return total


def brute_force_opt(
    graph: CSRGraph, k: int, model: str, *, exact: bool = True
) -> tuple[list[int], float]:
    """OPT_k by exhausting all size-k seed sets against the exact oracle."""
    oracle = exact_ic_spread if model.upper() == "IC" else exact_lt_spread
    best_seeds: list[int] = []
    best_value = -1.0
    for combo in itertools.combinations(range(graph.n), k):
        value = oracle(graph, list(combo))
        if value > best_value:
            best_value = value
            best_seeds = list(combo)
    return best_seeds, best_value


# ----------------------------------------------------------------------
# Reference RR-pool readers (per-call argsort; no shared index)
# ----------------------------------------------------------------------
def _reference_concat(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    return (
        np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)]).astype(np.int64)
        if len(starts)
        else np.zeros(0, dtype=np.int64)
    )


def _reference_inverted(flat: np.ndarray, offsets: np.ndarray, n: int):
    """(order, node_starts, set_of_entry) by a stable argsort of ``flat``."""
    num_sets = len(offsets) - 1
    order = np.argsort(flat, kind="stable")
    node_starts = np.searchsorted(flat[order], np.arange(n + 1))
    set_of_entry = np.repeat(np.arange(num_sets, dtype=np.int64), np.diff(offsets))
    return order, node_starts, set_of_entry


def reference_node_index(collection) -> tuple[np.ndarray, np.ndarray]:
    """``(postings, node_ptr)`` of the whole collection, built from scratch."""
    flat, offsets = collection.flat_view()
    order, node_starts, set_of_entry = _reference_inverted(flat, offsets, collection.n)
    return set_of_entry[order].astype(np.int32), node_starts.astype(np.int64)


def reference_coverage(collection, seeds, *, start: int = 0, end: int | None = None) -> int:
    """``Cov_R(S)`` by gathering every entry of the range and cumsumming hits."""
    flat, offsets = collection.flat_view(start, end)
    seed_arr = np.asarray(list(seeds), dtype=np.int64)
    if seed_arr.size and (seed_arr.min() < 0 or seed_arr.max() >= collection.n):
        raise SamplingError("seed id out of range in coverage query")
    seed_mask = np.zeros(collection.n, dtype=bool)
    seed_mask[seed_arr] = True
    cum = np.concatenate(([0], np.cumsum(seed_mask[flat])))
    return int(((cum[offsets[1:]] - cum[offsets[:-1]]) > 0).sum())


def reference_max_coverage(collection, k: int, *, start: int = 0, end: int | None = None):
    """Greedy max-coverage that re-sorts the range on every call."""
    n = collection.n
    flat, offsets = collection.flat_view(start, end)
    num_sets = len(offsets) - 1
    counts = np.bincount(flat, minlength=n).astype(np.int64)
    chosen = np.zeros(n, dtype=bool)
    covered = np.zeros(num_sets, dtype=bool)
    order, node_starts, set_of_entry = _reference_inverted(flat, offsets, n)
    seeds: list[int] = []
    marginals: list[int] = []
    for _ in range(k):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break
        seeds.append(best)
        chosen[best] = True
        containing = set_of_entry[order[node_starts[best] : node_starts[best + 1]]]
        newly = containing[~covered[containing]]
        marginals.append(int(newly.size))
        covered[newly] = True
        if newly.size:
            np.subtract.at(counts, flat[_reference_concat(offsets[newly], offsets[newly + 1])], 1)
        counts[best] = -1
    for v in range(n):
        if len(seeds) == k:
            break
        if not chosen[v]:
            seeds.append(v)
            marginals.append(0)
    return MaxCoverageResult(
        seeds=seeds, coverage=int(sum(marginals)), num_sets=num_sets,
        marginal_coverage=marginals,
    )


def reference_budgeted_max_coverage(
    collection, costs: np.ndarray, budget: float, *, start: int = 0, end: int | None = None
):
    """Khuller–Moss–Naor budgeted greedy that re-sorts the range per call."""
    n = collection.n
    costs = np.asarray(costs, dtype=np.float64)
    flat, offsets = collection.flat_view(start, end)
    num_sets = len(offsets) - 1
    base_counts = np.bincount(flat, minlength=n).astype(np.float64)
    counts = base_counts.copy()
    covered = np.zeros(num_sets, dtype=bool)
    order, node_starts, set_of_entry = _reference_inverted(flat, offsets, n)
    seeds: list[int] = []
    marginals: list[int] = []
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
        containing = set_of_entry[order[node_starts[v] : node_starts[v + 1]]]
        newly = containing[~covered[containing]]
        seeds.append(v)
        marginals.append(int(newly.size))
        covered[newly] = True
        if newly.size:
            np.subtract.at(counts, flat[_reference_concat(offsets[newly], offsets[newly + 1])], 1)
        excluded[v] = True
        remaining -= float(costs[v])
    greedy_cov = int(sum(marginals))
    masked = np.where(costs <= budget, base_counts, -1.0)
    best_single = int(np.argmax(masked))
    if masked[best_single] > 0 and int(base_counts[best_single]) > greedy_cov:
        single_cov = int(base_counts[best_single])
        return MaxCoverageResult(
            seeds=[best_single], coverage=single_cov, num_sets=num_sets,
            marginal_coverage=[single_cov],
        )
    return MaxCoverageResult(
        seeds=seeds, coverage=greedy_cov, num_sets=num_sets, marginal_coverage=marginals
    )


# ----------------------------------------------------------------------
# Reference TIM KPT estimation (one RR set at a time)
# ----------------------------------------------------------------------
def rr_width(graph: CSRGraph, rr_set: np.ndarray) -> int:
    """width(R): number of edges of G entering nodes of R."""
    return int(np.diff(graph.in_indptr)[rr_set].sum())


def reference_kpt_estimation(ctx, k: int, delta: float, *, max_samples=None):
    """``(KPT, used)`` of TIM's Algorithm 2, summing κ(R) set by set."""
    graph = ctx.graph
    n, m = graph.n, graph.m
    if m == 0:
        return 1.0, 0
    log_n = max(math.log2(n), 2.0)
    base_count = 6.0 * math.log(1.0 / delta) + 6.0 * math.log(log_n)
    used = 0
    for i in range(1, int(log_n)):
        c_i = int(math.ceil(base_count * (2.0**i)))
        if max_samples is not None:
            c_i = min(c_i, max_samples)
        start = used
        used += c_i
        pool = ctx.require(used)
        kappa_sum = 0.0
        for j in range(start, used):
            kappa_sum += 1.0 - (1.0 - rr_width(graph, pool[j]) / m) ** k
        if kappa_sum / c_i > 1.0 / (2.0**i):
            return max(1.0, n * kappa_sum / (2.0 * c_i)), used
        if max_samples is not None and used >= max_samples:
            break
    return 1.0, used
