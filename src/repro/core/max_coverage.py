"""Greedy maximum coverage over RR sets (Algorithm 2).

Standard (1 - 1/e)-approximate greedy: repeatedly take the node covering
the most not-yet-covered RR sets.  Implemented with the classic linear-time
counting scheme: per-node coverage counts are maintained incrementally —
when a set becomes covered, the counts of *all* its members drop by one —
so the total work is O(Σ|R_j| + n·k) rather than O(n · k · Σ|R_j|).  The
sets containing each pick come from the pool's node→set index
(:meth:`~repro.sampling.rr_collection.RRCollection.node_index`), which
the pool keeps current across calls instead of every call re-sorting it.
Runs are memoized per range in the pool's greedy memo
(:class:`~repro.sampling.rr_collection.GreedyMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ParameterError
from repro.sampling.block import concat_ranges
from repro.sampling.rr_collection import RRCollection, sets_in_range


@dataclass(frozen=True)
class MaxCoverageResult:
    """Outcome of greedy max-coverage on a range of RR sets.

    ``coverage`` is Cov_R(S); ``marginal_coverage[i]`` is the number of
    newly covered sets when the i-th seed was added (non-increasing by
    submodularity — a property test pins this).
    """

    seeds: list[int]
    coverage: int
    num_sets: int
    marginal_coverage: list[int] = field(default_factory=list)

    def influence_estimate(self, scale: float) -> float:
        """``Î(S) = Γ · Cov(S) / |R|`` (Lemma 1 rearranged)."""
        if self.num_sets == 0:
            raise ParameterError("no RR sets behind this coverage result")
        return scale * self.coverage / self.num_sets


def max_coverage(
    collection: RRCollection,
    k: int,
    *,
    start: int = 0,
    end: int | None = None,
) -> MaxCoverageResult:
    """Greedily pick ``k`` nodes maximizing RR-set coverage in [start, end).

    If coverage saturates before k picks (every set already covered), the
    remaining seeds are filled with the lowest-index unchosen nodes — the
    paper's algorithms always return exactly k seeds.

    Greedy is prefix-closed: the first k picks and marginals of a longer
    run are exactly the k run's, fill included.  So a range whose memo
    entry holds at least k picks is answered from it, and a run is
    published only when it is longer than the entry already stored.
    """
    n = collection.n
    if not 1 <= k <= n:
        raise ParameterError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    end = collection.resolve_range(start, end)
    memo = collection.greedy_memo
    run = memo.get(start, end)
    if run is None or run[0].size < k:
        run = _greedy(collection, k, start, end)
        memo.publish(start, end, *run)
    seeds, marginals = run[0][:k], run[1][:k]
    return MaxCoverageResult(seeds.tolist(), int(marginals.sum()), end - start, marginals.tolist())


def _greedy(collection: RRCollection, k: int, start: int, end: int) -> tuple[np.ndarray, ...]:
    """Read-only ``(seeds, marginals)`` of greedy's first k picks."""
    n = collection.n
    flat, offsets = collection.flat_view(start, end)
    num_sets = len(offsets) - 1
    # The pool's node→set index; each pick's sets in the range are one
    # slice of its postings.
    postings, node_ptr = collection.node_index()
    bounds = np.array([start, start + num_sets], dtype=postings.dtype)

    counts = np.bincount(flat, minlength=n).astype(np.int64)
    chosen = np.zeros(n, dtype=bool)
    covered = np.zeros(num_sets, dtype=bool)

    seeds: list[int] = []
    marginals: list[int] = []

    for _ in range(k):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break  # coverage exhausted; fill below
        seeds.append(best)
        chosen[best] = True

        containing = sets_in_range(postings, node_ptr, best, bounds) - bounds[0]
        newly = containing[~covered[containing]]
        marginals.append(int(newly.size))
        covered[newly] = True
        if newly.size:
            touched = flat[concat_ranges(offsets[newly], offsets[newly + 1])]
            np.subtract.at(counts, touched, 1)
        counts[best] = -1  # never re-pick

    if len(seeds) < k:
        for v in range(n):
            if not chosen[v]:
                seeds.append(v)
                chosen[v] = True
                marginals.append(0)
                if len(seeds) == k:
                    break

    run = np.array(seeds, dtype=np.int64), np.array(marginals, dtype=np.int64)
    run[0].flags.writeable = run[1].flags.writeable = False
    return run
