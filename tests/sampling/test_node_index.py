"""The pool's node→set index and the readers built on it.

Greedy, budgeted greedy, coverage and the dynamic invalidation index
all read one incremental index per pool; each must reproduce the
per-call argsort implementations kept in ``tests/oracles.py``.
"""

import numpy as np
import pytest

from repro.core.max_coverage import max_coverage
from repro.dynamic import RRSetIndex
from repro.extensions.budgeted import budgeted_max_coverage
from repro.sampling.rr_collection import RRCollection, stable_node_order
from tests.oracles import (
    reference_budgeted_max_coverage,
    reference_coverage,
    reference_max_coverage,
    reference_node_index,
)


def random_sets(rng, n, count, max_size=8):
    sizes = rng.integers(0, min(n, max_size) + 1, size=count)
    return [rng.choice(n, size=int(size), replace=False).astype(np.int32) for size in sizes]


def grown_pool(n, sets, chunks):
    """A pool appended chunk by chunk, its index extended after each."""
    pool = RRCollection(n)
    bounds = np.linspace(0, len(sets), chunks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pool.extend(sets[lo:hi])
        pool.node_index()
    return pool


class TestStableNodeOrder:
    @pytest.mark.parametrize(
        "n, size",
        [(1, 0), (1, 1), (7, 1), (2**16, 50_000), (2**16 + 1, 50_000), (3_000_000, 80_000)],
    )
    def test_equals_stable_argsort(self, n, size):
        keys = np.random.default_rng(n + size).integers(0, n, size).astype(np.int32)
        expected = np.argsort(keys, kind="stable")
        assert stable_node_order(keys, n).tolist() == expected.tolist()

    def test_ties_keep_input_order(self):
        keys = np.array([70000, 5, 70000, 5, 65537, 0], dtype=np.int32)
        assert stable_node_order(keys, 140000).tolist() == [5, 1, 3, 4, 0, 2]


class TestIndexShape:
    def test_postings_ascend_and_partition_entries(self):
        rng = np.random.default_rng(1)
        sets = random_sets(rng, 40, 300)
        pool = grown_pool(40, sets, 5)
        postings, node_ptr = pool.node_index()
        assert node_ptr[-1] == pool.total_entries == postings.size
        for v in range(40):
            ids = postings[node_ptr[v] : node_ptr[v + 1]]
            assert ids.tolist() == [i for i, s in enumerate(sets) if v in s]

    def test_chunked_growth_equals_one_build(self):
        rng = np.random.default_rng(2)
        sets = random_sets(rng, 30, 200)
        for chunks in (1, 2, 7, 200):
            postings, node_ptr = grown_pool(30, sets, chunks).node_index()
            ref_postings, ref_ptr = reference_node_index(grown_pool(30, sets, 1))
            assert postings.tolist() == ref_postings.tolist()
            assert node_ptr.tolist() == ref_ptr.tolist()

    def test_arrays_are_replaced_not_written(self):
        pool = RRCollection(5)
        pool.extend([np.array([0, 1], dtype=np.int32), np.array([1], dtype=np.int32)])
        postings, node_ptr = pool.node_index()
        frozen = postings.copy(), node_ptr.copy()
        pool.extend([np.array([1, 4], dtype=np.int32)])
        grown, _ = pool.node_index()
        assert grown is not postings
        assert (postings == frozen[0]).all() and (node_ptr == frozen[1]).all()
        assert grown.tolist() == [0, 0, 1, 2, 2]

    def test_truncate_and_replace_drop_the_index(self):
        pool = RRCollection(4)
        pool.extend([np.array([0], dtype=np.int32), np.array([1], dtype=np.int32)])
        assert pool.coverage([1]) == 1
        pool.replace_many({1: np.array([2], dtype=np.int32)})
        assert pool.coverage([1]) == 0 and pool.coverage([2]) == 1
        pool.truncate(1)
        assert pool.coverage([2]) == 0
        assert pool.node_index()[1].tolist() == [0, 1, 1, 1, 1]

    def test_snapshot_shares_the_pool_index(self):
        pool = RRCollection(6)
        pool.extend([np.array([i % 6], dtype=np.int32) for i in range(10)])
        snap = pool.snapshot(4)
        assert snap.node_index()[0] is pool.node_index()[0]
        # The index covers sets past the snapshot; readers stay inside it.
        assert snap.coverage([0, 1, 2, 3, 4, 5]) == 4
        assert RRSetIndex.from_collection(snap).sets_containing([0, 4]).tolist() == [0]


class TestReadersMatchReferences:
    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_matches_argsort_greedy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        sets = random_sets(rng, n, int(rng.integers(1, 400)))
        pool = grown_pool(n, sets, int(rng.integers(1, 6)))
        snap = pool.snapshot()
        for start, end in ((0, len(sets)), (0, len(sets) // 2), (len(sets) // 3, len(sets))):
            for k in (1, 3, min(n, 12)):
                expected = reference_max_coverage(pool, k, start=start, end=end)
                assert max_coverage(pool, k, start=start, end=end) == expected
                assert max_coverage(snap, k, start=start, end=end) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_budgeted_greedy_matches_argsort_greedy(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 60))
        sets = random_sets(rng, n, int(rng.integers(1, 400)))
        pool = grown_pool(n, sets, 3)
        costs = rng.uniform(0.2, 3.0, size=n)
        for start, end in ((0, len(sets)), (len(sets) // 2, len(sets))):
            for budget in (0.5, 2.0, 8.0):
                expected = reference_budgeted_max_coverage(
                    pool, costs, budget, start=start, end=end
                )
                got = budgeted_max_coverage(pool, costs, budget, start=start, end=end)
                assert got == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_coverage_matches_gather_and_cumsum(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 60))
        sets = random_sets(rng, n, int(rng.integers(0, 300)))
        pool = grown_pool(n, sets, 4)
        snap = pool.snapshot()
        count = len(sets)
        for _ in range(20):
            start = int(rng.integers(0, count + 1))
            end = int(rng.integers(start, count + 1))
            seeds = rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False)
            expected = reference_coverage(pool, seeds, start=start, end=end)
            assert pool.coverage(seeds, start=start, end=end) == expected
            assert snap.coverage(seeds, start=start, end=end) == expected

    def test_invalidation_matches_unique_of_postings(self):
        rng = np.random.default_rng(9)
        sets = random_sets(rng, 50, 500)
        pool = grown_pool(50, sets, 3)
        index = RRSetIndex.from_collection(pool)
        for nodes in ([0], [3, 3, 49], list(range(0, 50, 7))):
            expected = sorted({i for i, s in enumerate(sets) if set(s) & set(nodes)})
            got = index.sets_containing(nodes)
            assert got.dtype == np.int64 and got.tolist() == expected
