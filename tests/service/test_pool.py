"""PoolManager semantics: snapshots, budgets, LRU eviction."""

import json

import numpy as np
import pytest

from repro.engine.context import SamplingContext
from repro.sampling.rr_collection import RRCollection, RRSnapshot
from repro.service.pool import PoolKey, PoolManager

SEED = 2016


def _key(namespace="s", stream="direct", model="LT", horizon=None):
    return PoolKey(namespace, stream, model, horizon)


def _factory(graph, horizon=None, seed=SEED):
    def build():
        return SamplingContext(graph, "LT", seed=seed, horizon=horizon), seed

    return build


class TestSnapshots:
    def test_snapshot_is_frozen_while_pool_grows(self):
        pool = RRCollection(10)
        pool.extend([np.array([1, 2]), np.array([3])])
        snap = pool.snapshot()
        pool.extend([np.array([4, 5, 6])] * 100)
        assert isinstance(snap, RRSnapshot)
        assert len(snap) == 2 and len(pool) == 102
        assert snap.total_entries == 3
        assert list(snap[0]) == [1, 2] and list(snap[1]) == [3]
        # reads agree with the source prefix even after heavy growth
        assert snap.coverage([1]) == pool.coverage([1], start=0, end=2)
        assert (snap.node_frequencies() == pool.node_frequencies(start=0, end=2)).all()

    def test_snapshot_supports_the_algorithm_read_api(self):
        pool = RRCollection(6)
        pool.extend([np.array([0, 1]), np.array([2]), np.array([1, 3])])
        snap = pool.snapshot(2)
        flat, offsets = snap.flat_view(0, 2)
        assert list(flat) == [0, 1, 2] and list(offsets) == [0, 2, 3]
        assert snap.memory_bytes(end=2) == pool.memory_bytes(end=2)
        assert snap.nbytes == 12
        assert snap.estimate_influence([1], 6.0) == pool.estimate_influence(
            [1], 6.0, start=0, end=2
        )

    def test_query_view_counts_only_its_own_sampling(self, small_wc_graph):
        manager = PoolManager()
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            first = view.require(50)
            assert view.sampled == 50 and len(first) == 50
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            again = view.require(30)  # fully cached
            assert view.sampled == 0
            assert len(again) >= 30
            grown = view.require(80)
            assert view.sampled == 30
            assert len(grown) == 80


class TestBudget:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(Exception):
            PoolManager(budget_bytes=0)

    def test_idle_pools_evicted_lru_first(self, small_wc_graph):
        manager = PoolManager(budget_bytes=1)  # everything idle must go
        with manager.query(_key(horizon=2), _factory(small_wc_graph, horizon=2)) as view:
            view.require(100)
        with manager.query(_key(horizon=None), _factory(small_wc_graph)) as view:
            view.require(100)
            # the horizon=2 pool is idle and older -> evicted; this one is busy
            assert ("direct", "LT", 2, "v3", 0) not in manager.pool_sizes("s")
            assert len(view.pool) >= 0  # snapshot still usable mid-flight
        assert manager.evictions_for("s") == 2
        assert manager.pool_sizes("s") == {}
        assert manager.total_bytes() == 0

    def test_budget_respected_with_idle_working_set(self, small_wc_graph):
        # budget fits roughly one pool: with three pools the older ones go
        probe = PoolManager()
        with probe.query(_key(), _factory(small_wc_graph)) as view:
            view.require(400)
            one_pool_bytes = view.pool.nbytes
        budget = int(one_pool_bytes * 1.5)
        manager = PoolManager(budget_bytes=budget)
        for horizon in (2, 3, None):
            with manager.query(_key(horizon=horizon), _factory(small_wc_graph, horizon=horizon)) as view:
                view.require(400)
        assert manager.total_bytes() <= budget
        assert manager.evictions_for("s") >= 1
        # the survivor is the most recently used pool (LRU eviction order)
        assert ("direct", "LT", None, "v3", 0) in manager.pool_sizes("s")

    def test_inflight_pools_never_evicted(self, small_wc_graph):
        manager = PoolManager(budget_bytes=1)
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            view.require(200)  # far over budget, but this query is in flight
            assert ("direct", "LT", None, "v3", 0) in manager.pool_sizes("s")
            assert len(view.require(250)) == 250  # keeps answering correctly
        # once idle, the budget wins
        assert manager.pool_sizes("s") == {}

    def test_suffix_truncation_keeps_the_hot_head(self, small_wc_graph):
        """Under byte pressure a big idle pool sheds its suffix first:
        sets [0, keep) survive, and the next over-demand continues the
        stream from the pool's length byte-exactly."""
        probe = PoolManager()
        with probe.query(_key(), _factory(small_wc_graph)) as view:
            full = view.require(400)
            reference = [rr.tolist() for rr in (full[i] for i in range(400))]
            bytes_at_300 = 4 * sum(len(rr) for rr in reference[:300])
        probe.close()

        manager = PoolManager(budget_bytes=bytes_at_300, suffix_min_sets=50)
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            view.require(400)
        # idle now: the budget forced a truncation, not an eviction
        assert manager.truncations_for("s") >= 1
        assert manager.evictions_for("s") == 0
        (size,) = manager.pool_sizes("s").values()
        assert 0 < size < 400
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            regrown = view.require(400)
            assert view.sampled == 400 - size  # only the suffix resampled
            assert [list(regrown[i]) for i in range(400)] == reference
        manager.close()

    def test_truncation_halves_until_eviction(self, small_wc_graph):
        """A pool that cannot fit even its truncated prefix keeps halving
        and is finally evicted whole — the budget always wins."""
        manager = PoolManager(budget_bytes=1, suffix_min_sets=50)
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            view.require(400)
        assert manager.pool_sizes("s") == {}
        assert manager.truncations_for("s") >= 1
        assert manager.evictions_for("s") == 1
        assert manager.total_bytes() == 0
        manager.close()

    def test_truncation_spills_the_full_prefix_first(self, small_wc_graph, tmp_path):
        """Disk keeps the longest prefix: truncation spills the full pool
        and later (shorter) spills must not clobber it."""
        manager = PoolManager(budget_bytes=1_000, suffix_min_sets=50, spill_dir=tmp_path)
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            view.require(400)
        manager.close()
        from repro.service.store import PoolStore

        (path,) = PoolStore(tmp_path).files()
        with np.load(path) as archive:
            header = json.loads(bytes(archive["header"]).decode())
        assert header["count"] == 400  # the full prefix, not the truncated one

        # and a fresh manager reattaches all 400 sets from it
        fresh = PoolManager(spill_dir=tmp_path)
        with fresh.query(_key(), _factory(small_wc_graph)) as view:
            got = view.require(400)
            assert view.sampled == 0
            assert len(got) == 400
        fresh.close()

    def test_fleet_rebind_skips_concurrently_evicted_entries(self, small_wc_graph):
        """rebind_namespace collects entries outside their locks; one
        retired in between must be skipped, not raise 'context closed'."""
        from repro.sampling.backends import make_backend

        manager = PoolManager()
        with manager.query(_key(), _factory(small_wc_graph)) as view:
            view.require(20)
        entry = next(iter(manager._entries.values()))
        entry.ctx.close()  # retired between collection and its entry lock
        fleet = make_backend("thread")
        fleet.start(2)
        try:
            assert manager.rebind_namespace("s", fleet) == 0  # skip, no exception
        finally:
            fleet.close()
        manager.close()

    def test_namespaces_are_isolated(self, small_wc_graph):
        manager = PoolManager()
        with manager.query(_key("a"), _factory(small_wc_graph)) as view:
            view.require(40)
        with manager.query(_key("b"), _factory(small_wc_graph, seed=7)) as view:
            view.require(10)
        assert manager.pool_sizes("a") == {("direct", "LT", None, "v3", 0): 40}
        assert manager.pool_sizes("b") == {("direct", "LT", None, "v3", 0): 10}
        assert manager.bytes_for("a") > 0
        manager.release_namespace("a")
        assert manager.pool_sizes("a") == {}
        assert manager.pool_sizes("b") == {("direct", "LT", None, "v3", 0): 10}
        manager.close()
