"""Tests for the sharded sampler's coordinator behaviour (default backend).

Backend-specific coverage (thread/process equivalence, shared-memory
transport) lives in ``test_backends.py``.
"""

import numpy as np
import pytest

from repro.core.dssa import dssa
from repro.exceptions import SamplingError
from repro.sampling.rr_collection import RRCollection
from repro.sampling.sharded import ShardedSampler

from tests.oracles import exact_ic_spread


class TestBasics:
    def test_batch_size_and_counters(self, small_wc_graph):
        sampler = ShardedSampler(small_wc_graph, "LT", workers=4, seed=1)
        batch = sampler.sample_batch(101)
        assert len(batch) == 101
        assert sampler.sets_generated == 101

    def test_deterministic(self, small_wc_graph):
        a = ShardedSampler(small_wc_graph, "LT", workers=3, seed=3).sample_batch(30)
        b = ShardedSampler(small_wc_graph, "LT", workers=3, seed=3).sample_batch(30)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_workers_validation(self, small_wc_graph):
        with pytest.raises(SamplingError):
            ShardedSampler(small_wc_graph, "LT", workers=0)

    def test_single_sample_path(self, small_wc_graph):
        sampler = ShardedSampler(small_wc_graph, "IC", workers=2, seed=4)
        rr = sampler.sample()
        assert rr.size >= 1
        assert sampler.sets_generated == 1


class TestStatisticalEquivalence:
    def test_unbiased_like_single_stream(self, tiny_graph):
        """Merged shard stream must satisfy Lemma 1 like a single stream."""
        sampler = ShardedSampler(tiny_graph, "IC", workers=5, seed=5)
        coll = RRCollection(tiny_graph.n)
        coll.extend(sampler.sample_batch(20_000))
        estimate = coll.estimate_influence([0], sampler.scale)
        assert estimate == pytest.approx(exact_ic_spread(tiny_graph, [0]), rel=0.06)

    def test_worker_streams_differ(self, small_wc_graph):
        sampler = ShardedSampler(small_wc_graph, "LT", workers=2, seed=6)
        batch = sampler.sample_batch(40)
        evens = [rr.tolist() for rr in batch[0::2]]
        odds = [rr.tolist() for rr in batch[1::2]]
        assert evens != odds  # independent shards produce distinct streams


class TestDropInCompatibility:
    def test_dssa_runs_on_sharded_stream(self, medium_wc_graph):
        """D-SSA accepts any RRSampler — run it over 4 simulated workers."""
        from repro.core.max_coverage import max_coverage
        from repro.sampling.rr_collection import RRCollection

        sampler = ShardedSampler(medium_wc_graph, "LT", workers=4, seed=7)
        # Drive the two-step framework over the sharded stream directly.
        coll = RRCollection(medium_wc_graph.n)
        coll.extend(sampler.sample_batch(4000))
        sharded_cover = max_coverage(coll, 5)
        single = dssa(medium_wc_graph, 5, epsilon=0.2, model="LT", seed=7)
        overlap = set(sharded_cover.seeds) & set(single.seeds)
        assert len(overlap) >= 2  # same influential core surfaces
