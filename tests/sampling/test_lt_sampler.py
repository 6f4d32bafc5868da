"""Tests for LT RR-set generation (reverse random walk)."""

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.generators import cycle_graph, star_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.lt_sampler import LTSampler


class TestStructure:
    def test_root_first(self, small_wc_graph):
        sampler = LTSampler(small_wc_graph, seed=1)
        for root in range(0, small_wc_graph.n, 13):
            rr = sampler.sample(root=root)
            assert rr[0] == root

    def test_nodes_distinct(self, small_wc_graph):
        sampler = LTSampler(small_wc_graph, seed=2)
        for _ in range(200):
            rr = sampler.sample()
            assert len(np.unique(rr)) == len(rr)

    def test_walk_follows_edges(self, small_wc_graph):
        # Consecutive nodes in the RR set must be connected by an in-edge.
        sampler = LTSampler(small_wc_graph, seed=3)
        for _ in range(50):
            rr = sampler.sample().tolist()
            for prev, nxt in zip(rr, rr[1:]):
                assert small_wc_graph.has_edge(nxt, prev)

    def test_cycle_wc_covers_everything(self, cycle_wc):
        # WC cycle: every hop is taken; walk stops only on revisit => full cycle.
        sampler = LTSampler(cycle_wc, seed=4)
        rr = sampler.sample(root=3)
        assert sorted(rr.tolist()) == list(range(8))

    def test_no_in_edges_singleton(self, star_wc):
        # The hub has no in-edges: its RR set is {hub}.
        sampler = LTSampler(star_wc, seed=5)
        assert sampler.sample(root=0).tolist() == [0]

    def test_leaf_walks_to_hub(self, star_wc):
        # Leaves have a single in-edge of weight 1 from the hub.
        sampler = LTSampler(star_wc, seed=6)
        assert sampler.sample(root=4).tolist() == [4, 0]


class TestDistribution:
    def test_stop_probability_residual(self):
        # Node 1 has one in-edge (0 -> 1, w=0.25): RR(1) = {1,0} w.p. 0.25.
        g = from_edges([(0, 1, 0.25)], n=2)
        sampler = LTSampler(g, seed=7)
        hits = sum(1 for _ in range(8000) if len(sampler.sample(root=1)) == 2)
        assert hits / 8000 == pytest.approx(0.25, abs=0.02)

    def test_in_neighbor_chosen_proportionally(self):
        # Node 2 has in-edges from 0 (0.6) and 1 (0.2): given a hop,
        # neighbor 0 is chosen 3x as often; stop probability is 0.2.
        g = from_edges([(0, 2, 0.6), (1, 2, 0.2)], n=3)
        sampler = LTSampler(g, seed=8)
        outcomes = {0: 0, 1: 0, None: 0}
        for _ in range(9000):
            rr = sampler.sample(root=2).tolist()
            outcomes[rr[1] if len(rr) > 1 else None] += 1
        assert outcomes[0] / 9000 == pytest.approx(0.6, abs=0.02)
        assert outcomes[1] / 9000 == pytest.approx(0.2, abs=0.02)
        assert outcomes[None] / 9000 == pytest.approx(0.2, abs=0.02)

    def test_deterministic_with_seed(self, small_wc_graph):
        a = LTSampler(small_wc_graph, seed=9).sample_batch(50)
        b = LTSampler(small_wc_graph, seed=9).sample_batch(50)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestCounters:
    def test_batch_counters(self, small_wc_graph):
        sampler = LTSampler(small_wc_graph, seed=10)
        batch = sampler.sample_batch(15)
        assert sampler.sets_generated == 15
        assert sampler.entries_generated == sum(len(rr) for rr in batch)
        assert len(sampler.sample_batch(0)) == 0
