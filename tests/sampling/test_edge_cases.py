"""Edge-case tests for the sampling substrate."""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder, from_edges
from repro.sampling.base import make_sampler
from repro.sampling.roots import WeightedRoots
from repro.sampling.rr_collection import RRCollection


class TestDegenerateGraphs:
    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_edgeless_graph_singletons(self, model):
        g = GraphBuilder(n=12).build()
        sampler = make_sampler(g, model, seed=1)
        for rr in sampler.sample_batch(50):
            assert rr.size == 1

    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_single_edge_graph(self, model):
        g = from_edges([(0, 1, 1.0)], n=2)
        sampler = make_sampler(g, model, seed=2)
        for _ in range(20):
            rr = sampler.sample(root=1)
            assert sorted(rr.tolist()) == [0, 1]

    def test_two_node_graph_weight_half(self):
        g = from_edges([(0, 1, 0.5)], n=2)
        sampler = make_sampler(g, "IC", seed=3)
        sizes = [len(sampler.sample(root=1)) for _ in range(4000)]
        assert np.mean([s == 2 for s in sizes]) == pytest.approx(0.5, abs=0.03)


class TestWrisEdgeCases:
    def test_single_positive_benefit(self, small_wc_graph):
        benefits = np.zeros(small_wc_graph.n)
        benefits[7] = 3.0
        sampler = make_sampler(
            small_wc_graph, "LT", seed=4, roots=WeightedRoots(benefits)
        )
        for rr in sampler.sample_batch(30):
            assert rr[0] == 7  # the only possible root

    def test_wris_with_horizon(self, small_wc_graph):
        benefits = np.ones(small_wc_graph.n)
        sampler = make_sampler(
            small_wc_graph,
            "IC",
            seed=5,
            roots=WeightedRoots(benefits),
            max_hops=1,
        )
        for rr in sampler.sample_batch(50):
            root = int(rr[0])
            in_neigh = set(small_wc_graph.in_neighbors(root).tolist())
            assert set(rr.tolist()) <= in_neigh | {root}

    def test_scale_is_total_benefit(self, small_wc_graph):
        benefits = np.full(small_wc_graph.n, 2.5)
        sampler = make_sampler(
            small_wc_graph, "LT", seed=6, roots=WeightedRoots(benefits)
        )
        assert sampler.scale == pytest.approx(2.5 * small_wc_graph.n)


class TestCollectionStress:
    def test_many_small_appends(self):
        coll = RRCollection(10)
        for i in range(500):
            coll.extend([np.asarray([i % 10], dtype=np.int32)])
            # Interleave queries so the lazy flat view recompiles often.
            if i % 97 == 0:
                assert coll.coverage([0]) >= 0
        assert len(coll) == 500
        assert coll.coverage([3]) == 50

    def test_wide_sets(self):
        coll = RRCollection(1000)
        coll.extend([np.arange(1000, dtype=np.int32)])
        assert coll.coverage([999]) == 1
        assert coll.node_frequencies().sum() == 1000

    def test_interleaved_range_queries(self):
        coll = RRCollection(5)
        for i in range(20):
            coll.extend([np.asarray([i % 5], dtype=np.int32)])
        for start in range(0, 20, 5):
            assert coll.coverage([start % 5], start=start, end=start + 5) >= 1
