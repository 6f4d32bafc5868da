"""Engine / pool-manager / service surface of graph mutation."""

import re

import numpy as np
import pytest

from repro.dynamic import GraphDelta, MutableGraphView
from repro.engine import InfluenceEngine
from repro.engine.context import SamplingContext
from repro.exceptions import ParameterError, SamplingError
from repro.service.pool import PoolKey, PoolManager
from repro.service.service import InfluenceService, ServiceError

SEED = 2016
EPS = 0.25


def _existing_edge(graph):
    u = 0
    while graph.out_indptr[u] == graph.out_indptr[u + 1]:
        u += 1
    return u, int(graph.out_indices[graph.out_indptr[u]])


class TestEngineMutate:
    def test_report_and_stats(self, small_wc_graph):
        u, v = _existing_edge(small_wc_graph)
        with InfluenceEngine(small_wc_graph, model="IC", seed=SEED) as engine:
            engine.maximize(4, epsilon=EPS)
            report = engine.mutate(remove=[(u, v)])
            assert report["graph_version"] == 1 == engine.graph_version
            assert report["content_hash"] == engine.graph.fingerprint()
            assert report["m"] == small_wc_graph.m - 1
            assert report["pools"] == 1 and report["pools_retired"] == 0
            assert 0 < report["repair_fraction"] < 1
            stats = engine.stats_snapshot()
            assert stats.mutations == 1
            assert stats.repairs == report["repaired"] > 0
            assert stats.repair_fraction == report["repair_fraction"]

    @pytest.mark.parametrize("algorithm", ["D-SSA", "SSA"])
    def test_queries_after_mutate_match_cold_engine(self, small_wc_graph, algorithm):
        """Repaired pools, SSA's verify pool included, answer like a cold
        session on the mutated graph."""
        u, v = _existing_edge(small_wc_graph)
        delta = GraphDelta().remove_edge(u, v)
        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED) as warm:
            warm.maximize(4, epsilon=EPS, algorithm=algorithm)
            warm.mutate(delta)
            after = warm.maximize(4, epsilon=EPS, algorithm=algorithm)
        mutated = MutableGraphView(small_wc_graph).apply(
            GraphDelta().remove_edge(u, v)
        )
        with InfluenceEngine(mutated, model="LT", seed=SEED) as cold:
            expect = cold.maximize(4, epsilon=EPS, algorithm=algorithm)
        assert after.seeds == expect.seeds
        assert after.samples == expect.samples
        assert after.verification_samples == expect.verification_samples
        assert after.influence == expect.influence

    def test_mutate_without_operations_is_rejected(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="IC", seed=SEED) as engine:
            with pytest.raises(ParameterError):
                engine.mutate()

    def test_node_growth_retires_pools_then_matches_cold(self, small_wc_graph):
        new_node = small_wc_graph.n
        with InfluenceEngine(small_wc_graph, model="IC", seed=SEED) as engine:
            engine.maximize(4, epsilon=EPS)
            report = engine.mutate(add=[(0, new_node, 0.5)])
            assert report["pools_retired"] == 1 and report["pools"] == 0
            assert report["repaired"] == 0
            assert report["repair_fraction"] == 1.0  # full invalidation
            assert report["n"] == new_node + 1
            after = engine.maximize(4, epsilon=EPS)
        grown = MutableGraphView(small_wc_graph).apply(
            GraphDelta().add_edge(0, new_node, 0.5)
        )
        with InfluenceEngine(grown, model="IC", seed=SEED) as cold:
            expect = cold.maximize(4, epsilon=EPS)
        assert after.seeds == expect.seeds and after.samples == expect.samples

    def test_engine_accepts_a_shared_view(self, small_wc_graph):
        view = MutableGraphView(small_wc_graph)
        view.reweight(*_existing_edge(small_wc_graph), 0.9)
        with InfluenceEngine(view, model="IC", seed=SEED) as engine:
            assert engine.graph_version == 1
            assert engine.graph is view.graph

    def test_successive_mutations_compound(self, small_wc_graph):
        u, v = _existing_edge(small_wc_graph)
        with InfluenceEngine(small_wc_graph, model="IC", seed=SEED) as engine:
            engine.maximize(3, epsilon=EPS)
            engine.mutate(remove=[(u, v)])
            engine.mutate(add=[(u, v, 0.4)])
            assert engine.graph_version == 2
            assert engine.stats_snapshot().mutations == 2
            after = engine.maximize(3, epsilon=EPS)
        view = MutableGraphView(small_wc_graph)
        view.remove_edge(u, v)
        final = view.add_edge(u, v, 0.4)
        with InfluenceEngine(final, model="IC", seed=SEED) as cold:
            expect = cold.maximize(3, epsilon=EPS)
        assert after.seeds == expect.seeds


class TestPoolManagerBarrier:
    def test_inflight_queries_block_mutation(self, small_wc_graph):
        manager = PoolManager()
        key = PoolKey("s", "direct", "IC", None, "scalar-v2", 0)

        def factory():
            return SamplingContext(small_wc_graph, "IC", seed=SEED), SEED

        delta = GraphDelta().remove_edge(*_existing_edge(small_wc_graph))
        mutated = MutableGraphView(small_wc_graph).apply(delta)
        try:
            with manager.query(key, factory) as view:
                view.require(20)
                with pytest.raises(SamplingError, match="barrier"):
                    manager.mutate_namespace("s", mutated, 1, delta)
            # quiescent: the same mutation now goes through and rekeys
            report = manager.mutate_namespace("s", mutated, 1, delta)
            assert report["pools"] == 1
            sizes = manager.pool_sizes("s")
            assert ("direct", "IC", None, "scalar-v2", 1) in sizes
            assert ("direct", "IC", None, "scalar-v2", 0) not in sizes
        finally:
            manager.close(spill=False)

    def test_other_namespaces_are_untouched(self, small_wc_graph):
        manager = PoolManager()

        def factory():
            return SamplingContext(small_wc_graph, "IC", seed=SEED), SEED

        for ns in ("a", "b"):
            with manager.query(
                PoolKey(ns, "direct", "IC", None, "scalar-v2", 0), factory
            ) as view:
                view.require(10)
        delta = GraphDelta().remove_edge(*_existing_edge(small_wc_graph))
        mutated = MutableGraphView(small_wc_graph).apply(delta)
        try:
            report = manager.mutate_namespace("a", mutated, 1, delta)
            assert report["pools"] == 1
            assert ("direct", "IC", None, "scalar-v2", 0) in manager.pool_sizes("b")
        finally:
            manager.close(spill=False)


class TestServiceMutate:
    def test_mutate_op_round_trip(self, small_wc_graph):
        u, v = _existing_edge(small_wc_graph)
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="IC", seed=SEED)
            service.call("maximize", k=3, epsilon=EPS)
            report = service.call("mutate", remove=[[u, v]])
            assert report["graph_version"] == 1
            stats = service.call("stats")
            assert stats["graph_version"] == 1
            assert any(key.endswith("/1") for key in stats["pools"])

    def test_mutate_op_validates_params(self, small_wc_graph):
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="IC", seed=SEED)
            with pytest.raises(ServiceError, match="at least one"):
                service.call("mutate")
            with pytest.raises(ServiceError, match="fields"):
                service.call("mutate", add=[[1, 2]])  # adds need a weight
            with pytest.raises(ServiceError, match="unknown parameter"):
                service.call("mutate", remove=[[0, 1]], frobnicate=3)

    def test_structured_delta_wire_form(self, small_wc_graph):
        """The v1 wire form is ``GraphDelta.as_dict()`` under ``delta``."""
        u, v = _existing_edge(small_wc_graph)
        delta = GraphDelta().remove_edge(u, v).add_edge(0, small_wc_graph.n - 1, 0.4)
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="IC", seed=SEED)
            report = service.call("mutate", delta=delta.as_dict())
            assert report["graph_version"] == 1
            assert report["sets_total"] >= report["repaired"] >= 0

    def test_structured_delta_rejects_unknown_and_mixed_fields(self, small_wc_graph):
        u, v = _existing_edge(small_wc_graph)
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="IC", seed=SEED)
            with pytest.raises(ServiceError, match="delta"):
                service.call("mutate", delta={"drop": [[u, v]]})
            with pytest.raises(ServiceError, match="not both"):
                service.call("mutate", delta={"remove": [[u, v]]}, add=[[1, 2, 0.5]])

    def test_string_edge_lists_are_rejected(self, small_wc_graph):
        """The ``"u:v:w,..."`` string form is gone: flat params and the
        structured delta both fail with an error naming the list form,
        and the graph stays at its version."""
        u, v = _existing_edge(small_wc_graph)
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="IC", seed=SEED)
            names_list_form = re.escape("remove must be a list of edge rows [[u, v], ...]")
            with pytest.raises(ServiceError, match=names_list_form):
                service.call("mutate", remove=f"{u}:{v}")
            names_list_form = re.escape("delta.add must be a list of edge rows [[u, v, w], ...]")
            with pytest.raises(ServiceError, match=names_list_form):
                service.call("mutate", delta={"add": f"{u}:{v}:0.5"})
            assert service.call("stats")["graph_version"] == 0
