"""Incremental repair: byte-identical to cold resample, on every backend.

The acceptance property of dynamic graphs: after ``repair_context``, the
warm pool equals — array for array — a pool sampled cold on the mutated
graph, across execution backends, while resampling only the
invalidated fraction.
"""

import numpy as np
import pytest

from repro.dynamic import GraphDelta, MutableGraphView
from repro.dynamic.repair import repair_context
from repro.engine.context import SamplingContext
from repro.exceptions import SamplingError
from repro.sampling.backends import make_backend

SEED = 2016
POOL = 300

BACKENDS = [
    pytest.param(None, None, id="serial"),
    pytest.param("thread", 2, id="thread"),
    pytest.param("process", 2, id="process"),
    pytest.param("network", 2, id="network"),
]


def _localized_delta(graph):
    """A delta removing one edge, reweighting another and inserting a
    third — small blast radius, so the repair fraction must stay well
    below 1.  The insert targets the lowest node that can take one, so
    it shifts the in-CSR position of nearly every other edge: a coin
    keyed on position instead of on (u, v) would change sets the delta
    never touched, and the repaired pool would differ from a cold one."""
    edges = []
    for u in range(graph.n):
        for v in graph.out_indices[graph.out_indptr[u] : graph.out_indptr[u + 1]]:
            edges.append((u, int(v)))
        if len(edges) >= 2 and edges[-1][1] != edges[0][1]:
            break
    (u, v), (ru, rv) = edges[0], edges[-1]
    add_u, add_v = next(
        (cand_u, cand_v)
        for cand_v in range(graph.n)
        for cand_u in range(graph.n - 1, -1, -1)
        if cand_u != cand_v and not graph.has_edge(cand_u, cand_v)
    )
    return (
        GraphDelta().remove_edge(u, v).reweight(ru, rv, 0.05).add_edge(add_u, add_v, 0.3)
    )


class TestByteIdentity:
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_repaired_pool_equals_cold_resample(
        self, small_wc_graph, model, backend, workers
    ):
        delta = _localized_delta(small_wc_graph)
        warm = SamplingContext(
            small_wc_graph, model, seed=SEED, backend=backend, workers=workers
        )
        try:
            warm.require(POOL)
            mutated = MutableGraphView(small_wc_graph).apply(delta)
            stats = repair_context(warm, mutated, 1, delta)
            assert 0 < stats["invalidated"] < POOL
            assert stats["repair_fraction"] == pytest.approx(
                stats["invalidated"] / POOL
            )
            with SamplingContext(mutated, model, seed=SEED) as cold:
                cold.require(POOL)
                for i in range(POOL):
                    assert np.array_equal(warm.pool[i], cold.pool[i]), i
                # the stream continues identically past the repair point
                warm.require(POOL + 50)
                cold.require(POOL + 50)
                for i in range(POOL, POOL + 50):
                    assert np.array_equal(warm.pool[i], cold.pool[i]), i
        finally:
            warm.close()

    def test_sets_not_containing_the_target_are_not_resampled(
        self, small_wc_graph, monkeypatch
    ):
        """The repair is *incremental*: it samples exactly the invalidated
        ids, and every other set keeps its bytes — no wasted resampling."""
        delta = _localized_delta(small_wc_graph)
        ctx = SamplingContext(small_wc_graph, "IC", seed=SEED)
        try:
            ctx.require(POOL)
            before = [ctx.pool[i] for i in range(POOL)]
            from repro.dynamic.index import RRSetIndex
            from repro.sampling.base import RRSampler

            invalid = set(
                RRSetIndex.from_collection(ctx.pool).invalidated_by(delta).tolist()
            )
            asked: list[int] = []
            sample_block = RRSampler.sample_block

            def spy(self, indices, roots=None):
                asked.extend(np.asarray(indices).tolist())
                return sample_block(self, indices, roots)

            monkeypatch.setattr(RRSampler, "sample_block", spy)
            mutated = MutableGraphView(small_wc_graph).apply(delta)
            repair_context(ctx, mutated, 1, delta)
            assert invalid and sorted(asked) == sorted(invalid)
            for i in range(POOL):
                if i not in invalid:
                    assert np.array_equal(ctx.pool[i], before[i])
        finally:
            ctx.close()

    def test_fleet_move_after_a_mutation_keeps_the_lineage(self, small_wc_graph):
        """Moving a repaired serial context onto a thread fleet keeps its
        graph_version and snapshot, and the stream continues as cold."""
        delta = _localized_delta(small_wc_graph)
        ctx = SamplingContext(small_wc_graph, "IC", seed=SEED)
        fleet = make_backend("thread")
        fleet.start(2)
        try:
            ctx.require(50)
            mutated = MutableGraphView(small_wc_graph).apply(delta)
            repair_context(ctx, mutated, 1, delta)
            ctx.rebind_fleet(fleet)
            assert ctx.sampler.workers == 2 and ctx.sampler.backend is fleet
            assert ctx.graph_version == 1 and ctx.sampler.graph is mutated
            ctx.require(80)
            with SamplingContext(mutated, "IC", seed=SEED) as cold:
                cold.require(80)
                for i in range(80):
                    assert np.array_equal(ctx.pool[i], cold.pool[i]), i
        finally:
            ctx.close()
            fleet.close()

    def test_node_growth_refuses_in_place_rebind(self, small_wc_graph):
        delta = GraphDelta().add_edge(0, small_wc_graph.n, 0.5)
        ctx = SamplingContext(small_wc_graph, "IC", seed=SEED)
        try:
            ctx.require(20)
            grown = MutableGraphView(small_wc_graph).apply(delta)
            with pytest.raises(SamplingError, match="node count"):
                ctx.rebind_graph(grown, 1)
        finally:
            ctx.close()
