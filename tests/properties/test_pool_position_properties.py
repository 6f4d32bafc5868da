"""Property tests for the pool as the stream position.

A warm pool's length is its stream position: nothing else records where
the stream stands.  Whatever interleaving of top-ups, suffix
truncations, spill-and-reattach into a fresh context, fleet resizes and
graph mutations (with incremental repair) a context goes through, on a
serial or a thread fleet it borrows (as an engine session's pools do),
its pool must hold exactly the per-set reference of stream sets
``[0, len(pool))`` on the current graph.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import GraphDelta, MutableGraphView
from repro.dynamic.repair import repair_context
from repro.engine.context import SamplingContext
from repro.graph import assign_weighted_cascade, powerlaw_configuration
from repro.sampling.backends import make_backend
from repro.sampling.base import make_sampler
from repro.sampling.kernels import reference_block
from repro.sampling.sharded import default_fleet
from repro.service.store import PoolStore, make_stamp

SEED = 2016
GRAPH = assign_weighted_cascade(powerlaw_configuration(40, 3.0, seed=44))

fraction = st.floats(min_value=0.0, max_value=1.0)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("require"), st.integers(0, 60)),
        st.tuples(st.just("truncate"), fraction),
        st.tuples(st.just("spill"), st.just(None)),
        st.tuples(st.just("resize"), st.integers(1, 3)),
        # (edge position as a fraction of m, new weight or None = remove)
        st.tuples(
            st.just("mutate"),
            st.tuples(
                st.floats(min_value=0.0, max_value=0.999),
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
            ),
        ),
    ),
    min_size=1,
    max_size=10,
)


def _edge_delta(graph, position, weight) -> GraphDelta:
    """Remove (``weight is None``) or reweight the edge at ``position``."""
    e = int(position * graph.m)
    u = int(np.searchsorted(graph.out_indptr, e, side="right") - 1)
    v = int(graph.out_indices[e])
    if weight is None:
        return GraphDelta().remove_edge(u, v)
    return GraphDelta().reweight(u, v, weight)


def _assert_pool_is_the_stream(ctx, model):
    want = reference_block(make_sampler(ctx.graph, model, SEED), np.arange(len(ctx.pool)))
    assert [rr.tolist() for rr in ctx.pool.block] == [rr.tolist() for rr in want]


@pytest.mark.parametrize("model", ["IC", "LT"])
@pytest.mark.parametrize("backend,workers", [(None, None), ("thread", 2)])
@given(ops=operations)
@settings(max_examples=50, deadline=None)
def test_pool_holds_stream_prefix_through_every_operation(backend, workers, model, ops):
    view = MutableGraphView(GRAPH)
    name, count = default_fleet(backend, workers)
    fleet = make_backend(name)
    fleet.start(count)

    def fresh():
        graph, version = view.snapshot()
        return SamplingContext(graph, model, seed=SEED, backend=fleet, graph_version=version)

    ctx = fresh()
    with tempfile.TemporaryDirectory() as spill_dir:
        store = PoolStore(spill_dir)
        try:
            for op, arg in ops:
                if op == "require":
                    ctx.require(len(ctx.pool) + arg)
                elif op == "truncate":
                    ctx.truncate(int(arg * len(ctx.pool)))
                elif op == "spill":
                    stamp = make_stamp(
                        ctx.graph, model=model, stream="direct", horizon=None,
                        seed=SEED, sampler=ctx.sampler, graph_version=ctx.graph_version,
                    )
                    store.save(stamp, ctx.pool)
                    ctx.close()
                    ctx = fresh()
                    spilled = store.load(stamp)
                    if spilled is not None:
                        ctx.preload(spilled)
                elif op == "resize":
                    fleet.resize(arg)
                    assert ctx.sampler.workers == arg
                else:
                    delta = _edge_delta(ctx.graph, *arg)
                    graph = view.apply(delta)
                    repair_context(ctx, graph, view.version, delta)
                _assert_pool_is_the_stream(ctx, model)
        finally:
            ctx.close()
            fleet.close()
