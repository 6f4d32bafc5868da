"""Elastic-worker acceptance: the merged RR stream is seed-pure.

The pinned property: the merged stream is byte-identical across
workers ∈ {1, 2, 4}, all three execution backends, and across a
mid-stream worker resize — for plain RIS, for WRIS roots and for a
horizon-truncated stream, whose root distribution and hop cap must
reach the workers intact.  Process-backend cells run on a shared
fixture (spawning fleets is expensive); the in-process cells run the
full matrix.  Kernel names select nothing and never reach a worker;
``TestCrossNameIdentity`` in ``test_kernels.py`` is their check.
"""

import numpy as np
import pytest

from repro.sampling.base import make_sampler
from repro.sampling.roots import WeightedRoots
from repro.sampling.sharded import ShardedSampler

SEED = 2016
SETS = 60
#: stream configurations that ship to the workers with the graph.
CONFIGS = ("plain", "wris", "horizon")


def _options(config, graph):
    options = {}
    if "wris" in config:
        benefits = np.arange(graph.n, dtype=np.float64) % 3  # a third never roots
        options["roots"] = WeightedRoots(benefits)
    if "horizon" in config:
        options["max_hops"] = 2
    return options


def _stream(sampler, count=SETS, batches=(23, 30, 7)):
    try:
        return [rr.tolist() for size in batches for rr in sampler.sample_batch(size)]
    finally:
        sampler.close()


@pytest.fixture(scope="module", params=["LT", "IC"])
def reference(request, module_graph):
    """The plain (coordinator-free) sampler defines each stream."""
    model = request.param
    return {
        config: _stream(make_sampler(module_graph, model, SEED, **_options(config, module_graph)))
        for config in CONFIGS
    }, model


@pytest.fixture(scope="module")
def module_graph():
    from repro.graph import assign_weighted_cascade, powerlaw_configuration

    return assign_weighted_cascade(powerlaw_configuration(120, 4.0, seed=42))


class TestWorkerAndBackendInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_merged_stream_matches_plain(
        self, module_graph, reference, workers, backend, config
    ):
        streams, model = reference
        sampler = ShardedSampler(
            module_graph, model, workers, seed=SEED, backend=backend,
            **_options(config, module_graph),
        )
        assert _stream(sampler) == streams[config]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_mid_stream_resize_is_byte_invisible(self, module_graph, reference, config):
        streams, model = reference
        sampler = ShardedSampler(
            module_graph, model, 2, seed=SEED, backend="thread",
            **_options(config, module_graph),
        )
        try:
            first = [rr.tolist() for rr in sampler.sample_batch(19)]
            sampler.resize(4)
            second = [rr.tolist() for rr in sampler.sample_batch(21)]
            sampler.resize(1)
            third = [rr.tolist() for rr in sampler.sample_batch(20)]
        finally:
            sampler.close()
        assert first + second + third == streams[config]

    def test_configurations_give_distinct_streams(self, reference):
        # Guards the matrix: a config that failed to change the stream
        # would make its cells vacuous.
        streams, _ = reference
        assert len({str(stream) for stream in streams.values()}) == len(CONFIGS)

    def test_resize_rebalances_load(self, module_graph):
        sampler = ShardedSampler(module_graph, "LT", 2, seed=SEED, backend="thread")
        try:
            sampler.sample_batch(10)
            sampler.resize(5)
            assert sampler.workers == 5
            runs = sampler.backend.sample_shards(sampler.registration, np.arange(10, 30))
            assert [len(run) for run in runs] == [4] * 5
        finally:
            sampler.close()


#: the spawn-heavy process matrix runs plain RIS, and WRIS roots under a
#: horizon, which must both cross the process boundary.
PROCESS_CONFIGS = ("plain", "wris+horizon")


@pytest.fixture(scope="module")
def process_streams(module_graph):
    """One spawn-heavy pass: workers {1, 2, 4} + a mid-stream resize on
    the process backend, per configuration, single fixture."""
    out = {}
    for config in PROCESS_CONFIGS:
        options = _options(config, module_graph)
        per_workers = {}
        for workers in (1, 2, 4):
            sampler = ShardedSampler(
                module_graph, "LT", workers, seed=SEED, backend="process", **options
            )
            per_workers[workers] = _stream(sampler)
        sampler = ShardedSampler(module_graph, "LT", 1, seed=SEED, backend="process", **options)
        try:
            resized = [rr.tolist() for rr in sampler.sample_batch(25)]
            sampler.resize(4)
            resized += [rr.tolist() for rr in sampler.sample_batch(35)]
        finally:
            sampler.close()
        out[config] = {"per_workers": per_workers, "resized": resized}
    return out


class TestProcessBackendMatrix:
    @pytest.mark.parametrize("config", PROCESS_CONFIGS)
    def test_all_worker_counts_agree_with_plain(self, module_graph, process_streams, config):
        options = _options(config, module_graph)
        plain = _stream(make_sampler(module_graph, "LT", SEED, **options))
        for workers, stream in process_streams[config]["per_workers"].items():
            assert stream == plain, f"workers={workers}"
        assert process_streams[config]["resized"] == plain


class TestElasticUnbiasedness:
    def test_resized_stream_estimates_match_oracle(self, tiny_graph):
        """Lemma 1 across a resize: the merged stream stays i.i.d."""
        from repro.sampling.rr_collection import RRCollection
        from tests.oracles import exact_ic_spread

        sampler = ShardedSampler(tiny_graph, "IC", 1, seed=22, backend="serial")
        try:
            coll = RRCollection(tiny_graph.n)
            coll.extend(sampler.sample_batch(10_000))
            sampler.resize(4)
            coll.extend(sampler.sample_batch(10_000))
            estimate = coll.estimate_influence([0], sampler.scale)
        finally:
            sampler.close()
        assert estimate == pytest.approx(exact_ic_spread(tiny_graph, [0]), rel=0.06)
