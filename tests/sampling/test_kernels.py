"""RR engine acceptance: one stream for every kernel name, and agreement.

Three layers of guarantees:

* **one stream** — every accepted kernel name gives the same bytes, and
  so do replays, batchings, block widths and the serial/thread/process
  execution backends; pools, spill stamps and sampler states carry one
  ``stream_id`` with no kernel name in it;
* **against the reference** — the lockstep IC and LT paths emit exactly
  the per-set reference loops' bytes (``reference_block``);
* **distributionally** — independent seeds sample the same RR-set law,
  which a KS check on RR sizes and an influence-estimate comparison
  verify.
"""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.graph.weights import assign_constant_weights
from repro.sampling.base import make_sampler, resolve_kernel
from repro.sampling.kernels import (
    KERNEL_NAMES as ALL_NAMES,
    KERNELS,
    SamplingKernel,
    make_kernel,
    reference_block,
)
from repro.sampling.roots import WeightedRoots
from repro.sampling.sharded import ShardedSampler

SEED = 2016


def same_sets(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.fixture
def viral_graph(er_graph):
    """IC in the wide-frontier regime (constant p: wide frontiers, many
    coins per BFS step)."""
    return assign_constant_weights(er_graph, 0.35)


class TestRegistry:
    def test_default_is_the_scalar_name(self):
        assert make_kernel(None) is KERNELS["scalar"]

    def test_names_resolve_case_insensitively(self):
        assert make_kernel("Vectorized") is KERNELS["vectorized"]

    def test_instances_pass_through(self):
        assert make_kernel(SamplingKernel("batched")) is KERNELS["batched"]

    def test_unknown_kernel_is_rejected(self):
        with pytest.raises(SamplingError, match="unknown sampling kernel"):
            make_kernel("simd")
        with pytest.raises(SamplingError, match="unknown sampling kernel"):
            make_kernel(SamplingKernel("simd"))

    def test_five_names_are_accepted(self):
        assert ALL_NAMES == ("scalar", "vectorized", "batched", "lt-batched", "auto")
        for name in ALL_NAMES:
            assert make_kernel(name).name == name

    def test_no_stream_id_contains_a_kernel_name(self, small_wc_graph):
        for name in ALL_NAMES:
            sampler = make_sampler(small_wc_graph, "IC", SEED, kernel=name)
            assert sampler.stream_id == "v3"
            assert sampler.kernel.name == name


class TestLockstepEqualsReference:
    """The lockstep paths against the per-set reference loops."""

    @pytest.mark.parametrize("max_hops", [None, 0, 2])
    def test_ic_stream_matches_reference_loop(self, viral_graph, max_hops):
        sampler = make_sampler(viral_graph, "IC", SEED, max_hops=max_hops)
        indices = np.arange(200)
        assert same_sets(sampler.sample_batch(200), reference_block(sampler, indices))

    @pytest.mark.parametrize("max_hops", [None, 0, 2])
    def test_lt_stream_matches_reference_walk(self, small_wc_graph, max_hops):
        sampler = make_sampler(small_wc_graph, "LT", SEED, max_hops=max_hops)
        indices = np.arange(200)
        assert same_sets(sampler.sample_batch(200), reference_block(sampler, indices))


class TestWithinKernelByteIdentity:
    def test_replay_and_batching_invariance(self, viral_graph):
        whole = make_sampler(viral_graph, "IC", SEED).sample_batch(120)
        pieces_sampler = make_sampler(viral_graph, "IC", SEED)
        pieces = pieces_sampler.sample_batch(50) + pieces_sampler.sample_batch(70)
        for x, y in zip(whole, pieces):
            assert np.array_equal(x, y)

    def test_stream_identical_across_all_backends(self, viral_graph):
        """serial / thread / process workers all run the same engine, so
        a backend swap cannot change a byte of the stream."""
        streams = {}
        for backend in ("serial", "thread", "process"):
            sampler = ShardedSampler(viral_graph, "IC", 3, seed=SEED, backend=backend)
            try:
                streams[backend] = sampler.sample_batch(90)
            finally:
                sampler.close()
        for backend in ("thread", "process"):
            assert all(
                np.array_equal(a, b)
                for a, b in zip(streams["serial"], streams[backend])
            ), backend


class TestVectorizedCorrectness:
    @pytest.mark.parametrize("max_hops", [None, 1, 3])
    def test_rr_sets_are_valid(self, viral_graph, max_hops):
        sampler = make_sampler(
            viral_graph, "IC", SEED, kernel="vectorized", max_hops=max_hops
        )
        in_neighbors = {
            v: set(
                viral_graph.in_indices[
                    viral_graph.in_indptr[v] : viral_graph.in_indptr[v + 1]
                ].tolist()
            )
            for v in range(viral_graph.n)
        }
        for root in range(min(40, viral_graph.n)):
            rr = sampler.sample(root)
            assert rr[0] == root
            assert len(set(rr.tolist())) == len(rr)  # no duplicates
            if max_hops == 1:
                assert set(rr[1:].tolist()) <= in_neighbors[root]
            # every non-root member has an edge into the already-reached set
            reached = {root}
            for u in rr[1:].tolist():
                # u entered via some edge (u -> w) with w already reached
                out = viral_graph.out_indices[
                    viral_graph.out_indptr[u] : viral_graph.out_indptr[u + 1]
                ]
                assert reached & set(out.tolist())
                reached.add(u)

    def test_max_hops_zero_is_just_the_root(self, viral_graph):
        sampler = make_sampler(viral_graph, "IC", SEED, kernel="vectorized", max_hops=0)
        assert sampler.sample(5).tolist() == [5]


class TestDistributionalAgreement:
    """Agreement across independent seeds is statistical, not byte-level:
    same RR-set law, verified on sizes (KS) and on the influence
    estimates the algorithms actually consume."""

    _SETS = 1200

    def _sizes(self, graph, kernel, seed):
        sampler = make_sampler(graph, "IC", seed, kernel=kernel)
        return np.asarray([rr.size for rr in sampler.sample_batch(self._SETS)])

    @pytest.mark.parametrize("kernel", ["vectorized", "batched"])
    def test_rr_size_distributions_agree(self, viral_graph, kernel):
        a = self._sizes(viral_graph, "scalar", 11)
        b = self._sizes(viral_graph, kernel, 12)
        hi = max(a.max(), b.max()) + 1
        cdf_a = np.cumsum(np.bincount(a, minlength=hi)) / a.size
        cdf_b = np.cumsum(np.bincount(b, minlength=hi)) / b.size
        ks = np.abs(cdf_a - cdf_b).max()
        # two-sample KS critical value at alpha=0.001 for n=m=1200
        crit = 1.949 * np.sqrt(2.0 / self._SETS)
        assert ks < crit, f"KS statistic {ks:.4f} exceeds {crit:.4f}"
        # a same-kernel split of equal size must also pass (the check has
        # no power against the null being trivially violated by noise)
        c = self._sizes(viral_graph, "scalar", 13)
        assert np.abs(
            np.cumsum(np.bincount(a, minlength=max(a.max(), c.max()) + 1)) / a.size
            - np.cumsum(np.bincount(c, minlength=max(a.max(), c.max()) + 1)) / c.size
        ).max() < crit

    def test_influence_estimates_agree_within_epsilon(self, viral_graph):
        from repro.sampling.rr_collection import RRCollection

        seeds = list(range(4))
        estimates = {}
        for kernel, seed in (("scalar", 21), ("vectorized", 22)):
            sampler = make_sampler(viral_graph, "IC", seed, kernel=kernel)
            pool = RRCollection(viral_graph.n, stream_id=sampler.stream_id)
            pool.extend(sampler.sample_batch(3000))
            estimates[kernel] = (
                sampler.scale * pool.coverage(seeds) / len(pool)
            )
        rel = abs(estimates["scalar"] - estimates["vectorized"]) / estimates["scalar"]
        assert rel < 0.1, estimates


class TestStreamIdentityPlumbing:
    def test_collections_and_snapshots_inherit_stream_id(self, small_wc_graph):
        from repro.sampling.rr_collection import RRCollection

        pool = RRCollection(small_wc_graph.n, stream_id="v3")
        pool.extend([np.array([1, 2]), np.array([3])])
        assert pool.snapshot().stream_id == "v3"

    def test_context_pool_is_stamped_with_the_stream(self, small_wc_graph):
        from repro.engine.context import SamplingContext

        with SamplingContext(small_wc_graph, "IC", seed=SEED, kernel="vectorized") as ctx:
            assert ctx.pool.stream_id == "v3"

    def test_legacy_v1_spill_is_a_clean_cache_miss(self, small_wc_graph, tmp_path):
        """A spill stamped by the legacy (seed, workers)-derived streams
        must never reattach into a seed-pure session — its stamp carries
        workers/sampler_kind keys no current sampler produces, so lookup
        misses and the session samples fresh, byte-equal to cold."""
        from repro.core.dssa import dssa
        from repro.engine import InfluenceEngine
        from repro.sampling.rr_collection import RRCollection
        from repro.service.store import PoolStore, graph_signature

        legacy_stamp = {
            "graph_sig": graph_signature(small_wc_graph),
            "model": "LT",
            "stream": "direct",
            "horizon": None,
            "seed": SEED,
            "sampler_kind": "plain",
            "workers": 1,
        }
        store = PoolStore(tmp_path)
        junk = RRCollection(small_wc_graph.n)
        junk.extend([np.arange(4, dtype=np.int32)] * 40)
        store.save(legacy_stamp, junk)

        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as engine:
            warm = engine.maximize(3, epsilon=0.25)
            assert engine.pool_manager.reattached_for(engine.session) == 0
            assert engine.stats.rr_sampled > 0  # sampled fresh, no mixing
        cold = dssa(small_wc_graph, 3, epsilon=0.25, model="LT", seed=SEED)
        assert warm.seeds == cold.seeds and warm.samples == cold.samples

    def test_v2_spill_is_a_clean_cache_miss(self, small_wc_graph, tmp_path):
        """A spill stamped with a v2 per-kernel stream_id misses too."""
        from repro.engine import InfluenceEngine
        from repro.sampling.rr_collection import RRCollection
        from repro.service.store import PoolStore, make_stamp

        current = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None, seed=SEED,
            sampler=make_sampler(small_wc_graph, "LT", SEED), graph_version=None,
        )
        v2_stamp = dict(current, stream_id="scalar-v2")
        junk = RRCollection(small_wc_graph.n)
        junk.extend([np.arange(4, dtype=np.int32)] * 40)
        PoolStore(tmp_path).save(v2_stamp, junk)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as engine:
            engine.maximize(3, epsilon=0.25)
            assert engine.pool_manager.reattached_for(engine.session) == 0
            assert engine.stats.rr_sampled > 0

    def test_pools_with_different_stream_ids_do_not_collide(self, small_wc_graph):
        """Same (namespace, stream, model, horizon), different stream_id:
        the manager must hold two independent pools."""
        from repro.engine.context import SamplingContext
        from repro.service.pool import PoolKey, PoolManager

        manager = PoolManager()

        def build():
            return SamplingContext(small_wc_graph, "LT", seed=SEED), SEED

        key_a = PoolKey("s", "direct", "LT", None, "v3", 0)
        key_b = PoolKey("s", "direct", "LT", None, "v2", 0)
        with manager.query(key_a, build) as view:
            view.require(30)
        with manager.query(key_b, build) as view:
            view.require(10)
        sizes = manager.pool_sizes("s")
        assert sizes == {
            ("direct", "LT", None, "v3", 0): 30,
            ("direct", "LT", None, "v2", 0): 10,
        }
        manager.close()


def _spill_run(graph, tmp_path, kernel, model="IC"):
    """One spilling engine session: (result, sets reattached, sets sampled)."""
    from repro.engine import InfluenceEngine

    with InfluenceEngine(
        graph, model=model, seed=SEED, kernel=kernel, spill_dir=tmp_path
    ) as engine:
        result = engine.maximize(3, epsilon=0.25)
        return (
            result,
            engine.pool_manager.reattached_for(engine.session),
            engine.stats.rr_sampled,
        )


class TestSpillReattach:
    """A pool round-trips through service/store.py: spill on close,
    reattach on the next session with the same stream identity."""

    def test_pool_survives_restart(self, viral_graph, tmp_path):
        cold, reattached_cold, sampled_cold = _spill_run(viral_graph, tmp_path, "vectorized")
        assert reattached_cold == 0 and sampled_cold > 0
        warm, reattached_warm, sampled_warm = _spill_run(viral_graph, tmp_path, "vectorized")
        assert reattached_warm >= cold.optimization_samples
        assert sampled_warm == 0  # fully served from the reattached pool
        assert warm.seeds == cold.seeds and warm.samples == cold.samples
        assert warm.influence == cold.influence

    def test_spilled_file_embeds_the_stream_position(self, viral_graph, tmp_path):
        """The position is the set count; no sampler state is written."""
        import json

        from repro.service.store import PoolStore

        _result, _reattached, sampled = _spill_run(viral_graph, tmp_path, "vectorized")
        files = PoolStore(tmp_path).files()
        assert files
        with np.load(files[0]) as archive:
            header = json.loads(bytes(archive["header"]).decode())
            assert header["count"] == sampled == len(archive["offsets"]) - 1
        assert header["stamp"]["stream_id"] == "v3"
        assert "sampler_state" not in header


class TestCrossNameIdentity:
    """Every accepted kernel name is the same stream: the same bytes on
    IC, LT and WRIS roots at every horizon, and a pool spilled under one
    name reattaches under another without sampling a set."""

    @pytest.mark.parametrize("max_hops", [None, 0, 2])
    @pytest.mark.parametrize("model,weighted", [("IC", False), ("LT", False), ("IC", True)])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_name_gives_the_same_bytes(
        self, medium_wc_graph, name, model, weighted, max_hops
    ):
        roots = None
        if weighted:
            roots = WeightedRoots(np.random.default_rng(9).random(medium_wc_graph.n) + 0.1)
        stream = make_sampler(
            medium_wc_graph, model, SEED, roots=roots, max_hops=max_hops, kernel=name
        ).sample_batch(150)
        reference = reference_block(
            make_sampler(medium_wc_graph, model, SEED, roots=roots, max_hops=max_hops),
            np.arange(150),
        )
        assert same_sets(stream, reference)

    def test_sharded_samplers_ignore_the_name(self, medium_wc_graph):
        # A name stops at the coordinator (no worker is told one), so every
        # name's fleet streams the plain sampler's bytes.
        for model in ("IC", "LT"):
            plain = make_sampler(medium_wc_graph, model, SEED).sample_batch(60)
            for name in ALL_NAMES:
                with ShardedSampler(
                    medium_wc_graph, model, 2, seed=SEED, backend="thread", kernel=name
                ) as sampler:
                    assert same_sets(sampler.sample_batch(60), plain), (model, name)

    @pytest.mark.parametrize(
        "spilled,reattached", list(zip(ALL_NAMES, ALL_NAMES[1:] + ALL_NAMES[:1]))
    )
    def test_pool_spilled_under_one_name_reattaches_under_another(
        self, medium_wc_graph, tmp_path, spilled, reattached
    ):
        cold, _, sampled_cold = _spill_run(medium_wc_graph, tmp_path, spilled)
        assert sampled_cold > 0
        warm, reattached_warm, sampled_warm = _spill_run(medium_wc_graph, tmp_path, reattached)
        assert reattached_warm > 0
        assert sampled_warm == 0  # fully served from the other name's spill
        assert warm.seeds == cold.seeds and warm.samples == cold.samples

    def test_run_record_carries_the_given_name_and_one_stream_id(self, medium_wc_graph):
        from repro.experiments.runner import run_algorithm

        record = run_algorithm(
            "D-SSA", medium_wc_graph, 2, model="IC", epsilon=0.25,
            seed=SEED, kernel="auto",
        )
        assert record.kernel == "auto"
        assert record.stream_id == "v3"

    def test_resolve_kernel_validates_names_only(self):
        assert resolve_kernel("vectorized") is KERNELS["vectorized"]
        assert resolve_kernel(None) is KERNELS["scalar"]
        assert resolve_kernel("auto") is KERNELS["auto"]
        with pytest.raises(SamplingError):
            resolve_kernel("simd")


class TestBatchCompositionInvariance:
    """Set ``g``'s bytes are a pure function of the seed — identical
    whether ``g`` is computed alone, in a block of 7, or in a block of
    64, pinned or not (``docs/INVARIANTS.md``, batch-composition
    invariance), and equal to the per-set reference."""

    _SETS = 128

    @staticmethod
    def _blocked(sampler, indices, width):
        out = []
        for s in range(0, len(indices), width):
            out.extend(sampler.sample_block(indices[s : s + width]))
        return out

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize(
        "model,kernel", [("IC", "batched"), ("LT", "lt-batched")]
    )
    def test_blocks_of_any_width_equal_per_set_bytes(
        self, medium_wc_graph, model, kernel, width
    ):
        sampler = make_sampler(medium_wc_graph, model, SEED, kernel=kernel)
        indices = np.arange(self._SETS, dtype=np.int64)
        reference = reference_block(sampler, indices)
        assert same_sets(self._blocked(sampler, indices, width), reference)

    @pytest.mark.parametrize(
        "model,kernel", [("IC", "batched"), ("LT", "lt-batched")]
    )
    def test_arbitrary_index_subsets_and_pinned_roots(
        self, medium_wc_graph, model, kernel
    ):
        sampler = make_sampler(medium_wc_graph, model, SEED, kernel=kernel)
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 10_000, 40)
        # Half the sets pin a root, half draw their own (the backends'
        # negative-root wire convention).
        roots = rng.integers(0, medium_wc_graph.n, 40)
        roots[::2] = -1
        got = sampler.sample_block(indices, roots)
        assert same_sets(got, reference_block(sampler, indices, roots))
        for g, r, rr in zip(indices, roots, got):
            want = (
                sampler.sample_at(int(g))
                if r < 0
                else sampler.sample_at(int(g), int(r))
            )
            assert np.array_equal(rr, want)

    @pytest.mark.parametrize("max_hops", [0, 1, 3])
    def test_hop_caps_apply_per_lane(self, medium_wc_graph, max_hops):
        sampler = make_sampler(
            medium_wc_graph, "IC", SEED, kernel="batched", max_hops=max_hops
        )
        got = sampler.sample_block(np.arange(60, dtype=np.int64))
        want = [sampler.sample_at(g) for g in range(60)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_sharded_block_path_is_worker_count_invariant(self, medium_wc_graph):
        single = make_sampler(medium_wc_graph, "IC", SEED, kernel="batched")
        want = single.sample_block(np.arange(90, dtype=np.int64))
        for workers in (2, 5):
            sharded = ShardedSampler(
                medium_wc_graph, "IC", workers, seed=SEED, kernel="batched"
            )
            try:
                got = sharded.sample_block(np.arange(90, dtype=np.int64))
            finally:
                sharded.close()
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_chunk_width_follows_the_running_coin_mean(self, er_graph):
        """Wide sets get narrow chunks: the width is the coin budget over
        the observed coins per set, never a fixed lane count."""
        from repro.sampling.kernels import FIRST_LANES, LOCKSTEP_COINS, _lanes

        sampler = make_sampler(assign_constant_weights(er_graph, 0.9), "IC", SEED)
        assert _lanes(sampler) == FIRST_LANES
        sampler.sample_batch(50)
        sets, coins = sampler._seen
        assert sets == 50 and coins > 0
        assert _lanes(sampler) == max(1, int(LOCKSTEP_COINS * sets / coins))
