"""Pool spill / reattach: warmup that survives restarts and evictions."""

import json

import numpy as np
import pytest

from repro.core.dssa import dssa
from repro.engine import InfluenceEngine
from repro.sampling.rr_collection import RRCollection
from repro.service.store import PoolStore, PoolStoreError, graph_signature, make_stamp

SEED = 2016
EPS = 0.25


def _write_spill(store, stamp, flat, offsets, **extra):
    """Write a spill file by hand, with ``extra`` header keys — the
    ``sampler_state`` earlier releases wrote next to the sets."""
    header = {"format_version": 1, "stamp": stamp, "count": len(offsets) - 1, **extra}
    path = store.path_for(stamp)
    with open(path, "wb") as handle:
        np.savez(
            handle,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            flat=np.ascontiguousarray(flat, dtype=np.int32),
            offsets=np.ascontiguousarray(offsets, dtype=np.int64),
        )
    return path


def _read_spill(path):
    """``(header, flat, offsets)`` of one spill file."""
    with np.load(path) as archive:
        return (
            json.loads(bytes(archive["header"]).decode()),
            archive["flat"],
            archive["offsets"],
        )


class TestStampsAndSignatures:
    def test_signature_is_stable_and_content_sensitive(self, small_wc_graph, er_graph):
        assert graph_signature(small_wc_graph) == graph_signature(small_wc_graph)
        assert graph_signature(small_wc_graph) != graph_signature(er_graph)

    def test_generator_seeds_are_not_spillable(self, small_wc_graph):
        from repro.sampling.base import make_sampler

        sampler = make_sampler(small_wc_graph, "LT", 1)
        stamp = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=np.random.default_rng(1), sampler=sampler,
        )
        assert stamp is None

    def test_int_seed_uniform_roots_are_spillable(self, small_wc_graph):
        from repro.sampling.base import make_sampler

        sampler = make_sampler(small_wc_graph, "LT", 1)
        stamp = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=11, sampler=sampler,
        )
        assert stamp is not None and stamp["stream_id"] == "v3"

    def test_stamp_identity_is_worker_free(self, small_wc_graph):
        """Pools sampled at any worker count / backend share one stamp —
        a spill at W=4 reattaches and continues at W=16."""
        from repro.sampling.base import make_sampler
        from repro.sampling.sharded import ShardedSampler

        plain = make_sampler(small_wc_graph, "LT", 11)
        sharded = ShardedSampler(small_wc_graph, "LT", 4, seed=11, backend="serial")
        try:
            stamps = [
                make_stamp(
                    small_wc_graph, model="LT", stream="direct", horizon=None,
                    seed=11, sampler=sampler,
                )
                for sampler in (plain, sharded)
            ]
        finally:
            sharded.close()
        assert stamps[0] == stamps[1]
        assert "workers" not in stamps[0] and "sampler_kind" not in stamps[0]


class TestStoreRoundtrip:
    def _stamp(self, graph, seed=SEED):
        from repro.sampling.base import make_sampler

        return make_stamp(
            graph, model="LT", stream="direct", horizon=None,
            seed=seed, sampler=make_sampler(graph, "LT", seed),
        )

    def test_sets_roundtrip_byte_exact(self, small_wc_graph, tmp_path):
        store = PoolStore(tmp_path)
        pool = RRCollection(small_wc_graph.n)
        rng = np.random.default_rng(0)
        pool.extend([rng.integers(0, small_wc_graph.n, size=rng.integers(0, 9)) for _ in range(57)])
        stamp = self._stamp(small_wc_graph)
        store.save(stamp, pool)
        sets = store.load(stamp)
        assert len(sets) == 57
        for i, rr in enumerate(sets):
            assert np.array_equal(rr, pool[i])

    def test_missing_stamp_loads_none(self, small_wc_graph, tmp_path):
        store = PoolStore(tmp_path)
        assert store.load(self._stamp(small_wc_graph)) is None

    def test_different_seed_is_a_different_file(self, small_wc_graph, tmp_path):
        store = PoolStore(tmp_path)
        a, b = self._stamp(small_wc_graph, 1), self._stamp(small_wc_graph, 2)
        assert store.path_for(a) != store.path_for(b)

    def test_corrupt_file_raises_cleanly(self, small_wc_graph, tmp_path):
        store = PoolStore(tmp_path)
        stamp = self._stamp(small_wc_graph)
        store.path_for(stamp).write_bytes(b"not an npz")
        with pytest.raises(PoolStoreError):
            store.load(stamp)

    @pytest.mark.parametrize(
        "field,value,message",
        [("format_version", 99, "format_version"), ("count", 5, "offsets do not match")],
    )
    def test_header_checks_run_through_load(
        self, small_wc_graph, tmp_path, field, value, message
    ):
        """A file of another format version, or whose offsets disagree
        with its set count, is refused by ``load`` — never half-read."""
        store = PoolStore(tmp_path)
        stamp = self._stamp(small_wc_graph)
        pool = RRCollection(small_wc_graph.n)
        pool.extend([np.arange(3, dtype=np.int32)] * 4)
        path = store.save(stamp, pool)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = json.loads(bytes(arrays["header"]).decode())
        header[field] = value
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(PoolStoreError, match=message):
            store.load(stamp)


def _legacy_spill(store, graph, *, seed=SEED, workers=2, count=30):
    """Forge a spill file exactly as a v1 release would have written it:
    stamp keyed on (seed, workers, sampler shape), no stream_id, state
    holding RNG blobs."""
    stamp = {
        "graph_sig": graph_signature(graph),
        "model": "LT",
        "stream": "direct",
        "horizon": None,
        "seed": seed,
        "sampler_kind": "sharded" if workers > 1 else "plain",
        "workers": workers,
    }
    state = {
        "kind": "sharded" if workers > 1 else "plain",
        "workers": workers,
        "rng": {"bit_generator": "PCG64", "state": {"state": 1, "inc": 3}},
        "cursor": count,
        "loads": [count // workers] * workers,
        "worker_rngs": [{}] * workers,
        "sets_generated": count,
        "entries_generated": 4 * count,
    }
    offsets = np.arange(0, 4 * count + 1, 4, dtype=np.int64)
    flat = np.tile(np.arange(4, dtype=np.int32), count)
    return _write_spill(store, stamp, flat, offsets, sampler_state=state), stamp, state


class TestLegacySpillMigration:
    """v1 stamped spills: never reattached, never silently mixed into a
    seed-pure stream."""

    def test_legacy_stamp_never_matches_a_current_lookup(self, small_wc_graph, tmp_path):
        from repro.sampling.base import make_sampler

        store = PoolStore(tmp_path)
        _legacy_spill(store, small_wc_graph)
        current = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=SEED, sampler=make_sampler(small_wc_graph, "LT", SEED),
        )
        assert store.load(current) is None  # clean cache miss

    def test_kernel_mismatch_is_a_miss_not_a_mix(self, small_wc_graph, tmp_path):
        """Same (graph, seed), different stream_id: nothing reattaches,
        the session samples fresh and stays byte-equal to cold."""
        from repro.engine import InfluenceEngine

        store = PoolStore(tmp_path)
        _legacy_spill(store, small_wc_graph)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, kernel="vectorized",
            spill_dir=tmp_path,
        ) as engine:
            engine.maximize(3, epsilon=EPS)
            assert engine.pool_manager.reattached_for(engine.session) == 0
            assert engine.stats.rr_sampled > 0


class TestGraphVersionMigration:
    """Spills written before dynamic graphs carry no ``graph_version``
    key.  They must keep reattaching on a pristine (version-0) graph —
    the version-0 stamp is byte-identical to the legacy one — and be a
    clean cache miss against any mutated graph, never silently mixed."""

    def test_version_zero_stamp_has_no_graph_version_key(self, small_wc_graph):
        from repro.sampling.base import make_sampler

        sampler = make_sampler(small_wc_graph, "LT", SEED)
        legacy_shape = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=SEED, sampler=sampler, graph_version=None,
        )
        v0 = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=SEED, sampler=sampler, graph_version=0,
        )
        assert "graph_version" not in v0
        assert v0 == legacy_shape  # pre-dynamic spills keep their address
        v1 = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=SEED, sampler=sampler, graph_version=1,
        )
        assert v1["graph_version"] == 1

    def test_pre_dynamic_spill_reattaches_on_pristine_graph(
        self, small_wc_graph, tmp_path
    ):
        """Forge a spill exactly as a pre-dynamic release wrote it (no
        graph_version in stamp or state): a version-0 session reattaches
        it as pure cache."""
        from repro.sampling.base import make_sampler

        store = PoolStore(tmp_path)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as first:
            warm = first.maximize(4, epsilon=EPS)
        # strip the modern keys a pre-dynamic release never wrote
        sampler = make_sampler(small_wc_graph, "LT", SEED)
        stamp = make_stamp(
            small_wc_graph, model="LT", stream="direct", horizon=None,
            seed=SEED, sampler=sampler, graph_version=None,
        )
        header, flat, offsets = _read_spill(store.path_for(stamp))
        assert "sampler_state" not in header
        count = header["count"]
        store.path_for(stamp).unlink()  # rewrite in the pre-dynamic shape
        _write_spill(
            store, stamp, flat, offsets,
            sampler_state={"kind": "seedpure", "stream_id": "v3", "cursor": count,
                           "sets_generated": count, "entries_generated": int(flat.size)},
        )
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as second:
            replay = second.maximize(4, epsilon=EPS)
            assert second.stats.rr_sampled == 0
            assert second.pool_manager.reattached_for(second.session) > 0
        assert replay.seeds == warm.seeds

    def test_any_spill_is_a_miss_against_a_mutated_graph(
        self, small_wc_graph, tmp_path
    ):
        """After a mutation the session's pools key to the new version
        and content signature: nothing spilled against the pristine
        graph reattaches, and answers equal a cold run on the mutated
        graph."""
        from repro.dynamic import GraphDelta, MutableGraphView

        u = 0
        while small_wc_graph.out_indptr[u] == small_wc_graph.out_indptr[u + 1]:
            u += 1
        v = int(small_wc_graph.out_indices[small_wc_graph.out_indptr[u]])
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as first:
            first.maximize(4, epsilon=EPS)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as second:
            second.mutate(remove=[(u, v)])
            replay = second.maximize(4, epsilon=EPS)
            assert second.pool_manager.reattached_for(second.session) == 0
            assert second.stats.rr_sampled > 0
        mutated = MutableGraphView(small_wc_graph).apply(
            GraphDelta().remove_edge(u, v)
        )
        cold = dssa(mutated, 4, epsilon=EPS, model="LT", seed=SEED)
        assert replay.seeds == cold.seeds and replay.samples == cold.samples


class TestEngineReattach:
    """The acceptance path: spill in one session, warm-start the next."""

    @pytest.mark.parametrize("backend,workers", [(None, None), ("thread", 2)])
    def test_first_query_after_reattach_is_pure_cache(
        self, small_wc_graph, tmp_path, backend, workers
    ):
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path,
            backend=backend, workers=workers,
        ) as first:
            warm = first.maximize(4, epsilon=EPS)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path,
            backend=backend, workers=workers,
        ) as second:
            replay = second.maximize(4, epsilon=EPS)
            assert second.stats.rr_sampled == 0
            assert second.stats.hit_rate == 1.0
            assert second.pool_manager.reattached_for(second.session) > 0
            # over-demand continues the spilled stream byte-exactly
            bigger = second.maximize(8, epsilon=0.2)
        assert replay.seeds == warm.seeds and replay.samples == warm.samples
        cold = dssa(
            small_wc_graph, 8, epsilon=0.2, model="LT", seed=SEED,
            backend=backend, workers=workers,
        )
        assert bigger.seeds == cold.seeds and bigger.samples == cold.samples

    def test_spill_with_a_sampler_state_reattaches_and_continues(
        self, small_wc_graph, tmp_path
    ):
        """Spills written while samplers kept their own position carry a
        ``sampler_state`` header key next to the sets.  The loader
        ignores it: the pool reattaches as pure cache, and over-demand
        continues the stream byte-exactly from the set count."""
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as first:
            warm = first.maximize(4, epsilon=EPS)
        store = PoolStore(tmp_path)
        (path,) = store.files()
        header, flat, offsets = _read_spill(path)
        count = header["count"]
        path.unlink()
        _write_spill(
            store, header["stamp"], flat, offsets,
            sampler_state={"stream_id": "v3", "graph_version": 0, "cursor": count,
                           "sets_generated": count, "entries_generated": int(flat.size)},
        )
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path
        ) as second:
            replay = second.maximize(4, epsilon=EPS)
            assert second.stats.rr_sampled == 0
            assert second.pool_manager.reattached_for(second.session) == count
            bigger = second.maximize(8, epsilon=0.2)
            assert second.stats.rr_sampled > 0
        assert replay.seeds == warm.seeds and replay.samples == warm.samples
        cold = dssa(small_wc_graph, 8, epsilon=0.2, model="LT", seed=SEED)
        assert bigger.seeds == cold.seeds and bigger.samples == cold.samples

    def test_reattach_across_worker_counts_and_backends(self, small_wc_graph, tmp_path):
        """The tentpole property on disk: a pool spilled at one worker
        count reattaches and *continues* at another, byte-exactly."""
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path,
            backend="thread", workers=2,
        ) as first:
            warm = first.maximize(4, epsilon=EPS)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path,
            backend="serial", workers=5,
        ) as second:
            replay = second.maximize(4, epsilon=EPS)
            assert second.stats.rr_sampled == 0  # pure cache across W
            bigger = second.maximize(8, epsilon=0.2)  # continues the stream
        assert replay.seeds == warm.seeds and replay.samples == warm.samples
        cold = dssa(small_wc_graph, 8, epsilon=0.2, model="LT", seed=SEED)
        assert bigger.seeds == cold.seeds and bigger.samples == cold.samples

    def test_reattach_ignores_other_seeds_and_graphs(
        self, small_wc_graph, er_graph, tmp_path
    ):
        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path) as e:
            e.maximize(4, epsilon=EPS)
        # different seed: no reattach, still correct
        with InfluenceEngine(small_wc_graph, model="LT", seed=7, spill_dir=tmp_path) as e:
            r = e.maximize(4, epsilon=EPS)
            assert e.stats.rr_sampled > 0
        assert r.seeds == dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=7).seeds
        # different graph: no reattach either
        with InfluenceEngine(er_graph, model="LT", seed=SEED, spill_dir=tmp_path) as e:
            e.maximize(4, epsilon=EPS)
            assert e.pool_manager.reattached_for(e.session) == 0

    def test_eviction_spills_and_next_use_reattaches(self, small_wc_graph, tmp_path):
        """Budget eviction + spill dir = demotion to disk, not loss."""
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED,
            pool_budget=1_000, spill_dir=tmp_path,  # evicts after every query
        ) as engine:
            first = engine.maximize(4, epsilon=EPS)
            assert engine.stats.evictions >= 1
            assert engine.pool_sizes() == {}
            again = engine.maximize(4, epsilon=EPS)
            # the evicted pool came back from disk: no resampling
            assert engine.stats.rr_sampled == first.optimization_samples
            assert engine.pool_manager.reattached_for(engine.session) > 0
        assert again.seeds == first.seeds

    def test_split_stream_pools_spill_too(self, small_wc_graph, tmp_path):
        from repro.core.ssa import ssa

        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path) as e:
            warm = e.maximize(4, epsilon=EPS, algorithm="SSA")
        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED, spill_dir=tmp_path) as e:
            replay = e.maximize(4, epsilon=EPS, algorithm="SSA")
            assert e.stats.rr_sampled == 0  # both pools fully reattached
            sizes = e.pool_sizes()
            assert sorted(key[0] for key in sizes) == ["split", "verify"]
            assert e.pool_manager.reattached_for(e.session) == sum(sizes.values())
        cold = ssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)
        assert replay.seeds == warm.seeds == cold.seeds
        assert replay.samples == cold.samples
