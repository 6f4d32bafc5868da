"""InfluenceEngine session behaviour: lifecycle, estimate, fallbacks,
and the one fleet a session's pools share."""

import gc
import multiprocessing
import os
import pickle
import threading
import weakref

import numpy as np
import pytest

from repro.engine import InfluenceEngine, SamplingContext
from repro.exceptions import ParameterError, SamplingError
from repro.sampling.base import make_sampler
from repro.sampling.kernels import reference_block
from repro.utils.rng import spawn_rngs

from tests.oracles import exact_ic_spread


class TestSessionLifecycle:
    def test_context_manager_closes_backends(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=1, backend="thread", workers=2) as engine:
            engine.maximize(3, epsilon=0.3)
            contexts = [e.ctx for e in engine.pool_manager._entries.values()]
            assert contexts and all(not ctx.closed for ctx in contexts)
        assert engine.closed
        assert all(ctx.closed for ctx in contexts)

    def test_closed_session_rejects_queries(self, small_wc_graph):
        engine = InfluenceEngine(small_wc_graph, model="LT", seed=1)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ParameterError):
            engine.maximize(3)

    def test_generator_seed_rejected(self, small_wc_graph):
        with pytest.raises(ParameterError):
            InfluenceEngine(small_wc_graph, seed=np.random.default_rng(0))

    def test_seedless_session_draws_replayable_entropy(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT") as engine:
            assert isinstance(engine.seed, int)
            a = engine.maximize(3, epsilon=0.3)
            b = engine.maximize(3, epsilon=0.3)
        assert a.seeds == b.seeds

    def test_backend_released_even_when_query_raises(self, small_wc_graph):
        with pytest.raises(ParameterError):
            with InfluenceEngine(small_wc_graph, model="LT", seed=1, backend="thread", workers=2) as engine:
                engine.maximize(0)  # invalid k raises inside the body
        assert engine.closed


class TestBackendNames:
    """A session starts and owns its one fleet, so it takes a backend
    *name*, checked when the session opens."""

    def test_unknown_backend_name_is_refused_when_the_session_opens(self, small_wc_graph):
        """An unknown name used to open a session that reported it (and
        two workers) until its first query failed."""
        from repro.service import InfluenceService

        with pytest.raises(ParameterError, match=r"unknown execution backend 'bogus'.*network"):
            InfluenceEngine(small_wc_graph, model="LT", seed=3, backend="bogus")
        with InfluenceService() as service:
            with pytest.raises(ParameterError, match="known: .*'process'"):
                service.open_session("s", small_wc_graph, backend="bogus", workers=2)
            assert service.sessions() == {}

    def test_backend_instance_is_refused_up_front(self, small_wc_graph):
        from repro.sampling.backends import ThreadBackend

        with pytest.raises(ParameterError, match="set_network_defaults"):
            InfluenceEngine(
                small_wc_graph, model="LT", seed=3, backend=ThreadBackend(), workers=2
            )

    def test_open_session_refuses_an_instance(self, small_wc_graph):
        from repro.sampling.backends import SerialBackend
        from repro.service import InfluenceService

        with InfluenceService() as service:
            with pytest.raises(ParameterError, match="backend name"):
                service.open_session("s", small_wc_graph, backend=SerialBackend())

    def test_open_session_refuses_zero_workers(self, small_wc_graph):
        """A bad worker count fails when the session opens, so the
        ``sessions`` summary never meets an engine it cannot describe."""
        from repro.service import InfluenceService

        with InfluenceService() as service:
            service.open_session("ok", small_wc_graph, model="LT", workers=2)
            for bad in (0, -1):
                with pytest.raises(ParameterError, match="workers must be >= 1"):
                    service.open_session("bad", small_wc_graph, workers=bad)
            assert set(service.sessions()) == {"ok"}
            assert service.sessions()["ok"]["backend"] == "thread"

    def test_a_named_backend_serves_every_pool(self, small_wc_graph):
        """D-SSA, SSA (split stream) and an IC pool in one session share
        its one thread fleet, and each answers like its one-shot."""
        from repro.core.dssa import dssa
        from repro.core.ssa import ssa

        with InfluenceEngine(
            small_wc_graph, model="LT", seed=3, backend="thread", workers=2
        ) as engine:
            got = [
                engine.maximize(3, epsilon=0.3),
                engine.maximize(3, epsilon=0.3, algorithm="SSA"),
                engine.maximize(3, epsilon=0.3, model="IC"),
            ]
            assert len(engine.pool_sizes()) == 4  # SSA reads two
            fleets = {e.ctx.sampler.backend for e in engine.pool_manager._entries.values()}
            assert len(fleets) == 1 and fleets.pop().name == "thread"
        want = [
            dssa(small_wc_graph, 3, epsilon=0.3, model="LT", seed=3),
            ssa(small_wc_graph, 3, epsilon=0.3, model="LT", seed=3),
            dssa(small_wc_graph, 3, epsilon=0.3, model="IC", seed=3),
        ]
        for a, b in zip(got, want):
            assert a.seeds == b.seeds and a.samples == b.samples


class TestQueries:
    def test_estimate_matches_oracle(self, tiny_graph):
        with InfluenceEngine(tiny_graph, model="IC", seed=3) as engine:
            estimate = engine.estimate([0], samples=20_000)
        assert estimate == pytest.approx(exact_ic_spread(tiny_graph, [0]), rel=0.06)

    def test_estimate_rides_the_query_pool(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=4) as engine:
            result = engine.maximize(4, epsilon=0.25)
            sampled = engine.stats.rr_sampled
            engine.estimate(result.seeds, samples=result.optimization_samples)
            assert engine.stats.rr_sampled == sampled  # pure cache hit

    def test_estimate_validates_samples(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=4) as engine:
            with pytest.raises(ParameterError):
                engine.estimate([0], samples=0)

    @pytest.mark.parametrize("bad", [0, -5])
    @pytest.mark.parametrize("algorithm", ["D-SSA", "SSA", "IMM", "TIM", "TIM+"])
    def test_max_samples_below_one_is_refused_by_name(self, small_wc_graph, algorithm, bad):
        """One-shots and service calls refuse alike (each body used to
        fail its own way: answering anyway, a ZeroDivisionError, an
        invalid set range)."""
        from repro.engine.registry import get_algorithm
        from repro.service import InfluenceService

        options = dict(epsilon=0.25, model="LT", seed=3, max_samples=bad)
        with pytest.raises(ParameterError, match="max_samples must be positive"):
            get_algorithm(algorithm).func(small_wc_graph, 3, **options)
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="LT", seed=3)
            with pytest.raises(ParameterError, match="max_samples must be positive"):
                service.call("maximize", k=3, epsilon=0.25, algorithm=algorithm, max_samples=bad)

    def test_negative_horizon_is_refused_by_name(self, small_wc_graph):
        from repro.core.dssa import dssa

        with pytest.raises(ParameterError, match="horizon must be non-negative"):
            dssa(small_wc_graph, 3, epsilon=0.25, model="LT", seed=3, horizon=-1)
        with InfluenceEngine(small_wc_graph, model="LT", seed=3) as engine:
            with pytest.raises(ParameterError, match="horizon must be non-negative"):
                engine.maximize(3, epsilon=0.25, horizon=-1)

    def test_horizon_rejected_for_unsupporting_algorithm(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=5) as engine:
            with pytest.raises(ParameterError):
                engine.maximize(3, algorithm="IMM", horizon=2)

    def test_horizon_queries_get_their_own_pool(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=5) as engine:
            engine.maximize(3, epsilon=0.3)
            engine.maximize(3, epsilon=0.3, horizon=2)
            assert len(engine.pool_sizes()) == 2

    def test_non_ris_algorithm_falls_back_to_one_shot(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=6) as engine:
            result = engine.maximize(3, algorithm="degree")
        assert result.algorithm == "degree"
        assert len(result.seeds) == 3
        assert engine.stats.rr_requested == 0

    def test_sweep_rejects_empty_ks(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=7) as engine:
            with pytest.raises(ParameterError):
                engine.sweep([])

    def test_model_override_opens_second_pool(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=8) as engine:
            engine.maximize(3, epsilon=0.3)
            engine.maximize(3, epsilon=0.3, model="IC")
            assert len(engine.pool_sizes()) == 2


class TestSamplingContext:
    def test_require_is_monotone_and_counts(self, small_wc_graph):
        with SamplingContext(small_wc_graph, "LT", seed=9) as ctx:
            pool = ctx.require(10)
            assert len(pool) == 10 and ctx.sampled == 10
            ctx.require(4)  # no shrink, no resample
            assert len(ctx.pool) == 10 and ctx.sampled == 10
            ctx.require(25)
            assert len(ctx.pool) == 25 and ctx.sampled == 25

    def test_closed_context_rejects_sampling(self, small_wc_graph):
        ctx = SamplingContext(small_wc_graph, "LT", seed=9)
        ctx.close()
        with pytest.raises(SamplingError):
            ctx.require(1)



class TestVerifyPool:
    """SSA's verification stream is one more pool of the session."""

    def test_a_warm_ssa_query_samples_nothing(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=11) as engine:
            first = engine.maximize(4, epsilon=0.25, algorithm="SSA")
            stats = engine.stats_snapshot()
            second = engine.maximize(4, epsilon=0.25, algorithm="SSA")
            assert engine.stats.rr_sampled == stats.rr_sampled
            assert engine.stats.rr_requested == stats.rr_requested + second.samples
            assert ("verify", "LT", None) in {key[:3] for key in engine.pool_sizes()}
        assert first.verification_samples > 0
        assert (second.seeds, second.samples, second.verification_samples) == (
            first.seeds, first.samples, first.verification_samples
        )

    def test_a_cold_ssa_query_counts_its_verification(self, small_wc_graph):
        """Sets read past the stopping point stay pooled, so a cold query
        samples more than it demands (17 sets at seed 6)."""
        with InfluenceEngine(small_wc_graph, model="LT", seed=6) as engine:
            result = engine.maximize(4, epsilon=0.25, algorithm="SSA")
            stats = engine.stats_snapshot()
            sizes = {key[0]: size for key, size in engine.pool_sizes().items()}
        assert stats.rr_requested == result.samples
        assert stats.rr_sampled == sizes["split"] + sizes["verify"] > result.samples
        assert (stats.cache_hits, stats.hit_rate) == (0, 0.0)
        assert sizes["split"] == result.optimization_samples
        assert sizes["verify"] > result.verification_samples


def _pool_fleets(engine):
    """``(fleet name, workers)`` of every open pool of the session."""
    return {
        (e.ctx.sampler.backend.name, e.ctx.sampler.workers)
        for e in engine.pool_manager._entries.values()
    }


def _assert_pools_are_the_stream(engine, graph, seed):
    """Every pool holds the per-set reference of its stream prefix."""
    for entry in engine.pool_manager._entries.values():
        ctx = entry.ctx
        split_seed, verify_seed = spawn_rngs(seed, 2)
        stream = {"direct": seed, "split": split_seed, "verify": verify_seed}[entry.key.stream]
        want = reference_block(
            make_sampler(graph, ctx.model, stream), np.arange(len(ctx.pool))
        )
        assert ctx.pool.block.flat.tobytes() == want.flat.tobytes()
        assert ctx.pool.block.offsets.tobytes() == want.offsets.tobytes()


def _first_edges(graph, count):
    """The first ``count`` edges of the out view, as ``(u, v)``."""
    sources = np.repeat(np.arange(graph.n), np.diff(graph.out_indptr))
    return [(int(u), int(v)) for u, v in zip(sources[:count], graph.out_indices[:count])]


class TestSessionFleet:
    """A session runs one fleet: every pool borrows it, a resize resizes
    it, and a write registers streams on the new snapshot instead of
    respawning it."""

    def test_no_backend_fleet_follows_one_rule(self, small_wc_graph):
        """With no backend named, the session's first fleet and its
        resizes agree: serial at one worker, threads above one — and the
        pool stays the stream's prefix across every move."""
        with InfluenceEngine(small_wc_graph, model="LT", seed=9, workers=3) as engine:
            engine.estimate([0], samples=10)
            assert _pool_fleets(engine) == {("thread", 3)}
            assert engine.resize(1) == 1
            assert _pool_fleets(engine) == {("serial", 1)}
            engine.estimate([0], samples=20)
            engine.resize(2)
            assert _pool_fleets(engine) == {("thread", 2)}
            engine.estimate([0], samples=30)
            (entry,) = engine.pool_manager._entries.values()
            got = [rr.tolist() for rr in entry.ctx.pool.block]
        want = [rr.tolist() for rr in make_sampler(small_wc_graph, "LT", 9).sample_batch(30)]
        assert got == want

    def test_process_session_runs_one_fleet_through_a_mutate(self, small_wc_graph):
        """D-SSA and SSA on IC and LT open six pools (SSA reads two) on
        two worker processes (each pool used to start its own pair), and
        a mutate
        keeps them: same pids, no respawn, answers as a cold session on
        the mutated graph."""
        queries = [
            dict(algorithm=algorithm, model=model)
            for algorithm in ("D-SSA", "SSA")
            for model in ("IC", "LT")
        ]
        before = set(multiprocessing.active_children())
        with InfluenceEngine(small_wc_graph, seed=12, backend="process", workers=2) as engine:
            for query in queries:
                engine.maximize(3, epsilon=0.25, **query)
            assert len(engine.pool_sizes()) == 6
            workers = set(multiprocessing.active_children()) - before
            assert len(workers) == 2
            pids = {proc.pid for proc in workers}
            engine.mutate(reweight=[(u, v, 0.5) for u, v in _first_edges(engine.graph, 3)])
            warm = [engine.maximize(3, epsilon=0.25, **query) for query in queries]
            assert {proc.pid for proc in set(multiprocessing.active_children()) - before} == pids
            (fleet,) = {e.ctx.sampler.backend for e in engine.pool_manager._entries.values()}
            assert fleet.respawns == 0
            mutated = engine.graph
        with InfluenceEngine(mutated, seed=12) as cold_engine:
            cold = [cold_engine.maximize(3, epsilon=0.25, **query) for query in queries]
        for a, b in zip(warm, cold):
            assert (a.seeds, a.influence, a.samples) == (b.seeds, b.influence, b.samples)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_topups_beside_a_resize(self, small_wc_graph, backend):
        """Two pools top up from two threads while a third resizes the
        session's fleet: every pool stays the stream's prefix."""
        errors = []

        def guarded(work):
            def run():
                try:
                    work()
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)
            return threading.Thread(target=run)

        with InfluenceEngine(small_wc_graph, seed=21, backend=backend, workers=2) as engine:
            def top_up(model):
                for samples in range(40, 401, 40):
                    engine.estimate([0], samples=samples, model=model)

            def resize():
                for workers in (3, 1, 2):
                    engine.resize(workers)

            threads = [guarded(lambda: top_up("IC")), guarded(lambda: top_up("LT")),
                       guarded(resize)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert sorted(engine.pool_sizes().values()) == [400, 400]
            assert _pool_fleets(engine) == {(backend, 2)}
            _assert_pools_are_the_stream(engine, small_wc_graph, 21)

    @pytest.mark.parametrize("backend", [None, "thread"])
    def test_a_write_releases_the_old_snapshot(self, small_wc_graph, backend):
        """No pool, fleet or sampler keeps an earlier snapshot alive
        (``CSRGraph`` has slots and no weakref slot, so the probe is an
        array only the snapshot owns; the session gets a private copy of
        the pristine graph, which the fixture would keep alive)."""
        graph = pickle.loads(pickle.dumps(small_wc_graph))
        with InfluenceEngine(graph, seed=31, backend=backend, workers=2) as engine:
            del graph
            engine.maximize(3, epsilon=0.25)
            engine.maximize(3, epsilon=0.25, algorithm="SSA")
            earlier = []
            for u, v in _first_edges(small_wc_graph, 3):
                earlier.append(weakref.ref(engine.graph.in_weights))
                engine.mutate(reweight=[(u, v, 0.25)])
            engine.maximize(3, epsilon=0.25)
            gc.collect()
            assert [ref() for ref in earlier] == [None, None, None]
            _assert_pools_are_the_stream(engine, engine.graph, 31)

    def test_a_process_write_unlinks_the_old_segment(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, seed=32, backend="process", workers=2) as engine:
            engine.maximize(3, epsilon=0.25)
            engine.maximize(3, epsilon=0.25, algorithm="SSA")
            (fleet,) = {e.ctx.sampler.backend for e in engine.pool_manager._entries.values()}
            names = set()
            for u, v in _first_edges(small_wc_graph, 3):
                names |= {shm.name for shm, _spec in fleet._payloads.values()}
                engine.mutate(reweight=[(u, v, 0.25)])
            assert len(fleet._payloads) == 1
            ((current, _spec),) = fleet._payloads.values()
            assert current.name not in names
            if os.path.isdir("/dev/shm"):
                assert not any(os.path.exists(f"/dev/shm/{name}") for name in names)
