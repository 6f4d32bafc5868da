"""InfluenceEngine session behaviour: lifecycle, estimate, fallbacks."""

import numpy as np
import pytest

from repro.engine import InfluenceEngine, SamplingContext
from repro.exceptions import ParameterError, SamplingError

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
    """Every pool a session opens starts its own fleet, so a session
    takes a backend *name*; an instance could serve only one pool."""

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
        """D-SSA, SSA (split stream) and an IC pool in one session: each
        starts its own thread fleet and answers like its one-shot."""
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
            assert len(engine.pool_sizes()) == 3
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

    def test_no_backend_fleet_follows_one_rule(self, small_wc_graph):
        """With no backend named, construction and resize agree: serial
        at one worker, threads above one — and the pool stays the
        stream's prefix across every move."""
        from repro.sampling.base import make_sampler

        with SamplingContext(small_wc_graph, "LT", seed=9, workers=3) as ctx:
            assert (ctx.sampler.backend.name, ctx.workers) == ("thread", 3)
            ctx.require(10)
            ctx.resize(1)
            assert (ctx.sampler.backend.name, ctx.workers) == ("serial", 1)
            ctx.require(20)
            ctx.resize(2)
            assert (ctx.sampler.backend.name, ctx.workers) == ("thread", 2)
            ctx.require(30)
            got = [rr.tolist() for rr in ctx.pool.block]
        want = [rr.tolist() for rr in make_sampler(small_wc_graph, "LT", 9).sample_batch(30)]
        assert got == want

    def test_closed_context_rejects_sampling(self, small_wc_graph):
        ctx = SamplingContext(small_wc_graph, "LT", seed=9)
        ctx.close()
        with pytest.raises(SamplingError):
            ctx.require(1)

    def test_verifier_requires_split_stream(self, small_wc_graph):
        with SamplingContext(small_wc_graph, "LT", seed=9) as ctx:
            with pytest.raises(SamplingError):
                ctx.fresh_verifier()

    def test_split_verifier_rederivation_is_stable(self, small_wc_graph):
        """Int-seeded contexts re-derive the same verification stream."""
        with SamplingContext(small_wc_graph, "LT", seed=11, split_verify=True) as ctx:
            a = ctx.fresh_verifier().sample_batch(5)
            b = ctx.fresh_verifier().sample_batch(5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
