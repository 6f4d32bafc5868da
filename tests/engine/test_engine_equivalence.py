"""Engine/one-shot equivalence: the PR's load-bearing property.

For every registered RIS algorithm, a warm engine query must return
byte-identical seeds/samples to the one-shot function at the same seed —
across serial, thread, and process execution backends — and a repeat
query with the same parameters must be served from the cached RR pool
without growing it.

Every test runs under two kernel names (module-level ``kernel``
fixture): names are accepted for compatibility and select nothing, so
the guarantees hold whichever name a caller gives.
"""

import pytest

from repro.baselines.imm import imm
from repro.baselines.tim import tim, tim_plus
from repro.core.dssa import dssa
from repro.core.ssa import ssa
from repro.engine import InfluenceEngine

ONE_SHOTS = {"D-SSA": dssa, "SSA": ssa, "IMM": imm, "TIM": tim, "TIM+": tim_plus}
EPS = 0.25
SEED = 2016


@pytest.fixture(params=["scalar", "vectorized"])
def kernel(request):
    return request.param


def _identical(a, b):
    assert a.seeds == b.seeds
    assert a.samples == b.samples
    assert a.optimization_samples == b.optimization_samples
    assert a.verification_samples == b.verification_samples
    assert a.iterations == b.iterations
    assert a.influence == b.influence
    assert a.stopped_by == b.stopped_by


class TestByteIdentity:
    @pytest.mark.parametrize("algorithm", sorted(ONE_SHOTS))
    @pytest.mark.parametrize("backend,workers", [(None, None), ("thread", 3)])
    def test_engine_equals_one_shot(
        self, small_wc_graph, algorithm, backend, workers, kernel
    ):
        cold = ONE_SHOTS[algorithm](
            small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED,
            backend=backend, workers=workers, kernel=kernel,
        )
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, backend=backend, workers=workers,
            kernel=kernel,
        ) as engine:
            warm = engine.maximize(4, epsilon=EPS, algorithm=algorithm)
        _identical(warm, cold)

    @pytest.mark.parametrize("algorithm", ["D-SSA", "SSA"])
    def test_engine_equals_one_shot_process_backend(
        self, small_wc_graph, algorithm, kernel
    ):
        """The expensive backend: one representative per stream shape."""
        cold = ONE_SHOTS[algorithm](
            small_wc_graph, 3, epsilon=EPS, model="LT", seed=SEED,
            backend="process", workers=2, kernel=kernel,
        )
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, backend="process", workers=2,
            kernel=kernel,
        ) as engine:
            warm = engine.maximize(3, epsilon=EPS, algorithm=algorithm)
        _identical(warm, cold)

    def test_workers_are_byte_invisible_across_sessions(self, small_wc_graph, kernel):
        """Seed-pure streams: sessions at different worker counts answer
        identically (workers used to be stream identity; no longer)."""
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED, kernel=kernel)
        for backend, workers in ((None, None), ("serial", 2), ("thread", 4)):
            with InfluenceEngine(
                small_wc_graph, model="LT", seed=SEED, backend=backend,
                workers=workers, kernel=kernel,
            ) as engine:
                _identical(engine.maximize(4, epsilon=EPS), cold)

    def test_per_query_workers_and_session_resize(self, small_wc_graph, kernel):
        """workers= per query and engine.resize() mid-session: pure
        throughput, byte-identical answers throughout."""
        cold4 = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED, kernel=kernel)
        cold6 = dssa(small_wc_graph, 6, epsilon=0.2, model="LT", seed=SEED, kernel=kernel)
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, backend="thread", workers=2,
            kernel=kernel,
        ) as engine:
            a = engine.maximize(4, epsilon=EPS, workers=3)
            assert engine.resize(1) >= 1
            b = engine.maximize(6, epsilon=0.2)
        _identical(a, cold4)
        _identical(b, cold6)

    def test_equivalence_survives_earlier_queries(self, small_wc_graph, kernel):
        """Byte-identity holds for *warm* queries, not just the first."""
        cold = dssa(small_wc_graph, 7, epsilon=EPS, model="LT", seed=SEED, kernel=kernel)
        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED, kernel=kernel) as engine:
            engine.maximize(2, epsilon=EPS)
            engine.maximize(4, epsilon=0.3)
            warm = engine.maximize(7, epsilon=EPS)
        _identical(warm, cold)


class TestCacheReuse:
    @pytest.mark.parametrize("algorithm", sorted(ONE_SHOTS))
    def test_repeat_query_reuses_pool(self, small_wc_graph, algorithm, kernel):
        with InfluenceEngine(
            small_wc_graph, model="LT", seed=SEED, kernel=kernel
        ) as engine:
            first = engine.maximize(4, epsilon=EPS, algorithm=algorithm)
            sampled_after_first = engine.stats.rr_sampled
            pool_after_first = dict(engine.pool_sizes())
            second = engine.maximize(4, epsilon=EPS, algorithm=algorithm)
            pool_after_second = dict(engine.pool_sizes())
        # The repeat query regrew nothing: same pools, zero new samples.
        assert engine.stats.rr_sampled == sampled_after_first
        assert pool_after_second == pool_after_first
        assert engine.stats.cache_hits >= first.optimization_samples
        _identical(second, first)

    def test_ris_algorithms_share_the_direct_pool(self, small_wc_graph):
        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED) as engine:
            engine.maximize(4, epsilon=EPS, algorithm="D-SSA")
            assert len(engine.pool_sizes()) == 1
            engine.maximize(4, epsilon=EPS, algorithm="IMM")
            engine.maximize(4, epsilon=EPS, algorithm="TIM")
            # Still one direct-stream pool; SSA adds its split and verify ones.
            assert len(engine.pool_sizes()) == 1
            engine.maximize(4, epsilon=EPS, algorithm="SSA")
            assert sorted(key[0] for key in engine.pool_sizes()) == [
                "direct", "split", "verify"
            ]

    def test_sweep_samples_strictly_less_than_independent_calls(
        self, small_wc_graph, kernel
    ):
        """The acceptance criterion, as a tier-1 test."""
        ks = [2, 3, 4, 6, 8]
        cold_total = sum(
            dssa(small_wc_graph, k, epsilon=EPS, model="LT", seed=SEED, kernel=kernel).samples
            for k in ks
        )
        with InfluenceEngine(small_wc_graph, model="LT", seed=SEED, kernel=kernel) as engine:
            results = engine.sweep(ks, epsilon=EPS)
        assert [r.k for r in results] == ks
        assert engine.stats.rr_sampled < cold_total
        assert engine.stats.hit_rate > 0.0
        # ... and each sweep point is still byte-identical to its one-shot.
        for k, warm in zip(ks, results):
            _identical(
                warm,
                dssa(small_wc_graph, k, epsilon=EPS, model="LT", seed=SEED, kernel=kernel),
            )
