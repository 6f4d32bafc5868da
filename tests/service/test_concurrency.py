"""Acceptance: concurrent service queries are byte-identical to sequential.

N threads issuing interleaved ``maximize``/``sweep``/``estimate`` queries
against one service must return byte-identical seeds/samples to the same
queries run sequentially on a fresh engine at the same seed — for
SSA/D-SSA/IMM across the serial and process execution backends, and
under two kernel names (which select nothing; the interleaving tests
re-run on each).  Warm D-SSA queries whose find halves coincide share
one greedy memo entry per find half, before and after a mutation.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.engine import InfluenceEngine
from repro.service import InfluenceService

SEED = 2016
EPS = 0.25


def _query_mix(algorithm):
    """Interleavable query set: two budgets, a sweep, and an estimate."""
    return [
        ("maximize", dict(k=3, epsilon=EPS, algorithm=algorithm)),
        ("maximize", dict(k=5, epsilon=EPS, algorithm=algorithm)),
        ("sweep", dict(ks=[2, 4], epsilon=EPS, algorithm=algorithm)),
        ("maximize", dict(k=3, epsilon=EPS, algorithm=algorithm)),  # repeat: pure hit
        ("estimate", dict(seeds=[1, 2, 3], samples=512)),
    ]


def _run_sequential(graph, queries, **engine_kwargs):
    with InfluenceEngine(graph, model="LT", seed=SEED, **engine_kwargs) as engine:
        return [getattr(engine, op)(**params) for op, params in queries]


def _run_concurrent(graph, queries, threads, **engine_kwargs):
    with InfluenceService(max_workers=threads) as service:
        service.open_session("default", graph, model="LT", seed=SEED, **engine_kwargs)
        engine = service.session("default")
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(getattr(engine, op), **params) for op, params in queries
            ]
            results = [f.result() for f in futures]
        stats = engine.stats
        return results, stats


def _assert_identical(concurrent, sequential):
    for got, want in zip(concurrent, sequential):
        if isinstance(want, float):  # estimate
            assert got == want
            continue
        if isinstance(want, list):  # sweep
            _assert_identical(got, want)
            continue
        assert got.seeds == want.seeds
        assert got.samples == want.samples
        assert got.optimization_samples == want.optimization_samples
        assert got.influence == want.influence
        assert got.stopped_by == want.stopped_by


class TestConcurrentExactness:
    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["D-SSA", "SSA", "IMM"])
    def test_interleaved_queries_match_sequential_serial_backend(
        self, small_wc_graph, algorithm, kernel
    ):
        queries = _query_mix(algorithm)
        sequential = _run_sequential(small_wc_graph, queries, kernel=kernel)
        concurrent, stats = _run_concurrent(
            small_wc_graph, queries, threads=4, kernel=kernel
        )
        _assert_identical(concurrent, sequential)
        assert stats.hit_rate > 0.0  # sharing actually happened

    @pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["D-SSA", "SSA"])
    def test_interleaved_queries_match_sequential_process_backend(
        self, small_wc_graph, algorithm, kernel
    ):
        queries = _query_mix(algorithm)[:3]  # keep the expensive backend short
        sequential = _run_sequential(
            small_wc_graph, queries, backend="process", workers=2, kernel=kernel
        )
        concurrent, _ = _run_concurrent(
            small_wc_graph, queries, threads=3, backend="process", workers=2,
            kernel=kernel,
        )
        _assert_identical(concurrent, sequential)

    def test_many_threads_hammering_one_query(self, small_wc_graph):
        """The repeat-query stampede: every thread gets the same answer."""
        with InfluenceService(max_workers=8) as service:
            engine = service.open_session("default", small_wc_graph, model="LT", seed=SEED)
            futures = [
                service.submit("maximize", k=4, epsilon=EPS) for _ in range(16)
            ]
            results = [f.result() for f in futures]
            sampled = engine.stats.rr_sampled
        cold = _run_sequential(small_wc_graph, [("maximize", dict(k=4, epsilon=EPS))])[0]
        for r in results:
            assert r.seeds == cold.seeds and r.samples == cold.samples
        # one cold fill, everyone else rode the pool
        assert sampled == cold.optimization_samples

    def test_concurrent_sessions_do_not_cross_talk(self, small_wc_graph, er_graph):
        with InfluenceService(max_workers=4) as service:
            service.open_session("a", small_wc_graph, model="LT", seed=SEED)
            service.open_session("b", er_graph, model="IC", seed=7)
            fa = [service.submit("maximize", session="a", k=3, epsilon=EPS) for _ in range(2)]
            fb = [service.submit("maximize", session="b", k=3, epsilon=EPS) for _ in range(2)]
            ra = [f.result() for f in fa]
            rb = [f.result() for f in fb]
        cold_a = _run_sequential(small_wc_graph, [("maximize", dict(k=3, epsilon=EPS))])[0]
        with InfluenceEngine(er_graph, model="IC", seed=7) as engine:
            cold_b = engine.maximize(3, epsilon=EPS)
        assert all(r.seeds == cold_a.seeds for r in ra)
        assert all(r.seeds == cold_b.seeds for r in rb)


class TestGreedyMemoUnderThreads:
    """Threads race on the pool's greedy memo and still answer exactly.

    At n=120 and ε=0.25, D-SSA's find halves for k = 2, 3 and 4 are the
    same ranges, so the interleaved queries read and publish the same
    memo entries.  A one-shot run is a memo-free reference: its find
    halves are all distinct, so its memo never hits.
    """

    KS = (2, 3, 4)

    def _interleaved(self, service):
        futures = [service.submit("maximize", k=k, epsilon=EPS) for k in self.KS * 3]
        return [f.result() for f in futures]

    def _assert_one_shot_answers(self, graph, results):
        halves = [[t["find_half"] for t in r.extras["trace"]] for r in results]
        depth = min(map(len, halves))
        assert all(h[:depth] == halves[0][:depth] for h in halves)
        cold = {
            k: repro.dssa(graph, k, epsilon=EPS, model="LT", seed=SEED) for k in self.KS
        }
        for got in results:
            want = cold[len(got.seeds)]
            assert got.seeds == want.seeds
            assert got.samples == want.samples
            assert got.influence == want.influence
            assert got.stopped_by == want.stopped_by

    def test_coinciding_find_halves_before_and_after_mutate(self, small_wc_graph):
        with InfluenceService(max_workers=4) as service:
            engine = service.open_session("default", small_wc_graph, model="LT", seed=SEED)
            before = self._interleaved(service)
            self._assert_one_shot_answers(small_wc_graph, before)
            # Cut the top seed's out-edges: the sets it reached through
            # them are repaired, so the memo is dropped and the answers move.
            top = before[0].seeds[0]
            lo, hi = small_wc_graph.out_indptr[top], small_wc_graph.out_indptr[top + 1]
            cut = [(top, int(v)) for v in small_wc_graph.out_indices[lo:hi]]
            assert engine.mutate(remove=cut)["repaired"] > 0
            after = self._interleaved(service)
            self._assert_one_shot_answers(engine.graph, after)
        assert [r.seeds for r in after] != [r.seeds for r in before]
