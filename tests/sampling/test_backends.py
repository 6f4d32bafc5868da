"""Execution-backend tests: determinism, equivalence, unbiasedness.

The load-bearing property is that execution topology is *invisible* in
the sampled RR stream: serial, thread, and process execution at **any**
worker count must merge to byte-identical streams (seed-pure
counter-based draws), and the merged stream must stay unbiased (Lemma 1)
so every Stop-and-Stare guarantee survives parallel execution.  The
full workers × backends × kernel names matrix lives in
``tests/sampling/test_elastic.py``.
"""

import numpy as np
import pytest

from repro.core.dssa import dssa
from repro.exceptions import SamplingError
from repro.sampling import make_sampler
from repro.sampling.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.sampling.rr_collection import RRCollection
from repro.sampling.sharded import ShardedSampler, default_fleet, make_parallel_sampler

from tests.oracles import exact_ic_spread


def _stream(graph, model, workers, seed, backend, batches=(40, 17, 1)):
    """Merged RR stream across several batch sizes (exercises chunking)."""
    sampler = ShardedSampler(graph, model, workers, seed=seed, backend=backend)
    try:
        return [rr.tolist() for count in batches for rr in sampler.sample_batch(count)]
    finally:
        sampler.close()


class TestRegistry:
    def test_known_backends(self):
        assert set(BACKENDS) == {"serial", "thread", "process", "network"}

    def test_make_backend_coercion(self):
        assert isinstance(make_backend(" Thread "), ThreadBackend)
        instance = ThreadBackend()
        assert make_backend(instance) is instance

    @pytest.mark.parametrize("name", ["gpu", None])
    def test_unknown_backend_rejected(self, name):
        """``None`` is resolved against a worker count (``default_fleet``),
        never by ``make_backend`` on its own."""
        with pytest.raises(SamplingError, match="unknown execution backend"):
            make_backend(name)

    @pytest.mark.parametrize("name", ["serial", "thread", "process", "network"])
    def test_close_before_start_is_safe(self, name):
        backend = make_backend(name)
        backend.close()  # idempotent teardown must not require start()
        backend.close()

    @pytest.mark.parametrize("name", ["serial", "thread", "process", "network"])
    def test_close_after_failed_start_is_noop(self, name):
        """A _start that raises must leave close() a no-op: the teardown
        hook is entitled to a stood-up fleet, so calling it against
        half-initialized state used to crash (or hang) instead of
        cleaning up nothing."""
        backend = make_backend(name)

        def broken(workers):
            raise OSError("fleet stand-up failed")

        backend._start = broken
        with pytest.raises(OSError):
            backend.start(2)
        assert not backend.started
        backend.close()
        backend.close()

    def test_double_start_rejected(self, small_wc_graph):
        sampler = ShardedSampler(small_wc_graph, "LT", 2, seed=0, backend="serial")
        with pytest.raises(SamplingError):
            sampler.backend.start(2)
        sampler.close()


class TestBackendEquivalence:
    @pytest.mark.parametrize("model", ["LT", "IC"])
    def test_serial_equals_thread(self, small_wc_graph, model):
        serial = _stream(small_wc_graph, model, 4, 13, "serial")
        thread = _stream(small_wc_graph, model, 4, 13, "thread")
        assert serial == thread

    def test_serial_is_default_backend(self, small_wc_graph):
        default = _stream(small_wc_graph, "LT", 3, 14, None)
        explicit = _stream(small_wc_graph, "LT", 3, 14, "serial")
        assert default == explicit

    def test_deterministic_across_runs(self, small_wc_graph):
        assert _stream(small_wc_graph, "LT", 3, 15, "thread") == _stream(
            small_wc_graph, "LT", 3, 15, "thread"
        )

    def test_worker_count_does_not_change_stream(self, small_wc_graph):
        # The seed-pure contract: workers is a pure throughput knob.
        assert _stream(small_wc_graph, "LT", 2, 16, "serial") == _stream(
            small_wc_graph, "LT", 3, 16, "serial"
        )

    def test_plain_sampler_is_the_same_stream(self, small_wc_graph):
        plain = make_sampler(small_wc_graph, "LT", 16)
        merged = [rr.tolist() for rr in plain.sample_batch(58)]
        assert merged == _stream(small_wc_graph, "LT", 4, 16, "thread")

    def test_identical_seed_sets_serial_vs_thread(self, medium_wc_graph):
        """The acceptance property: byte-identical seeds at a fixed seed."""
        from repro.core.max_coverage import max_coverage

        seeds = {}
        for backend in ("serial", "thread"):
            sampler = ShardedSampler(medium_wc_graph, "LT", 4, seed=2016, backend=backend)
            try:
                pool = RRCollection(medium_wc_graph.n)
                pool.extend(sampler.sample_batch(3000))
                seeds[backend] = max_coverage(pool, 8).seeds
            finally:
                sampler.close()
        assert list(seeds["serial"]) == list(seeds["thread"])


class TestShardedSamplerBehaviour:
    def test_context_manager(self, small_wc_graph):
        with ShardedSampler(small_wc_graph, "LT", 2, seed=3, backend="thread") as sampler:
            assert len(sampler.sample_batch(10)) == 10
        assert not sampler.backend.started

    def test_workers_validation(self, small_wc_graph):
        with pytest.raises(SamplingError):
            ShardedSampler(small_wc_graph, "LT", workers=0)


class TestMakeParallelSampler:
    def test_no_backend_is_serial_at_one_worker_threads_above(self, small_wc_graph):
        """One rule for a fleet with no backend named, the same rule the
        context applies on resize."""
        assert default_fleet(None, None) == ("serial", 1)
        assert default_fleet(None, 1) == ("serial", 1)
        assert default_fleet(None, 3) == ("thread", 3)
        assert default_fleet(" Serial ", None) == (" Serial ", 1)
        instance = SerialBackend()
        assert default_fleet(instance, None) == (instance, 1)
        assert default_fleet("thread", 2) == ("thread", 2)
        single = make_parallel_sampler(small_wc_graph, "LT", seed=4)
        try:
            assert isinstance(single, ShardedSampler)
            assert single.backend.name == "serial" and single.workers == 1
            plain = make_sampler(small_wc_graph, "LT", seed=4)
            assert [rr.tolist() for rr in single.sample_batch(20)] == [
                rr.tolist() for rr in plain.sample_batch(20)
            ]
        finally:
            single.close()

    def test_workers_request_builds_sharded(self, small_wc_graph):
        sampler = make_parallel_sampler(small_wc_graph, "LT", seed=5, workers=3)
        assert isinstance(sampler, ShardedSampler)
        assert sampler.workers == 3 and sampler.backend.name == "thread"
        sampler.close()

    def test_direct_construction_follows_the_same_rule(self, small_wc_graph):
        for workers, name in ((1, "serial"), (3, "thread")):
            with ShardedSampler(small_wc_graph, "LT", workers, seed=5) as sampler:
                assert (sampler.backend.name, sampler.workers) == (name, workers)

    def test_backend_without_workers_picks_default_count(self, small_wc_graph):
        sampler = make_parallel_sampler(small_wc_graph, "LT", seed=6, backend="thread")
        assert isinstance(sampler, ShardedSampler)
        assert sampler.workers >= 1
        sampler.close()

    def test_invalid_workers_rejected(self, small_wc_graph):
        for bad in (0, -2):
            with pytest.raises(SamplingError):
                make_parallel_sampler(small_wc_graph, "LT", seed=8, workers=bad)


@pytest.fixture(scope="module")
def process_pool_results():
    """One process pool shared by the (expensive) process-backend tests."""
    from repro.graph import assign_weighted_cascade, powerlaw_configuration

    graph = assign_weighted_cascade(powerlaw_configuration(120, 4.0, seed=42))
    serial = ShardedSampler(graph, "LT", 2, seed=21, backend="serial")
    serial_stream = [rr.tolist() for rr in serial.sample_batch(60)]
    serial.close()

    proc = ShardedSampler(graph, "LT", 2, seed=21, backend="process")
    try:
        proc_stream = [rr.tolist() for rr in proc.sample_batch(60)]
        single = proc.sample()
        generated = proc.sets_generated
    finally:
        proc.close()
        proc.close()  # idempotent
    return {
        "serial": serial_stream,
        "process": proc_stream,
        "single_size": int(single.size),
        "generated": generated,
    }


class TestProcessBackend:
    def test_matches_serial_stream(self, process_pool_results):
        assert process_pool_results["process"] == process_pool_results["serial"]

    def test_single_sample_and_counter(self, process_pool_results):
        assert process_pool_results["single_size"] >= 1
        assert process_pool_results["generated"] == 61

    def test_unbiased_estimates(self, tiny_graph):
        """Lemma 1 over a process-backend merged stream (IC, exact oracle)."""
        sampler = ShardedSampler(tiny_graph, "IC", 2, seed=22, backend="process")
        try:
            coll = RRCollection(tiny_graph.n)
            coll.extend(sampler.sample_batch(20_000))
            estimate = coll.estimate_influence([0], sampler.scale)
        finally:
            sampler.close()
        assert estimate == pytest.approx(exact_ic_spread(tiny_graph, [0]), rel=0.06)

    def test_worker_fault_surfaces_and_pool_recovers(self, small_wc_graph):
        backend = ProcessBackend()
        sampler = ShardedSampler(small_wc_graph, "LT", 2, seed=23, backend=backend)
        try:
            reference = ShardedSampler(small_wc_graph, "LT", 2, seed=23, backend="serial")
            expected = [rr.tolist() for rr in reference.sample_batch(10)]
            reference.close()
            with pytest.raises(SamplingError, match="worker 0 failed"):
                # Out-of-range *root* pinned in worker 0's run while worker
                # 1's run is good: the coordinator must relay the fault AND
                # drain worker 1's reply so the pipe protocol stays in sync.
                backend.sample_shards(sampler.registration, np.arange(3), [10**6, -1, -1])
            # The pool is still usable and not serving stale replies: the
            # injected batch consumed no stream position (sets derive from
            # their global index alone), so the next batch must equal a
            # fresh run's stream byte for byte.  A desynced pipe would
            # pair the old [1, 2] reply with these indices instead.
            after = [rr.tolist() for rr in sampler.sample_batch(10)]
            assert after == expected
        finally:
            sampler.close()

    def test_worker_death_respawns_and_retries_byte_identically(self, small_wc_graph):
        """A dead process worker is quarantined and respawned, its lost
        batch replayed byte-identically, and the crash context — worker
        id, exit code, dispatch count, stderr tail — lands in fault_log."""
        reference = ShardedSampler(small_wc_graph, "LT", 2, seed=24, backend="serial")
        expected = [rr.tolist() for rr in reference.sample_batch(18)]
        reference.close()

        backend = ProcessBackend()
        sampler = ShardedSampler(small_wc_graph, "LT", 2, seed=24, backend=backend)
        try:
            stream = [rr.tolist() for rr in sampler.sample_batch(6)]
            backend._conns[0].send(("abort", "injected crash: disk on fire"))
            backend._procs[0].join(timeout=10)
            # The crash becomes an internal retry event, not an error: the
            # next two batches merge to the same bytes as the serial run.
            stream += [rr.tolist() for rr in sampler.sample_batch(6)]
            stream += [rr.tolist() for rr in sampler.sample_batch(6)]
            assert stream == expected
            assert backend.respawns == 1
            message = "; ".join(backend.fault_log)
            assert "worker 0" in message
            assert "exitcode" in message and "pid" in message
            assert "batches dispatched" in message
            assert "disk on fire" in message  # the stderr tail rode along
        finally:
            sampler.close()

    def test_backend_not_wedged_after_repeated_crashes(self, small_wc_graph):
        """Seed-state regression: a crash used to leave the dead pipe in
        the fleet, so every later sample_shards re-raised.  Now each crash
        respawns and the backend keeps serving exact bytes indefinitely."""
        reference = ShardedSampler(small_wc_graph, "LT", 2, seed=25, backend="serial")
        expected = [rr.tolist() for rr in reference.sample_batch(30)]
        reference.close()

        backend = ProcessBackend()
        sampler = ShardedSampler(small_wc_graph, "LT", 2, seed=25, backend=backend)
        try:
            stream = []
            for round_no in range(3):
                backend._conns[round_no % 2].send(("abort", f"crash {round_no}"))
                backend._procs[round_no % 2].join(timeout=10)
                stream += [rr.tolist() for rr in sampler.sample_batch(10)]
            assert stream == expected
            assert backend.respawns == 3
        finally:
            sampler.close()

    def test_crash_loop_exhausts_the_retry_budget(self, small_wc_graph):
        """Workers that die on every batch are respawned a bounded number
        of times, then the call raises with the recent crash context."""

        class DyingFleet(ProcessBackend):
            def _dispatch(self, worker_id, *run):
                self._conns[worker_id].send(("abort", "poisoned batch"))
                super()._dispatch(worker_id, *run)

        backend = DyingFleet()
        sampler = ShardedSampler(small_wc_graph, "LT", 2, seed=26, backend=backend)
        try:
            with pytest.raises(SamplingError, match="retry budget exhausted") as caught:
                sampler.sample_batch(10)
            assert "poisoned batch" in str(caught.value)
            # Four barren rounds of two lost runs each, every slot healed.
            assert backend.respawns == 8
        finally:
            sampler.close()


class TestParallelAlgorithms:
    def test_dssa_parallel_matches_serial_statistically(self, medium_wc_graph):
        """Parallel D-SSA estimates the same influence within ε."""
        serial = dssa(medium_wc_graph, 5, epsilon=0.2, model="LT", seed=31)
        threaded = dssa(
            medium_wc_graph, 5, epsilon=0.2, model="LT", seed=31,
            backend="thread", workers=2,
        )
        assert threaded.influence == pytest.approx(serial.influence, rel=0.2)
        overlap = set(serial.seeds) & set(threaded.seeds)
        assert len(overlap) >= 2  # same influential core surfaces

    def test_dssa_workers_serial_backend_exact_reuse(self, medium_wc_graph):
        """Same (seed, workers): serial and thread runs are identical."""
        a = dssa(medium_wc_graph, 5, epsilon=0.2, model="LT", seed=32, workers=2)
        b = dssa(
            medium_wc_graph, 5, epsilon=0.2, model="LT", seed=32,
            backend="thread", workers=2,
        )
        assert list(a.seeds) == list(b.seeds)
        assert a.influence == pytest.approx(b.influence)
        assert a.samples == b.samples

    def test_ssa_runs_with_workers(self, medium_wc_graph):
        from repro.core.ssa import ssa

        result = ssa(medium_wc_graph, 5, epsilon=0.3, model="LT", seed=33, workers=2)
        assert len(result.seeds) == 5

    def test_imm_runs_with_workers(self, medium_wc_graph):
        from repro.baselines.imm import imm

        result = imm(
            medium_wc_graph, 5, epsilon=0.3, model="LT", seed=34,
            workers=2, max_samples=20_000,
        )
        assert len(result.seeds) == 5


class TestAutoKernelOnShardedBackends:
    """One-shot ``kernel="auto"`` on a sharded backend answers exactly as
    the serial run does."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("algorithm", ["ssa", "dssa", "imm"])
    def test_answer_equals_serial(self, medium_wc_graph, algorithm, backend):
        from repro.baselines.imm import imm
        from repro.core.ssa import ssa

        run = {"ssa": ssa, "dssa": dssa, "imm": imm}[algorithm]
        options = dict(epsilon=0.25, model="IC", seed=35, kernel="auto", max_samples=20_000)
        serial = run(medium_wc_graph, 5, **options)
        sharded = run(medium_wc_graph, 5, backend=backend, workers=2, **options)
        assert list(sharded.seeds) == list(serial.seeds)
        assert sharded.influence == serial.influence
        assert sharded.samples == serial.samples
