"""Network backend: wire protocol, blob cache, and fleet fault injection.

The load-bearing property is the same one every backend must honor —
execution topology is invisible in the RR stream — but here topology
*churns*: hosts crash mid-batch, leases expire, new hosts join between
batches.  Every scenario below asserts the merged stream is
byte-identical to a crash-free serial run, because seed-pure per-set
derivation makes retry and re-partitioning pure reassignment.
"""

import dataclasses
import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.graph import assign_weighted_cascade, powerlaw_configuration
from repro.graph.shm import pack_csr_graph
from repro.engine import InfluenceEngine
from repro.sampling.backends import NetworkBackend, run_worker, set_network_defaults
from repro.sampling.backends.netproto import (
    ConnectionClosed,
    load_cached_blob,
    parse_address,
    recv_frame,
    send_frame,
    store_cached_blob,
)
from repro.sampling.backends.network import parse_hosts_spec
from repro.sampling.sharded import ShardedSampler

SHORT_TTL = 2.0


def _fleet_graph():
    return assign_weighted_cascade(powerlaw_configuration(100, 4.0, seed=45))


def _serial_stream(graph, seed, count):
    sampler = ShardedSampler(graph, "LT", 1, seed=seed, backend="serial")
    try:
        return [rr.tolist() for rr in sampler.sample_batch(count)]
    finally:
        sampler.close()


class TestWireProtocol:
    def test_frames_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = ("sample", 3, np.arange(5, dtype=np.int64), None)
            send_frame(a, payload)
            kind, seq, indices, roots = recv_frame(b)
            assert (kind, seq, roots) == ("sample", 3, None)
            assert np.array_equal(indices, np.arange(5))
        finally:
            a.close()
            b.close()

    def test_recv_raises_connection_closed_on_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_header_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 40).to_bytes(8, "big") + b"x")
            with pytest.raises(ConnectionClosed, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8700") == ("127.0.0.1", 8700)
        for bad in ("nope", ":80", "host:", "host:abc"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_parse_hosts_spec(self):
        assert parse_hosts_spec(None) == {}
        assert parse_hosts_spec("3") == {"spawn": 3}
        assert parse_hosts_spec("0.0.0.0:8700,min=2,ttl=15") == {
            "listen": "0.0.0.0:8700",
            "spawn": 0,
            "min_hosts": 2,
            "lease_ttl": 15.0,
        }
        assert parse_hosts_spec("cache=/tmp/blobs")["cache_dir"] == "/tmp/blobs"
        with pytest.raises(ValueError):
            parse_hosts_spec("not an address")


class TestBlobCache:
    def test_fetch_once_then_hit(self, tmp_path, small_wc_graph):
        blob, manifest = pack_csr_graph(small_wc_graph)
        cache = str(tmp_path)
        assert load_cached_blob(cache, manifest) is None
        store_cached_blob(cache, manifest, blob)
        assert load_cached_blob(cache, manifest) == blob

    def test_corrupt_entry_is_dropped_not_trusted(self, tmp_path, small_wc_graph):
        from repro.sampling.backends.netproto import blob_cache_path

        blob, manifest = pack_csr_graph(small_wc_graph)
        cache = str(tmp_path)
        store_cached_blob(cache, manifest, blob)
        path = blob_cache_path(cache, manifest.content_hash)
        with open(path, "r+b") as handle:
            handle.write(b"\xff" * 16)  # torn write / disk corruption
        assert load_cached_blob(cache, manifest) is None
        assert not list(tmp_path.glob("csr-*.blob"))  # evicted, not kept


class TestFleetChurn:
    """Crash, lease expiry, and join — stream bytes never move."""

    def test_crash_expiry_and_join_are_byte_invisible(self, tmp_path):
        graph = _fleet_graph()
        expected = _serial_stream(graph, 47, 80)

        backend = NetworkBackend(
            spawn=2,
            lease_ttl=SHORT_TTL,
            cache_dir=str(tmp_path),
            start_timeout=60.0,
            join_grace=60.0,
        )
        sampler = ShardedSampler(graph, "LT", 2, seed=47, backend=backend)
        try:
            stream = [rr.tolist() for rr in sampler.sample_batch(20)]

            # Crash: the abort frame reaches host 0 before its next batch,
            # so its in-flight indices are retried on the survivor.
            backend.inject_abort(0, "injected abort: disk on fire")
            stream += [rr.tolist() for rr in sampler.sample_batch(20)]
            assert any("died mid-batch" in f or "is gone" in f for f in backend.fault_log)
            # Healing is eventually-consistent: waiting for full strength
            # drives the respawn loop, and the replacement counts.
            backend.wait_for_hosts(2, timeout=60.0)
            assert backend.respawns >= 1

            # Lease expiry: heartbeats stop, the reaper retires the lease,
            # and the fleet heals back to strength.
            backend.pause_heartbeat(0)
            time.sleep(SHORT_TTL * 1.6)
            stream += [rr.tolist() for rr in sampler.sample_batch(20)]
            assert any("lease expired" in f for f in backend.fault_log)

            # Join: a third host enters mid-stream; the coordinator
            # re-partitions over the larger fleet.
            backend.add_local_worker()
            backend.wait_for_hosts(3, timeout=60.0)
            assert len(backend.live_hosts()) == 3
            stream += [rr.tolist() for rr in sampler.sample_batch(20)]

            assert stream == expected
        finally:
            sampler.close()
        assert not backend.started

    def test_worker_blob_cache_is_content_addressed(self, tmp_path):
        graph = _fleet_graph()
        _, manifest = pack_csr_graph(graph)
        backend = NetworkBackend(spawn=1, cache_dir=str(tmp_path), start_timeout=60.0)
        sampler = ShardedSampler(graph, "LT", 1, seed=48, backend=backend)
        try:
            sampler.sample_batch(4)
            # The spawned worker stored the fetched blob under its hash.
            assert (tmp_path / f"csr-{manifest.content_hash}.blob").exists()
        finally:
            sampler.close()

    def test_worker_application_error_raises_and_fleet_survives(self):
        graph = _fleet_graph()
        expected = _serial_stream(graph, 49, 12)
        backend = NetworkBackend(spawn=2, start_timeout=60.0, join_grace=60.0)
        sampler = ShardedSampler(graph, "LT", 2, seed=49, backend=backend)
        try:
            # A pinned out-of-range root is a deterministic worker-side
            # failure: retrying it elsewhere would fail identically, so it
            # must raise — but without crashing or wedging the fleet.
            with pytest.raises(SamplingError, match="failed"):
                backend.sample_shards(sampler.registration, np.arange(2), [10**6, -1])
            after = [rr.tolist() for rr in sampler.sample_batch(12)]
            assert after == expected  # the failed call consumed no stream position
        finally:
            sampler.close()


class TestExternalHosts:
    """spawn=0 fleets: workers live elsewhere and dial in."""

    def test_external_worker_joins_and_matches_serial(self, tmp_path):
        graph = _fleet_graph()
        expected = _serial_stream(graph, 50, 30)
        backend = NetworkBackend(spawn=0, min_hosts=0, join_grace=60.0)
        sampler = ShardedSampler(graph, "LT", 1, seed=50, backend=backend)
        worker = None
        try:
            host, port = backend.address
            # An in-thread stand-in for `repro-im worker --connect` on
            # another box (never send it an abort: abort kills the process).
            worker = threading.Thread(
                target=run_worker,
                args=(f"{host}:{port}",),
                kwargs={"cache_dir": str(tmp_path), "label": "external-1"},
                daemon=True,
            )
            worker.start()
            backend.wait_for_hosts(1, timeout=60.0)
            stream = [rr.tolist() for rr in sampler.sample_batch(30)]
            assert stream == expected
            assert [h["label"] for h in backend.hosts_info()] == ["external-1"]
        finally:
            sampler.close()  # the close frame releases the worker thread
            if worker is not None:
                worker.join(timeout=10)
                assert not worker.is_alive()

    def test_no_hosts_ever_raises_after_grace(self):
        graph = _fleet_graph()
        backend = NetworkBackend(spawn=0, min_hosts=0, join_grace=0.5)
        sampler = ShardedSampler(graph, "LT", 1, seed=51, backend=backend)
        try:
            with pytest.raises(SamplingError, match="no live worker hosts"):
                sampler.sample_batch(4)
        finally:
            sampler.close()

    def test_worker_cannot_reach_coordinator(self):
        with pytest.raises(SamplingError, match="cannot reach"):
            run_worker("127.0.0.1:1", retry_for=0.0)

    def test_close_is_prompt_and_frees_a_fixed_port(self):
        """Closing the listener used to leave the accept thread blocked,
        so close() ran out its 5 s join and the port stayed bound: the
        next fleet on a fixed address (the next session's) failed."""
        graph = _fleet_graph()
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        address = f"127.0.0.1:{port}"
        first = ShardedSampler(
            graph, "LT", 1, seed=53, backend=NetworkBackend(listen=address, spawn=0, min_hosts=0)
        )
        began = time.monotonic()
        first.close()
        assert time.monotonic() - began < 1.0
        second = ShardedSampler(
            graph, "LT", 1, seed=53, backend=NetworkBackend(listen=address, spawn=0, min_hosts=0)
        )
        try:
            assert second.backend.address == ("127.0.0.1", port)
        finally:
            second.close()

    def test_bind_failure_names_the_address(self):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        backend = NetworkBackend(listen=f"127.0.0.1:{port}", spawn=0, min_hosts=0)
        try:
            with pytest.raises(SamplingError, match=f"cannot listen on 127.0.0.1:{port}"):
                ShardedSampler(_fleet_graph(), "LT", 1, seed=54, backend=backend)
            assert not backend.started
        finally:
            holder.close()

    def test_stream_frames_carry_no_graph(self):
        graph = _fleet_graph()
        backend = NetworkBackend(spawn=0, min_hosts=0)
        sampler = ShardedSampler(graph, "LT", 1, seed=52, backend=backend)
        try:
            # The graph must travel only as the content-addressed blob,
            # once per snapshot and host; pickling a full CSR graph into
            # every stream registration would defeat the cache.
            ((_snapshot, stream),) = backend._streams.values()
            assert "graph" not in {f.name for f in dataclasses.fields(stream)}
            assert len(pickle.dumps(stream)) < len(pack_csr_graph(graph)[0])
        finally:
            sampler.close()


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestSessionFleet:
    """One fleet serves a whole session: every pool, and every write."""

    def test_fixed_address_serves_dssa_ssa_and_a_mutate(self, tmp_path):
        """Two external hosts on a fixed address answer D-SSA, SSA, a
        mutate and D-SSA again in one session, as a serial session does,
        and leave when the session closes.  Each pool used to start its
        own fleet: SSA beside D-SSA could not bind the address, and the
        mutate's rebuilt fleet waited for hosts that had already left."""
        graph = _fleet_graph()
        u = int(np.flatnonzero(np.diff(graph.out_indptr))[0])
        edge = (u, int(graph.out_indices[graph.out_indptr[u]]), 0.9)
        address = f"127.0.0.1:{_free_port()}"
        hosts = [
            threading.Thread(
                target=run_worker,
                args=(address,),
                kwargs={"cache_dir": str(tmp_path), "label": f"ext-{i}", "retry_for": 60.0},
                daemon=True,
            )
            for i in range(2)
        ]
        previous = set_network_defaults(
            listen=address, spawn=0, min_hosts=2, start_timeout=60.0, join_grace=60.0
        )
        answers = {}
        try:
            for host in hosts:
                host.start()
            for backend in ("network", "serial"):
                with InfluenceEngine(graph, model="LT", seed=61, backend=backend) as engine:
                    results = [
                        engine.maximize(3, epsilon=0.25),
                        engine.maximize(3, epsilon=0.25, algorithm="SSA"),
                    ]
                    engine.mutate(reweight=[edge])
                    results.append(engine.maximize(3, epsilon=0.25))
                answers[backend] = [
                    (list(r.seeds), r.influence, r.samples) for r in results
                ]
        finally:
            set_network_defaults(**previous)
            for host in hosts:
                host.join(timeout=10)
        assert answers["network"] == answers["serial"]
        assert not any(host.is_alive() for host in hosts)
        # Both snapshots reached the hosts as blobs, cached by hash.
        assert len(list(tmp_path.glob("csr-*.blob"))) == 2
