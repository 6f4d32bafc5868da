"""TCP serving: protocol correctness, concurrent clients, clean errors."""

import os
import re
import socket
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.dssa import dssa
from repro.service import (
    InfluenceServer,
    InfluenceService,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import decode_line, encode_line

SEED = 2016
EPS = 0.25


@pytest.fixture
def served(small_wc_graph):
    """A service with one session, served on an ephemeral port."""
    service = InfluenceService(max_workers=4)
    service.open_session("default", small_wc_graph, model="LT", seed=SEED)
    server = InfluenceServer(service, port=0)
    server.start_background()
    try:
        yield server
    finally:
        server.shutdown()
        service.close()


class TestProtocol:
    def test_ping_and_maximize_roundtrip(self, served, small_wc_graph):
        host, port = served.address
        with ServiceClient(host, port) as client:
            assert client.ping()
            wire = client.call("maximize", k=4, epsilon=EPS)
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)
        assert wire["seeds"] == cold.seeds
        assert wire["samples"] == cold.samples
        assert wire["algorithm"] == "D-SSA"

    def test_sweep_estimate_stats_and_sessions(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            sweep = client.call("sweep", ks=[2, 4], epsilon=EPS)
            assert [r["k"] for r in sweep] == [2, 4]
            estimate = client.call("estimate", seeds=[1, 2], samples=256)
            assert isinstance(estimate, float)
            stats = client.call("stats")
            assert stats["queries"] == 3 and stats["hit_rate"] > 0
            sessions = client.call("sessions")
            assert "default" in sessions
            algos = client.call("algorithms")
            assert {"D-SSA", "SSA", "IMM"} <= {a["name"] for a in algos}

    def test_server_errors_are_typed_not_fatal(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="maximize needs k"):
                client.call("maximize")
            with pytest.raises(ServiceError, match="unknown operation"):
                client.call("frobnicate")
            with pytest.raises(ServiceError, match="unknown session"):
                client.call("maximize", session="nope", k=3)
            assert client.ping()  # the connection survived all of that

    def test_malformed_json_gets_error_response(self, served):
        host, port = served.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = decode_line(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_request_ids_echo_back(self, served):
        host, port = served.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(encode_line({"id": "abc-7", "op": "ping"}))
            response = decode_line(sock.makefile("rb").readline())
        assert response["id"] == "abc-7" and response["ok"]


class TestConcurrentClients:
    def test_parallel_clients_get_byte_identical_answers(self, served, small_wc_graph):
        host, port = served.address
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)

        def one_client(_):
            with ServiceClient(host, port) as client:
                return client.call("maximize", k=4, epsilon=EPS)

        with ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(one_client, range(6)))
        for wire in answers:
            assert wire["seeds"] == cold.seeds
            assert wire["samples"] == cold.samples
        with ServiceClient(host, port) as client:
            assert client.call("stats")["hit_rate"] > 0


class TestShutdown:
    def test_shutdown_never_deadlocks_against_start_background(self):
        """Lifecycle-race regression: socketserver.shutdown() blocks on an
        event that only a *running* serve_forever loop ever sets, so a
        shutdown racing start_background — landing before the background
        thread entered the loop — used to hang forever.  Shutdown must be
        safe at any lifecycle point, so hammer the race window."""
        import threading

        service = InfluenceService()
        try:
            for _ in range(15):
                server = InfluenceServer(service, port=0)
                thread = server.start_background()
                # No sleep: shutdown lands while the thread may not have
                # reached serve_forever yet.
                stopper = threading.Thread(target=server.shutdown, daemon=True)
                stopper.start()
                stopper.join(timeout=10)
                assert not stopper.is_alive(), "shutdown deadlocked"
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert server.stopped
        finally:
            service.close()

    def test_shutdown_without_serving_then_serve_returns(self):
        """shutdown() on a server whose loop never ran must not block, and
        a later serve_forever must return immediately instead of serving."""
        service = InfluenceService()
        try:
            server = InfluenceServer(service, port=0)
            server.shutdown()  # loop never started: close the socket, done
            assert server.stopped
            server.shutdown()  # idempotent
            server.serve_forever()  # stop flag set: returns right away
        finally:
            service.close()

    def test_remote_shutdown_stops_the_listener(self, small_wc_graph):
        service = InfluenceService()
        service.open_session("default", small_wc_graph, model="LT", seed=SEED)
        server = InfluenceServer(service, port=0)
        thread = server.start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                client.shutdown_server()
            thread.join(timeout=10)
            assert not thread.is_alive()
            with pytest.raises(ServiceError):
                ServiceClient(host, port, timeout=2).ping()
        finally:
            server.shutdown()
            service.close()


class TestServeProcessShutdown:
    def test_remote_shutdown_leaves_a_clean_stderr(self, tmp_path):
        """``repro serve`` stops on a remote ``shutdown`` with no pending
        connection handler left for the closing loop to destroy."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        stderr_path = tmp_path / "serve.err"
        with open(stderr_path, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dataset", "nethept",
                 "--scale", "0.2", "--seed", "11", "--port", "0", "--metrics-port", "0"],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            )
            try:
                port = metrics_port = None
                for line in proc.stdout:
                    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
                    if match:
                        port = int(match.group(1))
                    match = re.search(r"metrics on http://127\.0\.0\.1:(\d+)/", line)
                    if match:
                        metrics_port = int(match.group(1))
                        break
                assert port is not None and metrics_port is not None, stderr_path.read_text()
                # Idle connections leave handlers pending at shutdown; on
                # Python >= 3.12.1 they also hold up ``Server.wait_closed``.
                with socket.create_connection(("127.0.0.1", port)), \
                        socket.create_connection(("127.0.0.1", metrics_port)):
                    with ServiceClient("127.0.0.1", port, timeout=120) as client:
                        assert len(client.call("maximize", k=3, epsilon=EPS)["seeds"]) == 3
                        client.shutdown_server()
                    assert proc.wait(timeout=60) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        err = stderr_path.read_text()
        assert "Task was destroyed" not in err, err
        assert "Event loop is closed" not in err, err
        assert "Traceback" not in err, err
