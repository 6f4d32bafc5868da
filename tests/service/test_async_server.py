"""Asyncio serving tier: pipelining, version negotiation, typed errors,
disconnect hygiene, and the Prometheus metrics endpoint.

The determinism bar is the same as everywhere else in the repo: any
number of connections, any pipelining depth, any interleaving — every
answer is byte-identical to a sequential cold run at the same seed.
"""

import json
import socket
import time

import pytest

from repro.core.dssa import dssa
from repro.service import (
    InfluenceServer,
    InfluenceService,
    InternalServiceError,
    OverBudgetError,
    ServiceClient,
    ServiceError,
    UnknownSessionError,
)
from repro.service.protocol import PROTO_VERSION, decode_line, encode_line

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


@pytest.fixture
def served_with_metrics(small_wc_graph):
    """Same, plus the Prometheus exposition endpoint on its own port."""
    service = InfluenceService(max_workers=4)
    service.open_session("default", small_wc_graph, model="LT", seed=SEED)
    server = InfluenceServer(service, port=0, metrics_port=0)
    server.start_background()
    try:
        yield server
    finally:
        server.shutdown()
        service.close()


def _raw_roundtrip(address, *messages, reads=None):
    """Send raw frames on one socket; return the decoded response lines."""
    host, port = address
    with socket.create_connection((host, port), timeout=30) as sock:
        wfile = sock.makefile("wb")
        rfile = sock.makefile("rb")
        for message in messages:
            wfile.write(encode_line(message))
        wfile.flush()
        count = len(messages) if reads is None else reads
        return [decode_line(rfile.readline()) for _ in range(count)]


class TestPipelining:
    def test_64_pipelined_connections_byte_identical(self, served, small_wc_graph):
        """64 concurrent sockets, two requests in flight on each, no
        client threads: connection count is decoupled from the service's
        4 worker threads, and every answer matches the cold run."""
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)
        host, port = served.address
        sockets = []
        try:
            for i in range(64):
                sock = socket.create_connection((host, port), timeout=60)
                wfile = sock.makefile("wb")
                wfile.write(
                    encode_line(
                        {
                            "id": 1,
                            "op": "maximize",
                            "session": "default",
                            "params": {"k": 4, "epsilon": EPS},
                            "proto": PROTO_VERSION,
                        }
                    )
                )
                wfile.write(
                    encode_line({"id": 2, "op": "ping", "session": "default",
                                 "params": {}, "proto": PROTO_VERSION})
                )
                wfile.flush()
                sockets.append((sock, sock.makefile("rb")))
            for sock, rfile in sockets:
                responses = {}
                for _ in range(2):
                    frame = decode_line(rfile.readline())
                    responses[frame["id"]] = frame
                assert responses[2]["ok"] and responses[2]["result"]["pong"]
                answer = responses[1]
                assert answer["ok"], answer
                assert answer["result"]["seeds"] == cold.seeds
                assert answer["result"]["samples"] == cold.samples
        finally:
            for sock, rfile in sockets:
                rfile.close()
                sock.close()

    def test_pipelined_responses_arrive_out_of_order(self, served):
        """A slow maximize does not head-of-line block the ping queued
        behind it on the same connection."""
        slow = {"id": "slow", "op": "maximize", "session": "default",
                "params": {"k": 4, "epsilon": 0.1}, "proto": PROTO_VERSION}
        fast = {"id": "fast", "op": "ping", "session": "default",
                "params": {}, "proto": PROTO_VERSION}
        first, second = _raw_roundtrip(served.address, slow, fast)
        assert first["id"] == "fast" and first["ok"]
        assert second["id"] == "slow" and second["ok"]

    def test_call_pipelined_matches_sequential(self, served, small_wc_graph):
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)
        host, port = served.address
        with ServiceClient(host, port) as client:
            results = client.call_pipelined(
                [
                    ("maximize", {"k": 4, "epsilon": EPS}),
                    ("ping", {}),
                    ("maximize", {"k": 4, "epsilon": EPS}),
                ]
            )
        assert results[0]["seeds"] == cold.seeds
        assert results[1]["pong"] is True
        # identical up to wall-clock timing
        for field in ("seeds", "samples", "influence", "algorithm", "iterations"):
            assert results[2][field] == results[0][field]

    def test_call_pipelined_isolates_failures(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            results = client.call_pipelined(
                [("ping", {}), ("no-such-op", {}), ("ping", {})]
            )
        assert results[0]["pong"] and results[2]["pong"]
        assert isinstance(results[1], ServiceError)


class TestNegotiation:
    def test_hello_advertises_revision_and_ops(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            hello = client.hello()
        assert hello["proto"] == PROTO_VERSION == 1
        assert {"maximize", "mutate", "quota", "metrics_text",
                "hello", "shutdown"} <= set(hello["ops"])

    def test_frames_without_proto_get_current_responses(self, served):
        """A request may omit ``proto``; its responses are shaped like
        every other: ``proto: 1`` on success and on error alike."""
        ok, err = _raw_roundtrip(
            served.address,
            {"id": 7, "op": "ping", "session": "default", "params": {}},
            {"id": 8, "op": "no-such-op", "session": "default", "params": {}},
        )
        assert ok == {"id": 7, "ok": True, "result": {"pong": True}, "proto": 1}
        assert err["proto"] == 1
        assert err["ok"] is False and err["id"] == 8
        assert set(err["error"]) == {"type", "message", "code"}
        assert err["error"]["code"] == "bad_request"

    def test_proto_is_echoed_for_v1_clients(self, served):
        (frame,) = _raw_roundtrip(
            served.address,
            {"id": 1, "op": "ping", "session": "default", "params": {},
             "proto": 1},
        )
        assert frame["proto"] == 1 and frame["ok"]

    def test_future_revision_is_rejected_not_guessed(self, served):
        (frame,) = _raw_roundtrip(
            served.address,
            {"id": 1, "op": "ping", "session": "default", "params": {},
             "proto": 99},
        )
        assert frame["ok"] is False
        assert frame["error"]["code"] == "bad_request"
        assert "revision 99" in frame["error"]["message"]


class TestTypedErrors:
    def test_unknown_session_raises_typed_exception(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            with pytest.raises(UnknownSessionError) as excinfo:
                client.call("maximize", session="nope", k=2)
        assert excinfo.value.code == "no_such_session"

    def test_over_budget_carries_the_estimate(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            client.call("quota", quota_bytes=128)
            with pytest.raises(OverBudgetError) as excinfo:
                client.call("maximize", k=4, epsilon=EPS)
        exc = excinfo.value
        assert exc.code == "over_budget"
        assert exc.estimate is not None
        assert exc.estimate["quota_bytes"] == 128
        assert exc.estimate["bytes_to_sample"] > 128

    def test_bad_params_stay_bad_request(self, served):
        host, port = served.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("maximize", k=-1)
            assert excinfo.value.code == "bad_request"
            assert client.ping()  # connection survived the error

    def test_unexpected_handler_exception_answers_internal(self, served, monkeypatch):
        """A handler raising outside the library's error types used to
        kill the request task, so its client waited forever."""

        def broken(session, params):
            raise RuntimeError("fleet on fire")

        monkeypatch.setattr(served.service, "_op_ping", broken)
        host, port = served.address
        with ServiceClient(host, port, timeout=10) as client:
            with pytest.raises(InternalServiceError, match="fleet on fire") as excinfo:
                client.call("ping")
            assert excinfo.value.code == "internal"
            monkeypatch.undo()
            assert client.ping()  # the same connection keeps serving


class TestDisconnectCleanup:
    def test_abrupt_disconnect_releases_inflight_state(
        self, served, small_wc_graph
    ):
        """Kill the socket mid-query: the orphaned task still runs to
        completion, releases its pool snapshot, and later queries on
        healthy connections stay byte-identical."""
        host, port = served.address
        sock = socket.create_connection((host, port), timeout=30)
        sock.sendall(
            encode_line(
                {"id": 1, "op": "maximize", "session": "default",
                 "params": {"k": 4, "epsilon": 0.1}, "proto": PROTO_VERSION}
            )
        )
        sock.close()  # walk away without reading the response
        service = served.service
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            usage = service.pools.namespace_usage().get("default")
            if usage is not None and usage["inflight"] == 0 and usage["sets"] > 0:
                break
            time.sleep(0.05)
        else:
            pytest.fail("in-flight pool state never drained after disconnect")
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)
        with ServiceClient(host, port) as client:
            wire = client.call("maximize", k=4, epsilon=EPS)
        assert wire["seeds"] == cold.seeds
        assert wire["samples"] == cold.samples


def _http_get(address, path, method="GET"):
    host, port = address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        payload = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            payload += chunk
    head, _, body = payload.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode("utf-8")


class TestMetricsEndpoint:
    def test_scrape_exposes_required_families(self, served_with_metrics):
        host, port = served_with_metrics.address
        with ServiceClient(host, port) as client:
            client.call("maximize", k=4, epsilon=EPS)
        status, headers, body = _http_get(
            served_with_metrics.metrics_address, "/metrics"
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        for family in (
            "repro_pool_bytes",
            "repro_session_pool_bytes",
            "repro_admission_decisions_total",
            "repro_requests_total",
            "repro_request_latency_seconds_bucket",
            "repro_connections_open",
        ):
            assert family in body, f"missing metric family {family}"
        assert 'repro_session_pool_bytes{session="default"}' in body

    def test_unknown_path_and_method_are_refused(self, served_with_metrics):
        address = served_with_metrics.metrics_address
        status, _, _ = _http_get(address, "/nope")
        assert status == 404
        status, _, _ = _http_get(address, "/metrics", method="POST")
        assert status == 405

    def test_metrics_text_op_matches_exposition(self, served_with_metrics):
        host, port = served_with_metrics.address
        with ServiceClient(host, port) as client:
            payload = client.call("metrics_text")
        assert payload["content_type"].startswith("text/plain; version=0.0.4")
        assert "repro_pool_bytes" in payload["text"]
        # op-level exposition omits only the transport-owned connection
        # gauge; every service-side family is identical in kind
        assert "repro_connections_open" not in payload["text"]

    def test_scrape_is_valid_exposition_syntax(self, served_with_metrics):
        _, _, body = _http_get(served_with_metrics.metrics_address, "/metrics")
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels, line
            float(value)  # every sample value parses as a number
