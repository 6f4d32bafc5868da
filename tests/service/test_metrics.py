"""Service observability (latency histograms + the metrics op) and the
runtime resize op, in-process and over the wire."""

import pytest

from repro.core.dssa import dssa
from repro.service import InfluenceServer, InfluenceService, ServiceError
from repro.service.metrics import BUCKET_BOUNDS, LatencyHistogram, MetricsRegistry

SEED = 2016
EPS = 0.25


class TestLatencyHistogram:
    def test_counts_and_aggregates(self):
        hist = LatencyHistogram()
        for seconds in (0.0005, 0.002, 0.002, 0.3, 2.0):
            hist.observe(seconds)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["total_seconds"] == pytest.approx(2.3045)
        assert snap["max_seconds"] == 2.0
        assert len(snap["buckets"]) == len(BUCKET_BOUNDS) + 1
        assert sum(b["count"] for b in snap["buckets"]) == 5

    def test_quantiles_are_bucket_bounds(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(0.004)  # lands in the le=0.005 bucket
        hist.observe(8.0)
        assert hist.quantile(0.50) == 0.005
        assert hist.quantile(0.99) == 0.005
        snap = hist.snapshot()
        assert snap["p50_seconds"] == 0.005
        assert snap["max_seconds"] == 8.0

    def test_empty_histogram(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0 and snap["p99_seconds"] == 0.0

    def test_overflow_bucket(self):
        hist = LatencyHistogram()
        hist.observe(60.0)
        assert hist.snapshot()["buckets"][-1] == {"le": "inf", "count": 1}
        assert hist.quantile(0.5) == 60.0

    def test_registry_keys_per_op(self):
        registry = MetricsRegistry()
        registry.observe("maximize", 0.1)
        registry.observe("maximize", 0.2)
        registry.observe("ping", 0.001)
        snap = registry.snapshot()
        assert snap["maximize"]["count"] == 2 and snap["ping"]["count"] == 1


class TestServiceMetricsOp:
    def test_every_call_is_timed(self, small_wc_graph):
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="LT", seed=SEED)
            service.call("maximize", k=3, epsilon=EPS)
            service.call("ping")
            with pytest.raises(ServiceError):
                service.call("maximize")  # failures are latency too
            metrics = service.call("metrics")
            assert metrics["maximize"]["count"] == 2
            assert metrics["ping"]["count"] == 1
            assert metrics["maximize"]["max_seconds"] > 0

    def test_stats_carries_workers_and_truncations(self, small_wc_graph):
        with InfluenceService() as service:
            service.open_session(
                "default", small_wc_graph, model="LT", seed=SEED, workers=2,
                backend="thread",
            )
            service.call("maximize", k=3, epsilon=EPS)
            stats = service.call("stats")
            assert stats["workers"] == 2
            assert stats["pool_truncations"] == 0


class TestResizeOp:
    def test_resize_is_byte_invisible(self, small_wc_graph):
        cold_small = dssa(small_wc_graph, 3, epsilon=EPS, model="LT", seed=SEED)
        cold_big = dssa(small_wc_graph, 6, epsilon=0.2, model="LT", seed=SEED)
        with InfluenceService() as service:
            service.open_session(
                "default", small_wc_graph, model="LT", seed=SEED,
                backend="thread", workers=2,
            )
            first = service.call("maximize", k=3, epsilon=EPS)
            outcome = service.call("resize", workers=4)
            assert outcome["workers"] == 4 and outcome["pools_resized"] >= 1
            second = service.call("maximize", k=6, epsilon=0.2)
        assert list(first.seeds) == list(cold_small.seeds)
        assert list(second.seeds) == list(cold_big.seeds)
        assert second.samples == cold_big.samples

    def test_resize_upgrades_a_plain_session(self, small_wc_graph):
        """A session opened without a backend accepts a resize: the
        context moves from its one-worker serial fleet to a *parallel*
        (thread) one — not a silently serial fleet — same stream."""
        cold = dssa(small_wc_graph, 4, epsilon=EPS, model="LT", seed=SEED)
        with InfluenceService() as service:
            engine = service.open_session(
                "default", small_wc_graph, model="LT", seed=SEED
            )
            service.call("maximize", k=2, epsilon=EPS)
            service.call("resize", workers=3)
            result = service.call("maximize", k=4, epsilon=EPS)
            stats = service.call("stats")
            assert stats["workers"] == 3
            (entry,) = engine.pool_manager._entries.values()
            assert entry.ctx.sampler.backend.name == "thread"
            assert service.call("sessions")["default"]["backend"] == "thread"
        assert list(result.seeds) == list(cold.seeds)
        assert result.samples == cold.samples

    def test_stats_reports_the_live_fleet_after_per_query_override(
        self, small_wc_graph
    ):
        """Per-query workers= persists on the pool sampler; stats must
        report the real fleet, not the stale session default."""
        with InfluenceService() as service:
            service.open_session(
                "default", small_wc_graph, model="LT", seed=SEED,
                backend="thread", workers=2,
            )
            service.call("maximize", k=3, epsilon=EPS, workers=5)
            assert service.call("stats")["workers"] == 5
            assert service.call("sessions")["default"]["workers"] == 5

    def test_sessions_report_the_fleet_before_any_pool(self, small_wc_graph):
        """Before a pool exists the sessions op reports the fleet the
        first pool will run: serial at one worker, threads above one."""
        with InfluenceService() as service:
            service.open_session("one", small_wc_graph, model="LT", seed=SEED)
            service.open_session("many", small_wc_graph, model="LT", seed=SEED, workers=3)
            sessions = service.call("sessions")
        assert (sessions["one"]["backend"], sessions["one"]["workers"]) == ("serial", 1)
        assert (sessions["many"]["backend"], sessions["many"]["workers"]) == ("thread", 3)

    def test_resize_validation(self, small_wc_graph):
        with InfluenceService() as service:
            service.open_session("default", small_wc_graph, model="LT", seed=SEED)
            with pytest.raises(ServiceError, match="resize needs workers"):
                service.call("resize")
            with pytest.raises(Exception, match="workers"):
                service.call("resize", workers=0)


class TestOverTheWire:
    def test_metrics_and_resize_over_tcp(self, small_wc_graph):
        from repro.service import ServiceClient

        service = InfluenceService(max_workers=2)
        service.open_session("default", small_wc_graph, model="LT", seed=SEED)
        server = InfluenceServer(service, port=0)
        server.start_background()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                client.call("maximize", k=3, epsilon=EPS)
                outcome = client.call("resize", workers=2)
                assert outcome["workers"] == 2
                metrics = client.call("metrics")
                assert metrics["maximize"]["count"] == 1
                assert metrics["resize"]["count"] == 1
                stats = client.call("stats")
                assert stats["workers"] == 2
        finally:
            server.shutdown()
            service.close()


class TestPrometheusText:
    """The text exposition (format 0.0.4) that ``GET /metrics`` serves."""

    @pytest.fixture
    def exposed(self, small_wc_graph):
        from repro.service import prometheus_text

        service = InfluenceService(pool_budget=1 << 20, max_workers=2)
        service.open_session(
            "default", small_wc_graph, model="LT", seed=SEED, quota_bytes=1 << 19
        )
        service.call("maximize", k=3, epsilon=EPS)
        try:
            yield service, prometheus_text(service, connections=3)
        finally:
            service.close()

    def test_every_family_has_help_and_type(self, exposed):
        _, text = exposed
        families = set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                families.add(("HELP", line.split(" ", 3)[2]))
            elif line.startswith("# TYPE "):
                families.add(("TYPE", line.split(" ", 3)[2]))
        names = {name for _, name in families}
        for name in names:
            assert ("HELP", name) in families, f"{name} lacks # HELP"
            assert ("TYPE", name) in families, f"{name} lacks # TYPE"

    def test_gauges_mirror_pool_state(self, exposed):
        service, text = exposed
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name_labels, _, value = line.rpartition(" ")
                samples[name_labels] = float(value)
        assert samples["repro_pool_bytes"] == service.pools.total_bytes()
        assert samples["repro_pool_budget_bytes"] == 1 << 20
        assert samples['repro_session_quota_bytes{session="default"}'] == 1 << 19
        usage = service.pools.namespace_usage()["default"]
        assert samples['repro_session_pool_bytes{session="default"}'] == usage["bytes"]
        assert samples['repro_session_pool_sets{session="default"}'] == usage["sets"]
        assert samples["repro_connections_open"] == 3
        accepted = 'repro_admission_decisions_total{session="default",outcome="accepted"}'
        assert samples[accepted] == 1

    def test_histogram_buckets_are_cumulative_to_inf(self, exposed):
        _, text = exposed
        buckets = []
        count = None
        for line in text.splitlines():
            if line.startswith("repro_request_latency_seconds_bucket"):
                buckets.append(float(line.rpartition(" ")[2]))
            elif line.startswith("repro_request_latency_seconds_count"):
                count = float(line.rpartition(" ")[2])
        assert buckets, "histogram family missing"
        assert buckets == sorted(buckets), "bucket counts must be cumulative"
        assert 'le="+Inf"' in text
        assert buckets[-1] == count, "+Inf bucket must equal _count"

    def test_sample_lines_are_well_formed(self, exposed):
        import re

        _, text = exposed
        pattern = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9.eE+-]+$'
        )
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert pattern.match(line), f"malformed sample line: {line!r}"
