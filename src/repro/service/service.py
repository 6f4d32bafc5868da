"""`InfluenceService` — concurrent multi-user serving over warm engines.

The service is the multi-user face of the library: it owns a registry of
named :class:`~repro.engine.engine.InfluenceEngine` sessions that all
share one :class:`~repro.service.pool.PoolManager` — one global pool
byte budget, one spill directory — plus a thread pool that lets many
clients have queries in flight at once:

>>> from repro import InfluenceService, load_dataset
>>> service = InfluenceService(pool_budget=64 << 20)
>>> _ = service.open_session("default", load_dataset("nethept"),
...                          model="LT", seed=7)
>>> futures = [service.submit("maximize", k=k, epsilon=0.2) for k in (5, 10)]
>>> [len(f.result().seeds) for f in futures]
[5, 10]
>>> service.close()

Concurrency is *exact*: queries read immutable pool snapshots and
top-ups extend the pure ``(seed, workers)`` RR stream under a lock, so
any interleaving of concurrent queries returns byte-identical answers to
the same queries run sequentially on a fresh engine.  What concurrency
*does* share is conditioning — answers served from one pool are
statistically correlated (the registry's ``concurrency`` column says
which algorithms share pools).

Operations are also exposed name-based (:meth:`InfluenceService.call`)
for transport layers: the TCP server
(:mod:`repro.service.server`) and the ``repro query`` REPL both speak
this op vocabulary.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.engine.engine import InfluenceEngine
from repro.engine.registry import get_algorithm, list_algorithms
from repro.sampling.sharded import default_fleet
from repro.service.admission import ADMITTED_OPS, AdmissionController, estimate_cost
from repro.service.errors import (  # noqa: F401  (re-exported compat surface)
    InternalServiceError,
    OverBudgetError,
    ServiceError,
    UnknownSessionError,
)
from repro.service.metrics import MetricsRegistry, prometheus_text
from repro.service.pool import PoolManager
from repro.service.protocol import result_to_dict

#: operation vocabulary shared by the programmatic API, the TCP server,
#: and the REPL.  ``shutdown`` and ``hello`` are transport-level and
#: handled by the server, not here.
OPERATIONS = (
    "ping",
    "algorithms",
    "sessions",
    "stats",
    "metrics",
    "metrics_text",
    "quota",
    "resize",
    "mutate",
    "maximize",
    "sweep",
    "estimate",
)


def _opt_int(value, name: str) -> int | None:
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{name} must be an integer, got {value!r}") from exc


def _opt_float(value, name: str) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{name} must be a number, got {value!r}") from exc


def _edge_list(value, name: str, *, weighted: bool) -> list[tuple]:
    """Parse a wire-format edge list for the ``mutate`` operation.

    The form is a list of ``[u, v(, w)]`` rows — the
    :meth:`repro.dynamic.delta.GraphDelta.as_dict` wire shape.  Weighted
    ops (add/reweight) need exactly three fields; removes exactly two.
    """
    if value is None:
        return []
    if isinstance(value, str):
        row = "[u, v, w]" if weighted else "[u, v]"
        raise ServiceError(f"{name} must be a list of edge rows [{row}, ...], not a string")
    arity = 3 if weighted else 2
    out = []
    for item in value:
        fields = list(item)
        if len(fields) != arity:
            raise ServiceError(
                f"{name} entries need {arity} fields (got {fields!r})"
            )
        try:
            edge = (int(fields[0]), int(fields[1]))
            if weighted:
                edge = edge + (float(fields[2]),)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"{name} entry {fields!r} is not numeric") from exc
        out.append(edge)
    return out


def _int_list(value, name: str) -> list[int]:
    if isinstance(value, str):
        value = [tok for tok in value.replace(",", " ").split() if tok]
    try:
        out = [int(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{name} must be a list of integers, got {value!r}") from exc
    if not out:
        raise ServiceError(f"{name} must be non-empty")
    return out


class InfluenceService:
    """Registry of named engine sessions serving concurrent queries.

    Parameters
    ----------
    pool_budget:
        Global byte budget across *all* sessions' RR pools (LRU eviction
        of idle pools; see :class:`~repro.service.pool.PoolManager`).
    spill_dir:
        Directory for cross-restart pool persistence.  Evicted and
        closed pools are spilled there and reattached on the next
        session with the same stream identity.
    max_workers:
        Size of the thread pool behind :meth:`submit`; also the number
        of queries that can make progress at once.
    admission_queue_timeout:
        How long an admitted-but-over-reserved query queues for
        in-flight reservations to drain before rejection (see
        :class:`~repro.service.admission.AdmissionController`).
    """

    def __init__(
        self,
        *,
        pool_budget: int | None = None,
        spill_dir=None,
        max_workers: int = 8,
        admission_queue_timeout: float = 0.5,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.pools = PoolManager(budget_bytes=pool_budget, spill_dir=spill_dir)
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(queue_timeout=admission_queue_timeout)
        self._engines: dict[str, InfluenceEngine] = {}
        self._lock = threading.RLock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="influence-query"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Session registry
    # ------------------------------------------------------------------
    def open_session(
        self,
        name: str,
        graph,
        *,
        model="IC",
        seed: int | None = None,
        backend=None,
        workers: int | None = None,
        roots=None,
        kernel=None,
        quota_bytes: int | None = None,
    ) -> InfluenceEngine:
        """Create a named engine session bound to the shared pool manager.

        ``backend`` is a backend name or ``None``, as for
        :class:`~repro.engine.engine.InfluenceEngine`.

        ``quota_bytes`` caps this session's share of the pool budget:
        over-quota usage reclaims from the session's *own* pools first,
        and the admission controller rejects queries whose predicted
        RR-set bill exceeds the quota (see :meth:`set_quota`).
        """
        with self._lock:
            self._check_open()
            if name in self._engines:
                raise ServiceError(f"session {name!r} already exists")
            engine = InfluenceEngine(
                graph,
                model=model,
                seed=seed,
                backend=backend,
                workers=workers,
                roots=roots,
                kernel=kernel,
                pool_manager=self.pools,
                session=name,
            )
            self._engines[name] = engine
        if quota_bytes is not None:
            self.pools.set_quota(name, quota_bytes)
        return engine

    def set_quota(self, name: str, quota_bytes: int | None) -> None:
        """Set (or clear, with ``None``) one session's byte quota."""
        self.session(name)  # raises UnknownSessionError for typos
        self.pools.set_quota(name, quota_bytes)

    def session(self, name: str = "default") -> InfluenceEngine:
        """Look a session up by name."""
        with self._lock:
            engine = self._engines.get(name)
            open_names = sorted(self._engines)
        if engine is None:
            raise UnknownSessionError(
                f"unknown session {name!r}; open sessions: {open_names}"
            )
        return engine

    def close_session(self, name: str) -> None:
        """Close one session (its pools spill when a spill dir is set)."""
        with self._lock:
            engine = self._engines.pop(name, None)
        if engine is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        engine.close()
        self.pools.set_quota(name, None)

    def sessions(self) -> dict:
        """Summary of every open session, keyed by name."""
        with self._lock:
            engines = dict(self._engines)
        out = {}
        for name, engine in engines.items():
            backend, workers = default_fleet(engine.backend, engine.active_workers)
            out[name] = {
                "graph_nodes": engine.graph.n,
                "graph_edges": engine.graph.m,
                "model": engine.model.value,
                "seed": engine.seed,
                "backend": backend,
                "workers": workers,
                "kernel": engine.kernel.name,
                "queries": engine.stats_snapshot().queries,
            }
        return out

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def submit(self, op: str, *, session: str = "default", **params) -> Future:
        """Run one operation on the service's thread pool; returns a future.

        This is the async-friendly entry point: callers fan out any
        number of operations and collect futures, while the pool layer
        guarantees the answers are byte-identical to a sequential run.
        """
        with self._lock:
            self._check_open()
            return self._executor.submit(self.call, op, session=session, **params)

    def call(self, op: str, *, session: str = "default", **params):
        """Run one named operation synchronously and return its raw result.

        Every call — success or failure — is timed into the service's
        per-op latency histograms (the ``metrics`` operation reads them
        back).  Query operations (:data:`~repro.service.admission.ADMITTED_OPS`)
        pass through the admission controller first: their predicted
        RR-set bill is checked against the session quota, and an
        unaffordable query fails with
        :class:`~repro.service.errors.OverBudgetError` before any
        sampling happens.
        """
        self._check_open()
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if op not in OPERATIONS or handler is None:
            raise ServiceError(f"unknown operation {op!r}; known: {OPERATIONS}")
        start = time.perf_counter()
        try:
            if op in ADMITTED_OPS:
                engine = self.session(session)
                quota = self.pools.quota_for(session)
                estimate = estimate_cost(
                    engine, op=op, session=session, params=params, quota_bytes=quota
                )
                with self.admission.admit(
                    session=session, quota=quota, estimate=estimate
                ):
                    return handler(session, dict(params))
            return handler(session, dict(params))
        finally:
            self.metrics.observe(op, time.perf_counter() - start)

    def stats(self, session: str | None = None) -> dict:
        """Service-level statistics (optionally scoped to one session)."""
        if session is not None:
            engine = self.session(session)
            payload = engine.stats_snapshot().as_dict()
            payload.update(
                {
                    "session": session,
                    "seed": engine.seed,
                    "workers": engine.active_workers,
                    "graph_version": engine.graph_version,
                    "pools": {
                        "/".join(str(p) for p in key): size
                        for key, size in engine.pool_sizes().items()
                    },
                    "reattached_sets": self.pools.reattached_for(session),
                    "pool_truncations": self.pools.truncations_for(session),
                    "pool_bytes": self.pools.bytes_for(session),
                    "quota_bytes": self.pools.quota_for(session),
                    "admission": self.admission.counters().get(session, {}),
                }
            )
            return payload
        with self._lock:
            names = sorted(self._engines)
        return {
            "sessions": {name: self.stats(name) for name in names},
            "pool_bytes_total": self.pools.total_bytes(),
            "pool_budget": self.pools.budget_bytes,
            "evictions_total": self.pools.evictions_for(None),
            "quotas": self.pools.quotas(),
            "admission": self.admission.counters(),
        }

    # ------------------------------------------------------------------
    # Operation handlers (name-based vocabulary for transports)
    # ------------------------------------------------------------------
    def _op_ping(self, session: str, params: dict):
        return {"pong": True}

    def _op_algorithms(self, session: str, params: dict):
        rows = []
        for name in list_algorithms():
            spec = get_algorithm(name)
            rows.append(
                {
                    "name": spec.name,
                    "engine": spec.engine_func is not None,
                    "needs_rr_sets": spec.needs_rr_sets,
                    "supports_backend": spec.supports_backend,
                    "supports_horizon": spec.supports_horizon,
                    "supports_kernel": spec.supports_kernel,
                    "concurrency": spec.concurrency,
                    "description": spec.description,
                }
            )
        return rows

    def _op_sessions(self, session: str, params: dict):
        return self.sessions()

    def _op_stats(self, session: str, params: dict):
        if params.pop("all", False):
            return self.stats(None)
        return self.stats(session)

    def _op_metrics(self, session: str, params: dict):
        self._reject_unknown("metrics", params)
        return self.metrics.snapshot()

    def _op_metrics_text(self, session: str, params: dict):
        """Prometheus text exposition over the NDJSON protocol.

        The same text a ``GET /metrics`` scrape on ``--metrics-port``
        returns, so protocol-only clients can still feed a scraper.
        """
        self._reject_unknown("metrics_text", params)
        return {
            "content_type": "text/plain; version=0.0.4; charset=utf-8",
            "text": prometheus_text(self),
        }

    def _op_quota(self, session: str, params: dict):
        """Read or set the session's byte quota over the wire."""
        has_quota = "quota_bytes" in params
        quota = _opt_int(params.pop("quota_bytes", None), "quota_bytes")
        self._reject_unknown("quota", params)
        if has_quota:
            self.set_quota(session, quota)
        else:
            self.session(session)
        return {
            "session": session,
            "quota_bytes": self.pools.quota_for(session),
            "pool_bytes": self.pools.bytes_for(session),
            "reserved_bytes": self.admission.reserved_for(session),
        }

    def _op_resize(self, session: str, params: dict):
        engine = self.session(session)
        workers = _opt_int(params.pop("workers", None), "workers")
        if workers is None:
            raise ServiceError("resize needs workers")
        self._reject_unknown("resize", params)
        resized = engine.resize(workers)
        return {"session": session, "workers": workers, "pools_resized": resized}

    def _op_mutate(self, session: str, params: dict):
        engine = self.session(session)
        delta = params.pop("delta", None)
        if delta is not None:
            # Structured wire form: GraphDelta.as_dict() verbatim.
            if not isinstance(delta, dict):
                raise ServiceError(
                    "mutate delta must be a JSON object in GraphDelta.as_dict() "
                    f"form, got {type(delta).__name__}"
                )
            unknown = sorted(set(delta) - {"add", "remove", "reweight"})
            if unknown:
                raise ServiceError(f"mutate delta got unknown key(s) {unknown}")
            if any(params.get(k) is not None for k in ("add", "remove", "reweight")):
                raise ServiceError(
                    "mutate takes either a structured delta or flat "
                    "add/remove/reweight lists, not both"
                )
            for k in ("add", "remove", "reweight"):
                params.pop(k, None)
            add = _edge_list(delta.get("add"), "delta.add", weighted=True)
            remove = _edge_list(delta.get("remove"), "delta.remove", weighted=False)
            reweight = _edge_list(delta.get("reweight"), "delta.reweight", weighted=True)
        else:
            add = _edge_list(params.pop("add", None), "add", weighted=True)
            remove = _edge_list(params.pop("remove", None), "remove", weighted=False)
            reweight = _edge_list(params.pop("reweight", None), "reweight", weighted=True)
        self._reject_unknown("mutate", params)
        if not (add or remove or reweight):
            raise ServiceError("mutate needs at least one of add/remove/reweight")
        return engine.mutate(add=add, remove=remove, reweight=reweight)

    def _op_maximize(self, session: str, params: dict):
        engine = self.session(session)
        k = _opt_int(params.pop("k", None), "k")
        if k is None:
            raise ServiceError("maximize needs k")
        epsilon = _opt_float(params.pop("epsilon", None), "epsilon")
        kwargs = {
            "epsilon": epsilon if epsilon is not None else 0.1,
            "delta": _opt_float(params.pop("delta", None), "delta"),
            "algorithm": str(params.pop("algorithm", "D-SSA")),
            "model": params.pop("model", None),
            "horizon": _opt_int(params.pop("horizon", None), "horizon"),
            "max_samples": _opt_int(params.pop("max_samples", None), "max_samples"),
            "workers": _opt_int(params.pop("workers", None), "workers"),
        }
        self._reject_unknown("maximize", params)
        return engine.maximize(k, **kwargs)

    def _op_sweep(self, session: str, params: dict):
        engine = self.session(session)
        ks = _int_list(params.pop("ks", ()), "ks")
        epsilon = _opt_float(params.pop("epsilon", None), "epsilon")
        kwargs = {
            "epsilon": epsilon if epsilon is not None else 0.1,
            "delta": _opt_float(params.pop("delta", None), "delta"),
            "algorithm": str(params.pop("algorithm", "D-SSA")),
            "workers": _opt_int(params.pop("workers", None), "workers"),
        }
        self._reject_unknown("sweep", params)
        return engine.sweep(ks, **kwargs)

    def _op_estimate(self, session: str, params: dict):
        engine = self.session(session)
        seeds = _int_list(params.pop("seeds", ()), "seeds")
        kwargs = {
            "samples": _opt_int(params.pop("samples", None), "samples"),
            "model": params.pop("model", None),
            "horizon": _opt_int(params.pop("horizon", None), "horizon"),
            "workers": _opt_int(params.pop("workers", None), "workers"),
        }
        self._reject_unknown("estimate", params)
        return engine.estimate(seeds, **kwargs)

    @staticmethod
    def _reject_unknown(op: str, params: dict) -> None:
        if params:
            raise ServiceError(f"{op} got unknown parameter(s) {sorted(params)}")

    @staticmethod
    def wire_result(result):
        """JSON-able form of an operation result (for transports)."""
        from repro.core.result import IMResult

        if isinstance(result, IMResult):
            return result_to_dict(result)
        if isinstance(result, list) and result and isinstance(result[0], IMResult):
            return [result_to_dict(r) for r in result]
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        # Deliberately lock-free (baselined in reprolint-baseline.json):
        # _closed is a monotonic GIL-atomic bool, and this sits on every
        # query's hot path.  Worst case a query racing close() proceeds
        # and fails in the draining executor instead of failing here.
        if self._closed:
            raise ServiceError("InfluenceService is closed")

    def close(self, *, spill: bool = True) -> None:
        """Drain in-flight queries, close every session, spill pools."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            engines = list(self._engines.values())
            self._engines.clear()
        self._executor.shutdown(wait=True)
        errors = []
        for engine in engines:
            try:
                engine.close()
            except Exception as exc:
                errors.append(exc)
        try:
            self.pools.close(spill=spill)
        except Exception as exc:
            errors.append(exc)
        if errors:
            raise errors[0]

    def __enter__(self) -> "InfluenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
