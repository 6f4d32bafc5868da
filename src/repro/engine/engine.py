"""`InfluenceEngine` — a session that answers many IM queries cheaply.

One-shot calls pay the full setup bill every time: re-validate the
graph, re-spawn the execution backend (for the process backend that is a
shared-memory segment plus a worker fleet), sample every RR set from
zero, throw it all away.  An engine session pays each of those costs
once — it runs one fleet, which every pool it opens borrows:

>>> from repro import InfluenceEngine, load_dataset
>>> with InfluenceEngine(load_dataset("nethept"), model="LT", seed=7) as eng:
...     a = eng.maximize(10, epsilon=0.2)              # cold: samples RR sets
...     b = eng.maximize(20, epsilon=0.2)              # warm: tops the pool up
...     curve = eng.sweep([1, 5, 10], epsilon=0.2)     # mostly cache hits
...     spread = eng.estimate(a.seeds)                 # free-ride on the pool
>>> eng.stats.cache_hits > 0
True

Reuse is *exact*, not approximate: the RR stream is a pure function of
the session seed — independent of batching, backend, and worker count
(``workers`` is a runtime throughput knob; see :meth:`resize`) — so
every query returns byte-identical seeds/samples to the corresponding
one-shot function at the same seed — the cache only removes duplicated
sampling work.  The
price of sharing is statistical, and worth naming: queries answered from
one pool are correlated with each other (the "condition once, query many
times" trade of probabilistic databases); each individual answer still
carries its algorithm's guarantee.

Sessions are **thread-safe**: every query runs against an immutable
prefix snapshot of the shared pool (see
:class:`~repro.service.pool.PoolManager`), so concurrent callers get the
same byte-identical answers sequential callers would.  ``pool_budget``
bounds retained RR-set bytes with LRU eviction, and ``spill_dir`` makes
pools survive process restarts — both default off, preserving the
original unbounded in-memory behaviour.  A shared
:class:`~repro.service.pool.PoolManager` can be injected by a
multi-session :class:`~repro.service.service.InfluenceService`, which
then owns one budget across all sessions.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np

from repro.core.result import IMResult
from repro.diffusion.models import DiffusionModel
from repro.engine.context import SamplingContext
from repro.engine.registry import AlgorithmSpec, get_algorithm
from repro.exceptions import ParameterError
from repro.sampling.backends import BACKENDS, backend_key, make_backend
from repro.sampling.seedstream import STREAM_ID
from repro.sampling.sharded import default_fleet
from repro.utils.rng import spawn_rngs

#: pool floor for :meth:`InfluenceEngine.estimate` on an empty session.
_DEFAULT_ESTIMATE_SAMPLES = 4096


@dataclass
class EngineStats:
    """Aggregate query/cache counters for one engine session."""

    queries: int = 0
    rr_requested: int = 0  # RR sets queries demanded (cache hits included)
    rr_sampled: int = 0  # RR sets actually generated, read-ahead included
    pool_bytes: int = 0  # retained RR-set bytes across the session's pools
    evictions: int = 0  # pools dropped by the byte-budget enforcer
    mutations: int = 0  # graph mutation batches applied this session
    invalidated_sets: int = 0  # pooled RR sets invalidated by mutations
    repairs: int = 0  # invalidated sets resampled in place (vs dropped)
    repair_fraction: float = 0.0  # invalidated/total of the last mutation

    @property
    def cache_hits(self) -> int:
        """Demanded sets served from the cached pool instead of sampled
        (never negative: Estimate-Inf samples a few sets past its
        stopping point that no query has demanded yet)."""
        return max(0, self.rr_requested - self.rr_sampled)

    @property
    def hit_rate(self) -> float:
        """Fraction of demanded RR sets served from cache."""
        return self.cache_hits / self.rr_requested if self.rr_requested else 0.0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "rr_requested": self.rr_requested,
            "rr_sampled": self.rr_sampled,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "pool_bytes": self.pool_bytes,
            "evictions": self.evictions,
            "mutations": self.mutations,
            "invalidated_sets": self.invalidated_sets,
            "repairs": self.repairs,
            "repair_fraction": self.repair_fraction,
        }


class InfluenceEngine:
    """Context-managed IM query session with warm backends and RR reuse.

    Parameters
    ----------
    graph:
        The influence graph every query runs against.
    model:
        Session-default diffusion model (queries may override).
    seed:
        Session seed; must be an ``int`` or ``None`` (a fresh entropy
        integer is drawn) so per-query stream derivations are
        replayable.  Pass the same seed to a one-shot function to get
        byte-identical output.
    backend, workers, roots:
        Execution backend name, initial worker count, and root
        distribution of the session, whose one fleet starts with its
        first pool and serves all of them.  ``backend`` is a name
        (``"serial"``, ``"thread"``, ``"process"``, ``"network"``) or
        ``None`` — serial at one worker, threads above one; a network
        fleet's settings come from
        :func:`~repro.sampling.backends.set_network_defaults` (``--hosts``
        on the CLI).  ``workers`` is pure throughput — the stream is
        identical at any value — and can be changed per query
        (``maximize(..., workers=)``) or session-wide at runtime
        (:meth:`resize`).
    kernel:
        A kernel name (``"scalar"``, the default, ``"vectorized"``,
        ``"batched"``, ``"lt-batched"`` or ``"auto"``).  Accepted for
        compatibility and reported back as :attr:`kernel`, but it
        selects nothing: every name samples the same stream, so
        sessions given different names share and reattach each other's
        pools (see :mod:`repro.sampling.kernels`).
    pool_budget:
        Optional byte budget over the session's RR pools; exceeding it
        evicts idle pools least-recently-used first (spilling them to
        ``spill_dir`` when configured).  ``None`` keeps pools unbounded.
    spill_dir:
        Optional directory for cross-session pool persistence: closed
        and evicted pools are written there and transparently
        reattached by any later session with the same stream identity.
    pool_manager:
        A shared :class:`~repro.service.pool.PoolManager` (normally
        injected by an :class:`~repro.service.service.InfluenceService`)
        — mutually exclusive with ``pool_budget``/``spill_dir``, which
        configure a private manager.
    session:
        Namespace for this session's pools inside the manager; defaults
        to a unique generated name.

    The engine lazily opens one pool per distinct ``(stream derivation,
    model, horizon)`` — D-SSA, IMM, TIM, and TIM+ share a single
    ``direct`` pool (they consume the same stream prefix); SSA reads two
    of its own, the ``split`` optimization pool and the ``verify`` pool
    Estimate-Inf reads.  All queries are safe to issue from multiple
    threads.
    """

    def __init__(
        self,
        graph,
        *,
        model: "str | DiffusionModel" = "IC",
        seed: int | None = None,
        backend=None,
        workers: int | None = None,
        roots=None,
        kernel=None,
        pool_budget: int | None = None,
        spill_dir=None,
        pool_manager=None,
        session: str | None = None,
    ) -> None:
        from repro.dynamic import MutableGraphView
        from repro.sampling.base import resolve_kernel
        from repro.service.pool import PoolManager

        # The session's graph lives behind a versioned mutable view:
        # `self.graph` always reads the current snapshot, and `mutate`
        # advances it (repairing warm pools in place).  Accepting a
        # ready-made view lets callers share one live graph across
        # engines of one service.
        if isinstance(graph, MutableGraphView):
            self._graph_view = graph
        else:
            self._graph_view = MutableGraphView(graph)
        self.model = DiffusionModel.parse(model)
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        elif not isinstance(seed, (int, np.integer)):
            raise ParameterError(
                "InfluenceEngine needs a replayable session seed (int or None); "
                "pass a Generator to the one-shot functions instead"
            )
        if backend is not None and not isinstance(backend, str):
            raise ParameterError(
                "InfluenceEngine takes a backend name or None, not a backend "
                "instance.  Configure network fleets with "
                "repro.sampling.backends.set_network_defaults (--hosts on the CLI)"
            )
        if backend is not None and backend_key(backend) not in BACKENDS:
            raise ParameterError(
                f"unknown execution backend {backend!r}; known: {sorted(BACKENDS)}"
            )
        if workers is not None and int(workers) < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.seed = int(seed)
        self.kernel = resolve_kernel(kernel)  # validated; selects nothing
        self.backend = backend
        self.workers = workers
        self.roots = roots
        self.session = session if session is not None else f"engine-{uuid.uuid4().hex[:8]}"
        if pool_manager is not None:
            if pool_budget is not None or spill_dir is not None:
                raise ParameterError(
                    "pool_budget/spill_dir are owned by the shared PoolManager; "
                    "configure them there"
                )
            self._pools = pool_manager
            self._owns_pools = False
        else:
            self._pools = PoolManager(budget_bytes=pool_budget, spill_dir=spill_dir)
            self._owns_pools = True
        self.stats = EngineStats()
        self._stats_lock = threading.Lock()
        self._mutation_lock = threading.Lock()
        # Lock order: mutation lock (writes and fleet moves) → manager →
        # pool entry → fleet lock.
        self._fleet = None  # started with the session's first pool
        self._fleet_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Graph access
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The current immutable graph snapshot (see :meth:`mutate`)."""
        return self._graph_view.graph

    @property
    def graph_version(self) -> int:
        """Monotone mutation counter of the session's graph (0 = pristine)."""
        return self._graph_view.version

    @property
    def graph_view(self):
        """The session's :class:`~repro.dynamic.MutableGraphView`."""
        return self._graph_view

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    @property
    def pool_manager(self):
        """The (private or shared) :class:`~repro.service.pool.PoolManager`."""
        return self._pools

    def _check_open(self) -> None:
        if self._closed:
            raise ParameterError("InfluenceEngine session is closed")

    def _pool_key(self, *, stream: str, model: DiffusionModel, horizon: int | None):
        from repro.service.pool import PoolKey

        return PoolKey(
            self.session, stream, model.value, horizon, STREAM_ID,
            self.graph_version,
        )

    def _session_fleet(self):
        """The session's one fleet, started with its first pool."""
        with self._fleet_lock:
            self._check_open()
            if self._fleet is None:
                backend, workers = default_fleet(self.backend, self.workers)
                fleet = make_backend(backend)
                fleet.start(workers)
                self._fleet = fleet
            return self._fleet

    def _pool_factory(self, *, stream: str, model: DiffusionModel, horizon: int | None):
        def factory():
            graph, graph_version = self._graph_view.snapshot()
            seed = self.seed
            if stream != "direct":
                # SSA's two streams: the children a one-shot ssa() spawns.
                split_seed, verify_seed = spawn_rngs(seed, 2)
                seed = verify_seed if stream == "verify" else split_seed
            ctx = SamplingContext(
                graph,
                model,
                seed=seed,
                roots=self.roots,
                horizon=horizon,
                backend=self._session_fleet(),
                graph_version=graph_version,
            )
            return ctx, self.seed

        return factory

    def _query_pool(self, *, stream: str, model: DiffusionModel, horizon: int | None):
        return self._pools.query(
            self._pool_key(stream=stream, model=model, horizon=horizon),
            self._pool_factory(stream=stream, model=model, horizon=horizon),
        )

    def stats_snapshot(self) -> EngineStats:
        """A consistent copy of :attr:`stats`, taken under the stats lock.

        Concurrent readers (the service's ``stats``/``sessions`` surface)
        should use this instead of reading :attr:`stats` directly: the
        copy can't observe a query's counters half-applied.
        """
        with self._stats_lock:
            return replace(self.stats)

    def _account(self, *, demand: int, sampled: int) -> None:
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.rr_requested += demand
            self.stats.rr_sampled += sampled
            self.stats.pool_bytes = self._pools.bytes_for(self.session)
            self.stats.evictions = self._pools.evictions_for(self.session)

    def _resolve(self, algorithm: "str | AlgorithmSpec") -> AlgorithmSpec:
        if isinstance(algorithm, AlgorithmSpec):
            return algorithm
        return get_algorithm(algorithm)

    def pool_sizes(self) -> dict:
        """Cached RR sets per open pool, keyed ``(stream, model, horizon,
        stream_id, graph_version)``."""
        return self._pools.pool_sizes(self.session)

    def pool_occupancy(
        self, *, stream: str, model=None, horizon: int | None = None
    ) -> tuple[int, int]:
        """``(sets, bytes)`` this session has pooled for one query shape.

        The admission cost model reads this before a query runs: pooled
        sets are served from cache for free, so only demand beyond the
        occupancy is billed (see :mod:`repro.service.admission`).
        """
        query_model = self.model if model is None else DiffusionModel.parse(model)
        return self._pools.occupancy(
            self._pool_key(stream=stream, model=query_model, horizon=horizon)
        )

    @property
    def active_workers(self) -> int:
        """The worker count of the session's fleet (or of its first pool's)."""
        with self._fleet_lock:
            if self._fleet is not None:
                return self._fleet.workers
            return default_fleet(self.backend, self.workers)[1]

    def resize(self, workers: int) -> int:
        """Resize the session's fleet at runtime; returns the pools on it.

        Seed-pure streams make ``workers`` a pure throughput knob: every
        open pool *continues the same stream byte-exactly*, also when
        :func:`~repro.sampling.sharded.default_fleet` puts the new count
        on another backend (its fleet starts once, every pool moves
        onto it, the old one closes).  Queries in flight are unaffected
        (they read immutable snapshots; top-ups serialize on the pool
        lock).
        """
        workers = int(workers)
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self._check_open()
        with self._mutation_lock:
            backend, workers = default_fleet(self.backend, workers)
            with self._fleet_lock:
                self.workers, old = workers, self._fleet
                new = old
                if old is not None and backend != old.name:
                    new = make_backend(backend)
                    new.start(workers)
                    self._fleet = new  # pools opened from here on use it
            if old is None:
                return 0
            if new is old:
                old.resize(workers)
                return len(self.pool_sizes())
            moved = self._pools.rebind_namespace(self.session, new)
            old.close()
            return moved

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def maximize(
        self,
        k: int,
        *,
        epsilon: float = 0.1,
        delta: float | None = None,
        algorithm: "str | AlgorithmSpec" = "D-SSA",
        model: "str | DiffusionModel | None" = None,
        horizon: int | None = None,
        max_samples: int | None = None,
        workers: int | None = None,
        **algorithm_kwargs,
    ) -> IMResult:
        """Answer one influence-maximization query.

        RIS algorithms run on the session's warm sampling pools —
        repeat and overlapping queries top up the cached RR pool instead
        of resampling.  Algorithms without an engine body (CELF, degree,
        IRIE) still resolve here for a uniform query surface, but run
        one-shot.  ``workers`` resizes the session's fleet for this
        query onward (:meth:`resize`) — a pure throughput knob (seed-pure
        streams are worker-invariant), so the answer is byte-identical at
        any value.  Extra keyword arguments are forwarded to the algorithm
        body (e.g. ``split=`` for SSA).
        """
        self._check_open()
        spec = self._resolve(algorithm)
        query_model = self.model if model is None else DiffusionModel.parse(model)
        if horizon is not None and not spec.supports_horizon:
            raise ParameterError(f"{spec.name} does not support a time-critical horizon")

        if spec.engine_func is None:
            options = {
                "epsilon": epsilon,
                "delta": delta,
                "model": query_model.value,
                "seed": self.seed,
                "max_samples": max_samples,
                "kernel": self.kernel.name,
                **algorithm_kwargs,
            }
            result = spec.run_one_shot(self.graph, k, options)
            self._account(demand=0, sampled=0)
            return result

        if workers is not None:
            self.resize(workers)
        with ExitStack() as stack:
            views = [
                stack.enter_context(
                    self._query_pool(stream=stream, model=query_model, horizon=horizon)
                )
                for stream in spec.streams
            ]
            result = spec.engine_func(
                *views, k, epsilon=epsilon, delta=delta, max_samples=max_samples,
                **algorithm_kwargs,
            )
            sampled = sum(view.sampled for view in views)
        self._account(demand=int(result.samples), sampled=sampled)
        return result

    def sweep(
        self,
        ks,
        *,
        epsilon: float = 0.1,
        delta: float | None = None,
        algorithm: "str | AlgorithmSpec" = "D-SSA",
        **query_kwargs,
    ) -> list[IMResult]:
        """Run one :meth:`maximize` query per budget in ``ks`` (ascending).

        Each query is byte-identical to its one-shot counterpart, but
        the session's pool grows monotonically with the largest demand
        seen — a 5-point sweep samples barely more than its single most
        demanding query instead of 5× from zero.
        """
        if not ks:
            raise ParameterError("ks must be non-empty")
        budgets = sorted(set(int(k) for k in ks))
        return [
            self.maximize(
                k, epsilon=epsilon, delta=delta, algorithm=algorithm, **query_kwargs
            )
            for k in budgets
        ]

    def estimate(
        self,
        seeds,
        *,
        samples: int | None = None,
        model: "str | DiffusionModel | None" = None,
        horizon: int | None = None,
        workers: int | None = None,
    ) -> float:
        """RIS estimate ``Î(S) = Γ·Cov(S)/|R|`` over the session pool.

        Rides the ``direct``-stream pool the RIS algorithms grow, so
        after a ``maximize`` query this is typically pure cache.  On an
        empty session it samples ``samples`` sets (default
        ``_DEFAULT_ESTIMATE_SAMPLES``) first.
        """
        self._check_open()
        query_model = self.model if model is None else DiffusionModel.parse(model)
        if samples is not None and int(samples) < 1:
            raise ParameterError(f"samples must be positive, got {samples}")
        if workers is not None:
            self.resize(workers)
        with self._query_pool(stream="direct", model=query_model, horizon=horizon) as view:
            target = (
                int(samples)
                if samples is not None
                else max(len(view.pool), _DEFAULT_ESTIMATE_SAMPLES)
            )
            pool = view.require(target)
            sampled = view.sampled
            estimate = view.scale * pool.coverage(seeds, start=0, end=target) / target
        self._account(demand=target, sampled=sampled)
        return estimate

    # ------------------------------------------------------------------
    # Graph mutation
    # ------------------------------------------------------------------
    def mutate(self, delta=None, *, add=(), remove=(), reweight=()) -> dict:
        """Apply one mutation batch to the session's graph, repairing pools.

        Accepts a ready :class:`~repro.dynamic.GraphDelta` or raw edge
        tuples (``add``/``reweight``: ``(u, v, weight)``; ``remove``:
        ``(u, v)``).  The batch compiles into a new graph snapshot
        (``graph_version`` bumps by one), and every warm pool in the
        session is repaired in place: exactly the invalidated RR sets —
        those containing a mutated edge's target — are resampled
        seed-purely on the new graph, byte-identical to a cold resample
        (see :mod:`repro.dynamic`).  Mutation is a **barrier operation**:
        it requires no queries in flight and blocks new ones until the
        repair completes.

        Returns a report dict: ``graph_version``, ``content_hash``,
        ``n``, ``m``, ``pools``, ``sets_total``, ``invalidated``,
        ``repaired``, ``repair_fraction``, ``pools_retired``.
        """
        self._check_open()
        from repro.dynamic import as_delta

        batch = as_delta(delta, add=add, remove=remove, reweight=reweight)
        if batch.is_empty:
            raise ParameterError("mutate needs at least one edge operation")
        with self._mutation_lock:
            new_graph = self._graph_view.apply(batch)
            version = self._graph_view.version
            report = self._pools.mutate_namespace(
                self.session, new_graph, version, batch
            )
        with self._stats_lock:
            self.stats.mutations += 1
            self.stats.invalidated_sets += report["invalidated"]
            self.stats.repairs += report["repaired"]
            self.stats.repair_fraction = report["repair_fraction"]
            self.stats.pool_bytes = self._pools.bytes_for(self.session)
        report.update(
            graph_version=version,
            content_hash=new_graph.fingerprint(),
            n=new_graph.n,
            m=new_graph.m,
        )
        return report

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every pool, then the session's fleet (idempotent).

        Private pool managers are closed outright; a shared manager only
        drops (and spills, when configured) this session's namespace.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._owns_pools:
                self._pools.close(spill=True)
            else:
                self._pools.release_namespace(self.session, spill=True)
        finally:
            with self._mutation_lock, self._fleet_lock:
                fleet, self._fleet = self._fleet, None
            if fleet is not None:
                fleet.close()

    def __enter__(self) -> "InfluenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
