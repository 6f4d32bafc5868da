"""Thread-safe shared RR pools: snapshots, byte budgets, LRU eviction.

This module is what makes "condition once, query many times" safe to
share between users.  A :class:`PoolManager` owns every warm sampling
context of a service (or of a thread-safe
:class:`~repro.engine.engine.InfluenceEngine`), keyed by
``(namespace, stream, model, horizon)``; every pool of a namespace
samples on its session's one fleet.

* **Snapshot isolation** — each in-flight query reads an immutable
  prefix :class:`~repro.sampling.rr_collection.RRSnapshot` of the shared
  :class:`~repro.sampling.rr_collection.RRCollection`.  Readers never
  block samplers: a top-up appends under the pool's lock and takes a new
  snapshot; snapshots already handed out stay valid because the compiled
  buffers are append-only.  The merged RR stream stays the byte-exact
  pure function of the seed (worker count and backend are throughput
  knobs), so any interleaving of concurrent queries returns exactly the
  sequential answers.
* **Byte budget** — an optional global budget over all pools.  After
  each top-up batch the manager reclaims bytes from *idle* pools,
  least-recently-used first, until the budget holds again.  A large idle
  pool is first **suffix-truncated** — its sets ``[keep, len)`` are
  dropped, and since a pool's length is its stream position the next
  top-up resamples them byte-exactly — so a pool loses its cold tail
  before it loses its hot head; only pools too small to truncate are
  evicted whole.  Pools with queries in flight are never touched, so
  the hard bound is budget + one in-flight top-up batch per busy pool (a
  single busy pool — the common case — overshoots by at most its one
  crossing batch).
* **Per-namespace quotas** — inside the global budget, each namespace
  (session) may carry its own byte quota (:meth:`PoolManager.set_quota`).
  Budget enforcement is two-pass: first every over-quota namespace
  reclaims from **its own** idle pools until its quota holds, then the
  global pass reclaims preferring pools of still-over-quota namespaces
  before touching anyone else.  The fairness contract: a hot session
  that overruns its quota sheds its own pools first and never evicts a
  within-quota tenant's warmth while its own overrun can pay the bill.
* **Spill / reattach** — with a spill directory configured, evicted and
  closed pools are written through
  :class:`~repro.service.store.PoolStore` (their sets; the count is the
  stream position) and transparently reattached the next time a context
  with the same stream identity is opened — warmup survives evictions
  *and* process restarts.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.engine.context import SamplingContext
from repro.exceptions import SamplingError
from repro.sampling.seedstream import STREAM_ID
from repro.service.store import PoolStore, make_stamp


@dataclass(frozen=True)
class PoolKey:
    """Identity of one shared pool inside a manager.

    ``namespace`` isolates sessions from each other (two sessions with
    different graphs or seeds must never share a pool); the remaining
    fields mirror the engine's context key.  ``stream_id`` is the stream
    derivation's compatibility token
    (:data:`~repro.sampling.seedstream.STREAM_ID`): two queries share a
    pool only when their streams are byte-compatible, whatever kernel
    name either session gave.  ``graph_version`` is the mutation lineage
    position of the graph the pool was sampled on (0 = the pristine
    snapshot; see :mod:`repro.dynamic`) — a mutation rekeys every
    repaired pool to the new version, so stale keys can never resolve
    to post-mutation state.
    """

    namespace: str
    stream: str
    model: str
    horizon: int | None
    stream_id: str = STREAM_ID
    graph_version: int = 0


class QueryView:
    """One query's window onto a shared pool (duck-typed SamplingContext).

    Algorithm bodies run against this object exactly as they run against
    a private :class:`~repro.engine.context.SamplingContext`: ``require``
    returns a pool holding at least the requested prefix — here an
    immutable snapshot — and ``sampled`` counts only the RR sets *this*
    query's top-ups generated, so per-query accounting stays exact under
    interleaving.
    """

    def __init__(self, entry: "_PoolEntry") -> None:
        self._entry = entry
        self.graph = entry.ctx.graph
        self.model = entry.ctx.model
        self.roots = entry.ctx.roots
        self.horizon = entry.ctx.horizon
        self.sampled = 0
        self._snap = None

    @property
    def scale(self) -> float:
        return self._entry.ctx.scale

    @property
    def pool(self):
        """The latest snapshot this query has seen (taken lazily)."""
        if self._snap is None:
            self._snap = self._entry.snapshot()
        return self._snap

    def require(self, total: int):
        snap, sampled = self._entry.require_snapshot(int(total))
        self.sampled += sampled
        self._snap = snap
        return snap


class _PoolEntry:
    """One shared context + its lock and usage bookkeeping."""

    def __init__(self, manager: "PoolManager", key: PoolKey, ctx: SamplingContext, stamp) -> None:
        self.manager = manager
        self.key = key
        self.ctx = ctx
        self.stamp = stamp  # None => not spillable
        self.lock = threading.RLock()
        self.inflight = 0  # mutated only under the manager lock
        self.last_used = 0
        self.reattached = 0  # sets preloaded from a spill file

    def require_snapshot(self, total: int):
        """Top the shared pool up to ``total`` and snapshot it.

        Returns ``(snapshot, newly_sampled)``.  The append and the
        snapshot compile happen under this entry's lock; the budget
        check runs after the lock is released (this entry has a query in
        flight, so it can never evict itself).
        """
        with self.lock:
            before = self.ctx.sampled
            self.ctx.require(total)
            snap = self.ctx.pool.snapshot()
            sampled = self.ctx.sampled - before
        if sampled:
            self.manager.enforce_budget()
        return snap, sampled

    def snapshot(self):
        with self.lock:
            return self.ctx.pool.snapshot()

    @property
    def nbytes(self) -> int:
        return self.ctx.pool.nbytes


class PoolManager:
    """Registry of shared pools with budget enforcement and spill.

    Parameters
    ----------
    budget_bytes:
        Global cap on retained RR-set bytes across every pool; ``None``
        disables eviction (the engine's historical behaviour).
    spill_dir:
        Directory for spilled pools; ``None`` disables persistence.
    suffix_min_sets:
        Floor below which suffix truncation stops and whole-pool
        eviction takes over: a truncation must keep at least this many
        sets to be worth the bookkeeping.  (Truncation keeps the first
        half of a pool; pools smaller than twice this are evicted whole.)
    """

    def __init__(
        self,
        *,
        budget_bytes: int | None = None,
        spill_dir=None,
        suffix_min_sets: int = 1024,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise SamplingError(f"budget_bytes must be positive, got {budget_bytes}")
        if suffix_min_sets < 1:
            raise SamplingError(f"suffix_min_sets must be >= 1, got {suffix_min_sets}")
        self.budget_bytes = budget_bytes
        self.suffix_min_sets = int(suffix_min_sets)
        self.store = PoolStore(spill_dir) if spill_dir is not None else None
        self._lock = threading.RLock()
        self._entries: dict[PoolKey, _PoolEntry] = {}
        self._quotas: dict[str, int] = {}  # namespace -> byte quota
        self._clock = 0
        self._evictions: dict[str, int] = {}  # namespace -> pools evicted
        self._truncations: dict[str, int] = {}  # namespace -> suffix truncations
        self._reattached: dict[str, int] = {}  # namespace -> sets loaded from disk
        self._closed = False

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------
    def _get_or_create(self, key: PoolKey, factory) -> _PoolEntry:
        """Resolve ``key``; create (and maybe reattach) under the lock.

        Context creation can be slow (process backends spawn workers);
        holding the manager lock keeps double-creation impossible, which
        matters more here than first-query latency.
        """
        # Callers hold self._lock (query() acquires it before resolving).
        entry = self._entries.get(key)  # repro: allow[lock-discipline]
        if entry is None:
            ctx, seed = factory()
            stamp = make_stamp(
                ctx.graph,
                model=ctx.model.value,
                stream=key.stream,
                horizon=key.horizon,
                seed=seed,
                sampler=ctx.sampler,
                roots=ctx.roots,
                graph_version=ctx.graph_version,
            )
            entry = _PoolEntry(self, key, ctx, stamp)
            if self.store is not None and stamp is not None:
                spilled = self.store.load(stamp)
                if spilled is not None:
                    entry.reattached = ctx.preload(spilled)
                    ns = key.namespace
                    self._reattached[ns] = self._reattached.get(ns, 0) + entry.reattached
            self._entries[key] = entry
        return entry

    @contextmanager
    def query(self, key: PoolKey, factory):
        """Open one query against the pool at ``key``.

        ``factory`` builds the backing context on first use and returns
        ``(SamplingContext, replayable_seed_or_None)``.  Yields a
        :class:`QueryView`; on exit the pool's LRU position is bumped
        and the byte budget re-enforced.
        """
        with self._lock:
            if self._closed:
                raise SamplingError("PoolManager is closed")
            entry = self._get_or_create(key, factory)
            entry.inflight += 1
        try:
            yield QueryView(entry)
        finally:
            with self._lock:
                entry.inflight -= 1
                self._clock += 1
                entry.last_used = self._clock
            self.enforce_budget()

    # ------------------------------------------------------------------
    # Budget / eviction
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Retained RR-set bytes across every pool."""
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def set_quota(self, namespace: str, quota_bytes: int | None) -> None:
        """Set (or clear, with ``None``) one namespace's byte quota.

        Enforced immediately: lowering a quota below current usage
        reclaims from the namespace's own idle pools right away.
        """
        if quota_bytes is not None and quota_bytes <= 0:
            raise SamplingError(f"quota_bytes must be positive, got {quota_bytes}")
        with self._lock:
            if quota_bytes is None:
                self._quotas.pop(namespace, None)
            else:
                self._quotas[namespace] = int(quota_bytes)
        self.enforce_budget()

    def quota_for(self, namespace: str) -> int | None:
        with self._lock:
            return self._quotas.get(namespace)

    def quotas(self) -> dict:
        """Copy of the ``{namespace: quota_bytes}`` map."""
        with self._lock:
            return dict(self._quotas)

    def enforce_budget(self) -> int:
        """Reclaim bytes from idle pools until quotas and budget hold.

        Two passes.  **Quota pass**: every namespace over its own byte
        quota reclaims from *its own* idle pools (LRU first) until the
        quota holds.  **Global pass**: while the global budget is still
        exceeded, reclaim LRU-first — preferring pools of namespaces
        still over quota (their overrun pays the global bill) and only
        then falling back to any idle pool.  Large pools shed their
        *suffix* first — per-set seed derivation makes any prefix
        byte-exactly resumable, so truncation trades cold warmup for
        memory without dropping the hot head — and pools too small to
        truncate are evicted whole.  Returns the number of reclaim
        actions (truncations + evictions).
        """
        reclaimed = 0
        with self._lock:
            for namespace, quota in list(self._quotas.items()):
                while True:
                    used = sum(
                        e.nbytes
                        for k, e in self._entries.items()
                        if k.namespace == namespace
                    )
                    if used <= quota:
                        break
                    victims = self._victims_locked(namespace)
                    if not victims:
                        break  # everything left in this namespace is busy
                    self._reclaim_one_locked(victims)
                    reclaimed += 1
            if self.budget_bytes is None:
                return reclaimed
            while sum(e.nbytes for e in self._entries.values()) > self.budget_bytes:
                over = self._over_quota_namespaces_locked()
                if over:
                    # An over-quota tenant pays the global bill.  If its
                    # pools are all busy, overshoot until they go idle
                    # (the quota pass then reclaims them) rather than
                    # evict a within-quota tenant's warmth.
                    victims = [
                        e for e in self._victims_locked(None) if e.key.namespace in over
                    ]
                else:
                    victims = self._victims_locked(None)
                if not victims:
                    # Everything eligible is in flight: overshoot is bounded
                    # by one top-up batch per busy pool until they go idle.
                    break
                self._reclaim_one_locked(victims)
                reclaimed += 1
        return reclaimed

    def _victims_locked(self, namespace: str | None) -> list:
        """Idle, non-empty entries eligible for reclaim.  Manager lock held."""
        return [
            e
            for k, e in self._entries.items()
            if (namespace is None or k.namespace == namespace)
            and e.inflight == 0
            and len(e.ctx.pool)
        ]

    def _over_quota_namespaces_locked(self) -> set:
        usage: dict[str, int] = {}
        for key, entry in self._entries.items():
            usage[key.namespace] = usage.get(key.namespace, 0) + entry.nbytes
        return {
            ns
            for ns, quota in self._quotas.items()
            if usage.get(ns, 0) > quota
        }

    def _reclaim_one_locked(self, victims: list) -> None:
        """Truncate or evict the least-recently-used victim.  Lock held."""
        victim = min(victims, key=lambda e: e.last_used)
        keep = len(victim.ctx.pool) // 2
        if keep >= self.suffix_min_sets:
            self._truncate(victim, keep)
        else:
            self._evict(victim)

    def _truncate(self, entry: _PoolEntry, keep: int) -> None:
        """Suffix-truncate one idle entry to ``[0, keep)``.  Manager lock
        held; ``inflight == 0`` so no query is mid-top-up.

        The *full* pool is spilled first (when a store is configured), so
        disk keeps the longest sampled prefix — a later reattach restores
        everything, and the store's keep-longest rule stops the eventual
        shorter-pool spill from clobbering it.
        """
        with entry.lock:
            self._spill_entry(entry)
            entry.ctx.truncate(keep)
        ns = entry.key.namespace
        self._truncations[ns] = self._truncations.get(ns, 0) + 1

    def _evict(self, entry: _PoolEntry) -> None:
        """Spill (if possible) and drop one idle entry.  Manager lock held;
        ``inflight == 0`` so no query is mid-top-up."""
        self._retire(entry, spill=True)
        ns = entry.key.namespace
        self._evictions[ns] = self._evictions.get(ns, 0) + 1

    def _retire(self, entry: _PoolEntry, *, spill: bool) -> None:
        """Spill (optionally) and close one entry, serialized with its queries.

        Taking the entry lock makes the spilled prefix consistent even if
        a caller retires a session that still has queries in flight (a
        misuse, but one that must corrupt nothing): an in-flight query
        either finishes its top-up before the spill or sees a clean
        "context is closed" error on its next ``require``.  Lock order is
        manager → entry everywhere; no path takes them in reverse.
        """
        # Callers hold self._lock (retire/evict/mutate paths acquire it).
        self._entries.pop(entry.key, None)  # repro: allow[lock-discipline]
        with entry.lock:
            if spill:
                self._spill_entry(entry)
            entry.ctx.close()

    def _spill_entry(self, entry: _PoolEntry) -> None:
        if self.store is None or entry.stamp is None or not len(entry.ctx.pool):
            return
        self.store.save(entry.stamp, entry.ctx.pool)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pool_sizes(self, namespace: str | None = None) -> dict:
        """Cached RR sets per pool, keyed ``(stream, model, horizon,
        stream_id, graph_version)``.

        With ``namespace=None`` the keys include the namespace.
        """
        with self._lock:
            out = {}
            for key, entry in self._entries.items():
                if namespace is not None and key.namespace != namespace:
                    continue
                short = (
                    key.stream,
                    key.model,
                    key.horizon,
                    key.stream_id,
                    key.graph_version,
                )
                out[short if namespace is not None else (key.namespace, *short)] = len(
                    entry.ctx.pool
                )
            return out

    def bytes_for(self, namespace: str) -> int:
        with self._lock:
            return sum(
                e.nbytes for k, e in self._entries.items() if k.namespace == namespace
            )

    def occupancy(self, key: PoolKey) -> tuple[int, int]:
        """``(sets, bytes)`` currently pooled at ``key`` (0, 0 if absent).

        This is the admission cost model's view of the cache: how much
        of a query's demand is already paid for.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return (0, 0)
            return (len(entry.ctx.pool), entry.nbytes)

    def namespace_usage(self) -> dict:
        """Per-namespace gauge snapshot for metrics exposition.

        ``{namespace: {"pools", "sets", "bytes", "inflight", "quota"}}``
        — quota is ``None`` for unlimited namespaces.  Namespaces with a
        quota but no open pools still appear (all-zero), so a tenant's
        gauges never vanish from the scrape just because it went cold.
        """
        with self._lock:
            usage: dict[str, dict] = {}
            for ns in self._quotas:
                usage[ns] = {"pools": 0, "sets": 0, "bytes": 0, "inflight": 0}
            for key, entry in self._entries.items():
                row = usage.setdefault(
                    key.namespace, {"pools": 0, "sets": 0, "bytes": 0, "inflight": 0}
                )
                row["pools"] += 1
                row["sets"] += len(entry.ctx.pool)
                row["bytes"] += entry.nbytes
                row["inflight"] += entry.inflight
            for ns, row in usage.items():
                row["quota"] = self._quotas.get(ns)
            return usage

    def evictions_for(self, namespace: str | None = None) -> int:
        with self._lock:
            if namespace is None:
                return sum(self._evictions.values())
            return self._evictions.get(namespace, 0)

    def truncations_for(self, namespace: str | None = None) -> int:
        """Lifetime count of suffix truncations (budget pressure relief)."""
        with self._lock:
            if namespace is None:
                return sum(self._truncations.values())
            return self._truncations.get(namespace, 0)

    def rebind_namespace(self, namespace: str, fleet) -> int:
        """Move every open pool of one namespace onto another started
        fleet (byte-invisible, between top-ups); returns pools moved.
        Entries evicted between collection and their move are skipped."""
        with self._lock:
            entries = [e for k, e in self._entries.items() if k.namespace == namespace]
        moved = 0
        for entry in entries:
            with entry.lock:
                if not entry.ctx.closed:
                    entry.ctx.rebind_fleet(fleet)
                    moved += 1
        return moved

    # ------------------------------------------------------------------
    # Graph mutation (see repro.dynamic)
    # ------------------------------------------------------------------
    def mutate_namespace(self, namespace: str, graph, graph_version: int, delta) -> dict:
        """Move every pool of one namespace onto a mutated graph snapshot.

        For each pool: compute the exact invalidation set from its
        node→set index, rebind its context onto ``graph``, resample only
        the invalidated sets in place (byte-identical to a cold resample
        — see :func:`repro.dynamic.repair.repair_context`), refresh its
        spill stamp, and rekey it to ``graph_version``.  A node-count
        change defeats targeted repair (root selection draws over ``n``),
        so those pools are retired (spilled under their old stamp) and
        rebuilt lazily on next use.

        Mutation is a **barrier operation**: the whole pass runs under
        the manager lock — new queries block until the repair completes —
        and a namespace with queries in flight is refused, because
        repairs rewrite pool sets that in-flight snapshots may be
        reading.  Returns a report dict (``pools``, ``sets_total``,
        ``invalidated``, ``repaired``, ``repair_fraction``,
        ``pools_retired``).
        """
        graph_version = int(graph_version)
        report = {
            "pools": 0,
            "sets_total": 0,
            "invalidated": 0,
            "repaired": 0,
            "pools_retired": 0,
        }
        from repro.dynamic.repair import repair_context

        with self._lock:
            if self._closed:
                raise SamplingError("PoolManager is closed")
            items = [
                (k, e) for k, e in self._entries.items() if k.namespace == namespace
            ]
            busy = sum(1 for _k, e in items if e.inflight)
            if busy:
                raise SamplingError(
                    f"cannot mutate namespace {namespace!r}: {busy} pool(s) "
                    "have queries in flight — mutation is a barrier operation"
                )
            for key, entry in items:
                with entry.lock:
                    if entry.ctx.closed:
                        continue
                    if graph.n != entry.ctx.graph.n:
                        pooled = len(entry.ctx.pool)
                        report["sets_total"] += pooled
                        report["invalidated"] += pooled
                        self._retire(entry, spill=True)
                        report["pools_retired"] += 1
                        continue
                    stats = repair_context(entry.ctx, graph, graph_version, delta)
                    entry.stamp = make_stamp(
                        graph,
                        model=entry.ctx.model.value,
                        stream=key.stream,
                        horizon=key.horizon,
                        seed=entry.stamp["seed"] if entry.stamp is not None else None,
                        sampler=entry.ctx.sampler,
                        roots=entry.ctx.roots,
                        graph_version=graph_version,
                    )
                new_key = replace(key, graph_version=graph_version)
                self._entries.pop(key, None)
                entry.key = new_key
                self._entries[new_key] = entry
                report["pools"] += 1
                report["sets_total"] += stats["sets_total"]
                report["invalidated"] += stats["invalidated"]
                report["repaired"] += stats["repaired"]
        total = report["sets_total"]
        report["repair_fraction"] = report["invalidated"] / total if total else 0.0
        return report

    def reattached_for(self, namespace: str) -> int:
        """Lifetime count of sets loaded from disk spills (warm starts)."""
        with self._lock:
            return self._reattached.get(namespace, 0)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def release_namespace(self, namespace: str, *, spill: bool = True) -> None:
        """Close (and optionally spill) every pool of one namespace."""
        with self._lock:
            entries = [e for k, e in self._entries.items() if k.namespace == namespace]
            for entry in entries:
                self._retire(entry, spill=spill)

    def close(self, *, spill: bool = True) -> None:
        """Spill (by default) and close every pool; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            errors = []
            for entry in list(self._entries.values()):
                try:
                    self._retire(entry, spill=spill)
                except Exception as exc:  # keep releasing the rest
                    errors.append(exc)
            self._entries.clear()
            if errors:
                raise errors[0]
