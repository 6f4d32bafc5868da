"""Warm sampling state shared by a session's queries.

A :class:`SamplingContext` owns exactly what the one-shot algorithms
used to rebuild per call: a parallel sampler (and with it the execution
backend — acquired once here, released once in :meth:`close`) plus a
persistent :class:`~repro.sampling.rr_collection.RRCollection` pool.
Algorithm bodies ask for *prefixes* of the RR stream via
:meth:`require`; because the stream is a pure function of the seed
alone — independent of batching, backend, and worker count (see
:mod:`repro.sampling.seedstream`) — serving a query from the cached
pool is byte-identical to resampling it cold, and :meth:`resize` can
change the worker fleet mid-session without touching a byte.  Reuse is
free of statistical or reproducibility surprises beyond the documented
cross-query correlation of shared samples.

The one-shot wrappers (``dssa(...)``, ``ssa(...)``, ...) build a
throwaway context per call, which both guarantees backend teardown on
any exception path (``try/finally``) and makes "one-shot" literally the
single-query special case of the engine — equivalence by construction.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.models import DiffusionModel
from repro.exceptions import SamplingError
from repro.sampling.base import RRSampler, make_sampler
from repro.sampling.rr_collection import RRCollection
from repro.sampling.sharded import make_parallel_sampler
from repro.utils.rng import spawn_rngs


class SamplingContext:
    """One warm RR stream + pool, shared by every query that fits its key.

    Parameters
    ----------
    graph, model, roots, horizon, backend, workers:
        As for :func:`repro.sampling.sharded.make_parallel_sampler`.
    seed:
        Session seed.  An ``int`` (or ``None``) keeps the context fully
        replayable; a :class:`numpy.random.Generator` is accepted for
        one-shot use but cannot re-derive verification streams across
        queries.
    split_verify:
        ``True`` for SSA's two-stream derivation: the main sampler is
        seeded with ``spawn_rngs(seed, 2)[0]`` and each query gets a
        fresh verification sampler derived exactly as a cold ``ssa``
        call would derive it.
    kernel:
        Accepted kernel name (see :mod:`repro.sampling.kernels`):
        validated, selects nothing.
    """

    def __init__(
        self,
        graph,
        model: "str | DiffusionModel",
        *,
        seed=None,
        split_verify: bool = False,
        roots=None,
        horizon: int | None = None,
        backend=None,
        workers: int | None = None,
        kernel=None,
        graph_version: int = 0,
    ) -> None:
        self.graph = graph
        self.graph_version = int(graph_version)
        self.model = DiffusionModel.parse(model)
        self.roots = roots
        self.horizon = horizon
        self._seed = seed
        self._backend = backend
        self._split_verify = split_verify
        self._stored_verify = None
        if split_verify:
            main_rng, self._stored_verify = spawn_rngs(seed, 2)
        else:
            main_rng = seed
        self.sampler: RRSampler = make_parallel_sampler(
            graph,
            model,
            main_rng,
            roots=roots,
            max_hops=horizon,
            backend=backend,
            workers=workers,
            kernel=kernel,
            graph_version=self.graph_version,
        )
        self.pool = RRCollection(graph.n, stream_id=self.sampler.stream_id)
        self.sampled = 0  # RR sets actually generated into the pool
        self.served = 0  # RR sets demanded by queries (cache hits included)
        self.queries = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Stream access
    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Estimator scale Γ (n for RIS, total benefit for WRIS)."""
        return self.sampler.scale

    def require(self, total: int) -> RRCollection:
        """Top the pool up to ``total`` sets and return it.

        Cached sets are served as-is; only the deficit is sampled — and
        the deficit continues the session's pure stream, so the returned
        prefix ``[0, total)`` matches what a cold run would sample.
        """
        if self._closed:
            raise SamplingError("sampling context is closed")
        deficit = int(total) - len(self.pool)
        if deficit > 0:
            self.pool.extend(self.sampler.sample_batch(deficit))
            self.sampled += deficit
        return self.pool

    def note_query(self, demand: int) -> None:
        """Record one finished query and its total RR-set demand."""
        self.queries += 1
        self.served += int(demand)

    def fresh_verifier(self) -> RRSampler:
        """A verification-stream sampler, derived as a cold run derives it.

        For replayable (int) seeds this re-computes
        ``spawn_rngs(seed, 2)[1]`` per query — the same generator state a
        cold ``ssa(seed=...)`` call spawns — so engine queries stay
        byte-identical to one-shots.  Generator-seeded (one-shot)
        contexts hand out the child spawned at construction.
        """
        if not self._split_verify:
            raise SamplingError("context was built without a verification stream")
        if isinstance(self._seed, (int, np.integer)):
            rng = spawn_rngs(int(self._seed), 2)[1]
        elif self._stored_verify is not None:
            rng, self._stored_verify = self._stored_verify, None
        else:  # non-replayable session past its first query: fresh entropy
            rng = None
        return make_sampler(
            self.graph, self.model, rng, roots=self.roots, max_hops=self.horizon,
            graph_version=self.graph_version,
        )

    # ------------------------------------------------------------------
    # Elastic workers
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Current worker count of the context's sampler."""
        return self.sampler.workers

    def resize(self, workers: int) -> None:
        """Set the sampler's worker count mid-session (byte-invisible).

        Seed-pure streams make ``workers`` a pure throughput knob, so a
        resize never changes what any query returns.  A context built
        without a coordinator (plain in-process sampler) is upgraded in
        place to a :class:`~repro.sampling.sharded.ShardedSampler`,
        continuing the stream at the same position — on its configured
        backend, or on the thread backend when the session never chose
        one (``backend=None`` means "no parallelism yet", and resizing
        to W>1 onto a serial fleet would be a silent no-op).
        """
        from repro.sampling.sharded import ShardedSampler

        if self._closed:
            raise SamplingError("sampling context is closed")
        workers = int(workers)
        if workers < 1:
            raise SamplingError(f"workers must be >= 1, got {workers}")
        if isinstance(self.sampler, ShardedSampler):
            self.sampler.resize(workers)
            return
        if workers == 1:
            return  # a plain sampler already is the one-worker topology
        state = self.sampler.state_dict()
        upgraded = ShardedSampler(
            self.graph,
            self.model,
            workers,
            self.sampler.seed_stream,
            roots=self.roots,
            max_hops=self.horizon,
            backend=self._backend if self._backend is not None else "thread",
            graph_version=self.graph_version,
        )
        upgraded.load_state_dict(state)
        old, self.sampler = self.sampler, upgraded
        old.close()

    # ------------------------------------------------------------------
    # Graph mutation (see repro.dynamic)
    # ------------------------------------------------------------------
    def rebind_graph(self, graph, graph_version: int) -> None:
        """Move the context onto a mutated graph snapshot, mid-stream.

        The sampler is rebuilt on ``graph`` from the *same* seed stream
        and continues at the same cursor — seed purity makes position
        portable across graphs; what changes is which bytes future sets
        contain.  The pool is left as-is: the caller owns repairing the
        invalidated sets (:func:`repro.dynamic.repair.repair_context`)
        before serving any query from it.  A node-count change is
        refused while the pool holds sets — no targeted repair exists
        (root selection draws over ``n``); retire the pool instead.
        """
        from repro.sampling.sharded import ShardedSampler

        if self._closed:
            raise SamplingError("sampling context is closed")
        graph_version = int(graph_version)
        if graph.n != self.graph.n and len(self.pool):
            raise SamplingError(
                f"node count changed ({self.graph.n} -> {graph.n}): every "
                "stored set is invalid, retire the pool instead of rebinding"
            )
        old = self.sampler
        state = old.state_dict()
        state["graph_version"] = graph_version
        seed_stream = old.seed_stream
        workers = old.workers
        if isinstance(old, ShardedSampler):
            backend = self._backend
            if backend is not None and not isinstance(backend, str):
                # The original backend *instance* was consumed (started and
                # now closed) by the old sampler; rebuild by name.
                backend = getattr(backend, "name", None)
            old.close()  # free ports/shm before the replacement fleet starts
            replacement: RRSampler = ShardedSampler(
                graph,
                self.model,
                workers,
                seed_stream,
                roots=self.roots,
                max_hops=self.horizon,
                backend=backend if backend is not None else "thread",
                graph_version=graph_version,
            )
        else:
            old.close()
            replacement = make_sampler(
                graph, self.model, seed_stream, roots=self.roots,
                max_hops=self.horizon, graph_version=graph_version,
            )
        replacement.load_state_dict(state)
        self.sampler = replacement
        self.graph = graph
        self.graph_version = graph_version
        if graph.n != self.pool.n:
            # Empty pool on a grown/shrunk graph: restart it at the new n.
            self.pool = RRCollection(graph.n, stream_id=self.sampler.stream_id)

    def truncate(self, keep: int) -> int:
        """Drop pool sets ``[keep, len)`` and reposition the stream.

        Per-set seed derivation makes any prefix resumable: the sampler
        simply seeks to ``keep``, so the next :meth:`require` past the
        kept prefix re-continues the stream byte-exactly.  Returns the
        number of sets dropped.  Used by the pool manager's suffix
        eviction under byte pressure.
        """
        if self._closed:
            raise SamplingError("sampling context is closed")
        dropped = self.pool.truncate(keep)
        if dropped:
            self.sampler.seek(len(self.pool), entries=self.pool.total_entries)
        return dropped

    # ------------------------------------------------------------------
    # Stream position (pool spill / reattach)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The sampler's stream position (see :meth:`RRSampler.state_dict`)."""
        return self.sampler.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore a stream position captured by :meth:`state_dict`."""
        self.sampler.load_state_dict(state)

    def preload(self, rr_sets) -> int:
        """Seed an *empty* pool with previously spilled RR sets.

        The sets are served as cache without counting as sampled this
        session; the caller must also :meth:`load_state_dict` the
        matching sampler position so later top-ups continue the stream.
        """
        if len(self.pool):
            raise SamplingError("can only preload an empty pool")
        self.pool.extend(rr_sets)
        # Keep the stream position consistent even if the caller skips
        # load_state_dict: top-ups must continue after the preloaded
        # prefix, never resample over it.
        self.sampler.seek(len(self.pool), entries=self.pool.total_entries)
        return len(self.pool)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the backend (idempotent); the pool stays readable."""
        if self._closed:
            return
        self._closed = True
        self.sampler.close()

    def __enter__(self) -> "SamplingContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
