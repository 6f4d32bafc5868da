"""Warm sampling state shared by a session's queries.

A :class:`SamplingContext` owns exactly what the one-shot algorithms
used to rebuild per call: a :class:`~repro.sampling.sharded.ShardedSampler`
(its stream registered on an engine session's fleet, or on a private
one) plus a persistent
:class:`~repro.sampling.rr_collection.RRCollection` pool.  Algorithm
bodies ask for *prefixes* of the RR stream via :meth:`require`.  Set
``g`` is a pure function of ``(seed, g)`` (see
:mod:`repro.sampling.seedstream`), so the pool's length *is* the stream
position: a top-up samples sets ``[len(pool), total)`` by index, and
truncating, preloading a spill, resizing the fleet or rebinding the
graph (a new registration on the same fleet) has no second position to
keep in step.  Serving a query from the
cached pool is byte-identical to resampling it cold; reuse is free of
statistical or reproducibility surprises beyond the documented
cross-query correlation of shared samples.

The one-shot wrappers (``dssa(...)``, ``ssa(...)``, ...) build a
throwaway context per call, which both guarantees backend teardown on
any exception path (``try/finally``) and makes "one-shot" literally the
single-query special case of the engine — equivalence by construction.
A context holds one stream; SSA reads two (its optimization pool and
Estimate-Inf's verification pool), each an ordinary context seeded with
its own child of ``spawn_rngs(seed, 2)``.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.models import DiffusionModel
from repro.exceptions import ParameterError, SamplingError
from repro.sampling.rr_collection import RRCollection
from repro.sampling.sharded import ShardedSampler, make_parallel_sampler


class SamplingContext:
    """One warm RR stream + pool, shared by every query that fits its key.

    Parameters
    ----------
    graph, model, roots, horizon:
        As for :func:`repro.sampling.sharded.make_parallel_sampler`
        (``horizon`` is its ``max_hops``, refused when negative).
    backend, workers:
        A started fleet to borrow (an engine session's), or the private
        fleet to start, resolved by
        :func:`~repro.sampling.sharded.default_fleet` (with no backend
        named: serial at one worker, threads above one).
    seed:
        The stream's seed.  An ``int`` (or ``None``) keeps the context
        replayable and spillable; a :class:`numpy.random.Generator`
        (one-shot use) contributes its SeedSequence.
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
        roots=None,
        horizon: int | None = None,
        backend=None,
        workers: int | None = None,
        kernel=None,
        graph_version: int = 0,
    ) -> None:
        if horizon is not None and horizon < 0:
            raise ParameterError(f"horizon must be non-negative, got {horizon}")
        self.graph = graph
        self.graph_version = int(graph_version)
        self.model = DiffusionModel.parse(model)
        self.roots = roots
        self.horizon = horizon
        self.sampler: ShardedSampler = make_parallel_sampler(
            graph,
            model,
            seed,
            roots=roots,
            max_hops=horizon,
            backend=backend,
            workers=workers,
            kernel=kernel,
        )
        self.pool = RRCollection(graph.n, stream_id=self.sampler.stream_id)
        self.sampled = 0  # RR sets actually generated into the pool
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

        Cached sets are served as-is; only sets ``[len(pool), total)``
        are sampled, by index, so the returned prefix ``[0, total)``
        matches what a cold run would sample.
        """
        if self._closed:
            raise SamplingError("sampling context is closed")
        count, total = len(self.pool), int(total)
        if total > count:
            self.pool.extend(self.sampler.sample_block(np.arange(count, total)))
            self.sampled += total - count
        return self.pool

    # ------------------------------------------------------------------
    # Graph mutation (see repro.dynamic)
    # ------------------------------------------------------------------
    def rebind_graph(self, graph, graph_version: int) -> None:
        """Move the context onto a mutated graph snapshot, mid-stream.

        The stream is registered on ``graph`` on the same fleet; what
        changes is which bytes future sets contain.  The pool is left
        as-is: the caller owns repairing the invalidated sets
        (:func:`repro.dynamic.repair.repair_context`) before serving any
        query from it.  A node-count change is refused — no targeted
        repair exists (root selection draws over ``n``).
        """
        if self._closed:
            raise SamplingError("sampling context is closed")
        if graph.n != self.graph.n:
            raise SamplingError(
                f"node count changed ({self.graph.n} -> {graph.n}): every "
                "stored set is invalid, retire the pool instead of rebinding"
            )
        self.sampler.rebind(graph)
        self.graph = graph
        self.graph_version = int(graph_version)

    def rebind_fleet(self, fleet) -> None:
        """Move the stream onto another started fleet, which the context
        then borrows (byte-invisible: the fleet is throughput)."""
        if self._closed:
            raise SamplingError("sampling context is closed")
        old, self.sampler = self.sampler, make_parallel_sampler(
            self.graph, self.model, self.sampler.seed_stream, roots=self.roots,
            max_hops=self.horizon, backend=fleet,
        )
        old.close()

    def truncate(self, keep: int) -> int:
        """Drop pool sets ``[keep, len)``; returns the number dropped.

        The next :meth:`require` past ``keep`` samples the dropped sets
        again, byte-exactly.  Used by the pool manager's suffix eviction
        under byte pressure.
        """
        if self._closed:
            raise SamplingError("sampling context is closed")
        return self.pool.truncate(keep)

    def preload(self, rr_sets) -> int:
        """Seed an *empty* pool with previously spilled RR sets.

        The sets are served as cache without counting as sampled this
        session; top-ups continue the stream after them.
        """
        if len(self.pool):
            raise SamplingError("can only preload an empty pool")
        self.pool.extend(rr_sets)
        return len(self.pool)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the stream and a private fleet (idempotent); the pool
        stays readable."""
        if self._closed:
            return
        self._closed = True
        self.sampler.close()

    def __enter__(self) -> "SamplingContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
