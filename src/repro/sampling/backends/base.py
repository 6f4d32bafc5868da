"""Execution-backend protocol for parallel RR-set sampling.

The Stop-and-Stare estimators only need the merged RR stream to be
i.i.d., so *where* each set is computed is an execution detail.  This
module pins down the contract between the coordinator
(:class:`repro.sampling.sharded.ShardedSampler`) and the workers:

* the coordinator owns the merge order — it assigns each RR set's
  *global stream index* to a worker and re-interleaves the results;
* each worker owns a plain :class:`~repro.sampling.base.RRSampler`
  built from the stream's seed material (``entropy`` + ``spawn_key``)
  and computes any set it is handed via
  :meth:`~repro.sampling.base.RRSampler.sample_block` — counter-based
  draws (:mod:`repro.sampling.seedstream`) make set ``g`` a pure
  function of ``(seed, g)``, its root included.

Workers therefore carry **no stream state**: any worker can compute any
set, the merged output is a pure function of the seed alone, and the
fleet can be resized mid-stream (:meth:`ExecutionBackend.resize`)
without changing a byte.  A backend swap (serial ↔ thread ↔ process)
cannot change the stream either.  ``tests/sampling/test_backends.py``
and ``tests/sampling/test_elastic.py`` enforce all of this.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.diffusion.models import DiffusionModel
from repro.exceptions import SamplingError
from repro.graph.digraph import CSRGraph
from repro.sampling.block import RRBlock


@dataclass
class WorkerSpec:
    """Everything a backend needs to stand up its worker fleet.

    ``entropy``/``spawn_key`` identify the stream (the root SeedSequence
    every set key derives from); ``workers`` is the fleet size — pure
    throughput, no stream meaning.  ``roots`` is the root distribution
    (``None`` = uniform over the graph's nodes); workers draw each set's
    root from the set's own key, so the distribution object must ship to
    them (picklable: it crosses the process boundary once, at startup).
    The spec itself is cheap — only the process backend pays the cost of
    shipping ``graph`` (once, via shared memory).
    """

    graph: CSRGraph | None
    model: DiffusionModel
    entropy: int = 0
    spawn_key: tuple = ()
    workers: int = 1
    roots: object | None = None
    max_hops: int | None = None
    # Mutation-lineage position of ``graph`` (see repro.dynamic); 0 is
    # the pristine snapshot.  Stamped into graph manifests so remote
    # workers re-fetch the blob only when the content hash changed.
    graph_version: int = 0


class ExecutionBackend(abc.ABC):
    """Lifecycle + fan-out contract shared by all execution backends.

    Usage::

        backend = make_backend("process")
        backend.start(spec)            # stand up workers, ship the graph
        shards = backend.sample_shards(index_batches)
        backend.resize(16)             # elastic: stream is unchanged
        backend.close()                # tear down workers, free resources

    ``sample_shards`` takes one *global-index* batch per worker (empty
    batches are allowed and produce empty shard results) and returns,
    per worker, one :class:`~repro.sampling.block.RRBlock` of the RR
    sets for its indices *in batch order*.
    """

    #: registry key / CLI name, overridden by each implementation.
    name = "abstract"

    def __init__(self) -> None:
        self._spec: WorkerSpec | None = None
        self._closed = False
        #: workers replaced after a crash (fault-tolerant backends bump
        #: this; serial/thread have nothing to respawn and keep it 0).
        self.respawns = 0
        #: crash context retained from faults that were retried instead of
        #: raised (each entry is one worker-failure description).
        self.fault_log: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, spec: WorkerSpec) -> None:
        """Stand up the worker fleet for ``spec`` (idempotence not allowed)."""
        if self._spec is not None:
            raise SamplingError(f"{type(self).__name__} already started")
        if spec.workers < 1:
            raise SamplingError(f"need at least one worker, got {spec.workers}")
        self._closed = False
        self._start(spec)
        # Only a fully stood-up fleet counts as started: a _start that
        # raises leaves the backend restartable instead of wedged.
        self._spec = spec

    def close(self) -> None:
        """Tear down workers and release resources (idempotent).

        Marked closed only after teardown succeeds, so a failed teardown
        can be retried (by the caller or the ``__del__`` safety net)
        instead of silently leaking workers or shared-memory segments.
        """
        if self._closed:
            return
        if self._spec is None:
            # Never started (or _start raised and start() never recorded a
            # spec): there is no fleet or shared resource to tear down, and
            # backend _close() hooks are entitled to assume a stood-up
            # fleet — calling them here would poke half-initialized state.
            self._closed = True
            return
        self._close()
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def workers(self) -> int:
        """Fleet size (0 before :meth:`start`)."""
        return self._spec.workers if self._spec is not None else 0

    @property
    def started(self) -> bool:
        return self._spec is not None and not self._closed

    def resize(self, workers: int) -> None:
        """Grow or shrink the fleet mid-stream.

        Seed-pure streams make this safe by construction: workers hold
        no stream state, so the only effect is throughput.  The next
        ``sample_shards`` call must pass batches for the new count.
        """
        if not self.started:
            raise SamplingError(f"{type(self).__name__} is not running (start it first)")
        workers = int(workers)
        if workers < 1:
            raise SamplingError(f"need at least one worker, got {workers}")
        if workers == self._spec.workers:
            return
        self._resize(workers)
        self._spec = replace(self._spec, workers=workers)

    def sync_fleet(self) -> int:
        """Reconcile the nominal worker count with the live fleet.

        Local backends own their fleet, so the answer is simply
        ``workers``.  Backends whose membership can change underneath the
        coordinator (remote hosts joining or leaving a network fleet)
        override this to report the current live size — the coordinator
        calls it before partitioning each batch and re-shards over
        whatever answer comes back.  Seed-pure streams make the answer a
        pure throughput concern: any value yields the same bytes.
        """
        if not self.started:
            raise SamplingError(f"{type(self).__name__} is not running (start it first)")
        return self.workers

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def sample_shards(
        self,
        index_batches: Sequence[np.ndarray],
        root_batches: "Sequence[np.ndarray | None] | None" = None,
    ) -> list[RRBlock]:
        """Sample RR sets for each worker's batch of global set indices.

        ``index_batches[w]`` are the stream indices assigned to worker
        ``w``; the result keeps the same shape: ``result[w]`` is a
        block whose set ``i`` is the RR set of stream index
        ``index_batches[w][i]``.  ``root_batches``
        optionally pins explicit roots (aligned with the indices);
        ``None`` — the normal case — draws each root from its set's own
        key.
        """
        if not self.started:
            raise SamplingError(f"{type(self).__name__} is not running (start it first)")
        if len(index_batches) != self.workers:
            raise SamplingError(
                f"got {len(index_batches)} index batches for {self.workers} workers"
            )
        if root_batches is not None and len(root_batches) != len(index_batches):
            raise SamplingError("root batches must align with index batches")
        return self._sample_shards(index_batches, root_batches)

    # ------------------------------------------------------------------
    # Implementation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _start(self, spec: WorkerSpec) -> None:
        """Backend-specific fleet startup."""

    @abc.abstractmethod
    def _resize(self, workers: int) -> None:
        """Backend-specific fleet resize; called only while started and
        only for an actual size change."""

    @abc.abstractmethod
    def _sample_shards(
        self,
        index_batches: Sequence[np.ndarray],
        root_batches: "Sequence[np.ndarray | None] | None",
    ) -> list[RRBlock]:
        """Backend-specific fan-out; called only while started."""

    @abc.abstractmethod
    def _close(self) -> None:
        """Backend-specific teardown; called at most once."""


def build_worker_sampler(spec: WorkerSpec, graph: CSRGraph | None = None):
    """Construct one worker's sampler from a spec.

    Workers are interchangeable (no per-worker stream state), so there
    is no worker id: every backend builds samplers from the same seed
    material and byte-identical per-set derivation follows.  ``graph``
    overrides the spec's graph for workers that attached their own
    shared-memory copy.
    """
    from repro.sampling.base import make_sampler

    return make_sampler(
        graph if graph is not None else spec.graph,
        spec.model,
        np.random.SeedSequence(entropy=spec.entropy, spawn_key=spec.spawn_key),
        roots=spec.roots,
        max_hops=spec.max_hops,
        graph_version=spec.graph_version,
    )


def run_worker_batch(
    sampler, indices: np.ndarray, roots: "np.ndarray | None" = None
) -> RRBlock:
    """Compute one worker's shard of RR sets by global stream index.

    Shared by every backend so in-process and out-of-process paths run
    byte-identical code.  Routes through
    :meth:`~repro.sampling.base.RRSampler.sample_block` — the lockstep
    path — whose entry ``i`` equals ``sample_at(indices[i])`` byte for
    byte (batch-composition invariance).  A negative root entry means
    "this set draws its own root" (the wire convention for unpinned sets
    in a pinned batch).
    """
    return sampler.sample_block(np.asarray(indices, dtype=np.int64), roots)
