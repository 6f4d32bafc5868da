"""Execution-backend protocol for parallel RR-set sampling.

The Stop-and-Stare estimators only need the merged RR stream to be
i.i.d., so *where* each set is computed is an execution detail.  This
module pins down the contract between the coordinator
(:class:`repro.sampling.sharded.ShardedSampler`) and the workers:

* the coordinator hands the backend one batch of *global stream
  indices* and concatenates the blocks that come back;
* the backend alone decides which worker computes which set: it cuts
  the batch into contiguous runs over its live workers
  (:func:`split_runs`) and returns one block per run, in batch order;
* each worker owns a plain :class:`~repro.sampling.base.RRSampler`
  built from the stream's seed material (``entropy`` + ``spawn_key``)
  and computes any run it is handed via
  :meth:`~repro.sampling.base.RRSampler.sample_block` — counter-based
  draws (:mod:`repro.sampling.seedstream`) make set ``g`` a pure
  function of ``(seed, g)``, its root included.

Workers therefore carry **no stream state**: any worker can compute any
set, the merged output is a pure function of the seed alone, and the
fleet can be resized mid-stream (:meth:`ExecutionBackend.resize`)
without changing a byte.  A backend swap (serial ↔ thread ↔ process ↔
network) cannot change the stream either.

Out-of-process fleets (process, network) share one dispatch-and-retry
loop, :class:`WorkerFleet`: it sends every run, drains every reply,
resends the runs of workers whose transport failed (the fleet heals
them), and raises a worker's application error only once every reply
is drained.  ``tests/sampling/test_backends.py`` and
``tests/sampling/test_elastic.py`` enforce all of this.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.diffusion.models import DiffusionModel
from repro.exceptions import SamplingError
from repro.graph.digraph import CSRGraph
from repro.sampling.block import RRBlock

# Consecutive dispatch rounds that answer no run, tolerated within one
# sample_shards call before the accumulated crash context is raised: a
# crash loop (bad graph memory, OOM killer) must not retry forever.
_RETRY_ROUNDS = 3
# fault_log is diagnostics, not an audit trail; keep it bounded.
_FAULT_LOG_LIMIT = 32
_STDERR_TAIL_BYTES = 2048


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
        runs = backend.sample_shards(indices)
        backend.resize(16)             # elastic: stream is unchanged
        backend.close()                # tear down workers, free resources

    ``sample_shards`` takes one batch of *global* stream indices and
    returns one :class:`~repro.sampling.block.RRBlock` per contiguous
    run of it, in batch order.
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
        no stream state, so the only effect is throughput.
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

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def sample_shards(self, indices, roots=None) -> list[RRBlock]:
        """Sample the RR sets of one batch of global set indices.

        The backend cuts the batch into contiguous runs, one per worker
        it engages, and returns one block per run in batch order:
        concatenated, the blocks hold the RR set of ``indices[i]`` at
        position ``i``.  ``roots`` optionally pins roots (aligned with
        ``indices``; a negative entry means "draw from the set's own
        key"); ``None`` — the normal case — draws every root from its
        set's key.
        """
        if not self.started:
            raise SamplingError(f"{type(self).__name__} is not running (start it first)")
        indices = np.asarray(indices, dtype=np.int64)
        if roots is not None:
            roots = np.asarray(roots, dtype=np.int64)
            if roots.shape != indices.shape:
                raise SamplingError("roots must align with indices")
        return self._sample_shards(indices, roots)

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
    def _sample_shards(self, indices: np.ndarray, roots: "np.ndarray | None") -> list[RRBlock]:
        """Backend-specific fan-out of an int64 batch; called only while
        started."""

    @abc.abstractmethod
    def _close(self) -> None:
        """Backend-specific teardown; called at most once."""


class WorkerLost(Exception):
    """A worker's transport failed mid-call: the fleet heals the worker
    and resends its run (seed-pure sets make the resend byte-identical)."""


class WorkerFailed(Exception):
    """A worker's reply reported an application error, which would recur
    on any worker: the call raises it once every reply is drained."""


class WorkerFleet(ExecutionBackend):
    """The dispatch-and-retry loop of the out-of-process fleets.

    Subclasses own the transport through four hooks: ``_live_workers``,
    ``_dispatch``, ``_collect`` and ``_lose``.
    """

    def _sample_shards(self, indices: np.ndarray, roots: "np.ndarray | None") -> list[RRBlock]:
        workers = self._live_workers()
        pending = split_runs(indices.size, len(workers))
        answered: list[tuple[int, RRBlock]] = []
        barren = 0
        while pending:
            # At most one run in flight per worker; the rest wait a round.
            sent, pending = pending[: len(workers)], pending[len(workers):]
            engaged, lost = [], []
            for worker, run in zip(workers, sent):
                lo, hi = run
                try:
                    self._dispatch(worker, indices[lo:hi], None if roots is None else roots[lo:hi])
                except WorkerLost as exc:
                    lost.append((worker, run, str(exc)))
                else:
                    engaged.append((worker, run))
            # Drain every engaged reply before healing, raising or
            # resending, or a later call would pair a stale reply with
            # new indices.
            errors, before = [], len(answered)
            for worker, run in engaged:
                try:
                    answered.append((run[0], self._collect(worker)))
                except WorkerLost as exc:
                    lost.append((worker, run, str(exc)))
                except WorkerFailed as exc:
                    errors.append(str(exc))
            for worker, run, why in lost:
                self._lose(worker, why)
                pending.append(run)
            if errors:
                raise SamplingError("; ".join(errors))
            if pending:
                barren = 0 if len(answered) > before else barren + 1
                if barren > _RETRY_ROUNDS:
                    raise SamplingError(
                        f"{self.name} fleet crash loop, retry budget exhausted"
                        + self._fault_suffix()
                    )
                workers = self._live_workers()
        # Answered runs are disjoint contiguous ranges of the batch.
        answered.sort(key=lambda item: item[0])
        return [block for _, block in answered]

    def _record_fault(self, fault: str, stderr_path: "str | None") -> None:
        """Append one crash description, with the worker's stderr tail,
        to the bounded fault log."""
        tail = stderr_tail(stderr_path)
        if tail:
            fault += f"; stderr tail:\n{tail}"
        self.fault_log.append(fault)
        del self.fault_log[:-_FAULT_LOG_LIMIT]

    def _fault_suffix(self) -> str:
        return ("; recent faults: " + " | ".join(self.fault_log[-3:])) if self.fault_log else ""

    @abc.abstractmethod
    def _live_workers(self) -> list:
        """The workers to engage this round (at least one), after
        healing any the fleet lost."""

    @abc.abstractmethod
    def _dispatch(self, worker, indices: np.ndarray, roots: "np.ndarray | None") -> None:
        """Send one run to ``worker``; raise :class:`WorkerLost` if it is gone."""

    @abc.abstractmethod
    def _collect(self, worker) -> RRBlock:
        """``worker``'s block for its run; raise :class:`WorkerLost` if
        the worker died, :class:`WorkerFailed` for an application error."""

    @abc.abstractmethod
    def _lose(self, worker, why: str) -> None:
        """Retire or replace a worker whose transport failed, and record
        its crash context (:meth:`_record_fault`)."""


def split_runs(size: int, parts: int) -> list[tuple[int, int]]:
    """``[0, size)`` as at most ``parts`` non-empty contiguous runs whose
    lengths differ by at most one."""
    bounds = [size * part // parts for part in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def stderr_tail(path: "str | None") -> str:
    """The last few KiB of a worker's stderr file ("" if unreadable)."""
    if path is None:
        return ""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            handle.seek(max(0, handle.tell() - _STDERR_TAIL_BYTES))
            return handle.read().decode("utf-8", errors="replace").strip()
    except OSError:
        return ""


def remove_file(path: str) -> None:
    """Delete a scratch file if it is still there."""
    try:
        os.unlink(path)
    except OSError:
        pass


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
    """Compute one worker's run of RR sets by global stream index.

    Shared by every backend so in-process and out-of-process paths run
    byte-identical code.  Routes through
    :meth:`~repro.sampling.base.RRSampler.sample_block` — the lockstep
    path — whose entry ``i`` equals ``sample_at(indices[i])`` byte for
    byte (batch-composition invariance).  A negative root entry means
    "this set draws its own root" (the wire convention for unpinned sets
    in a pinned batch).
    """
    return sampler.sample_block(np.asarray(indices, dtype=np.int64), roots)
