"""Execution-backend protocol for parallel RR-set sampling.

The Stop-and-Stare estimators only need the merged RR stream to be
i.i.d., so *where* each set is computed is an execution detail.  This
module pins down the contract between the coordinators
(:class:`repro.sampling.sharded.ShardedSampler`, one per pool) and the
fleet they share:

* a coordinator registers ``(graph, stream)`` on a started fleet and
  names that registration in each batch of *global stream indices*;
* the backend alone decides which worker computes which set: it cuts
  the batch into contiguous runs over its live workers
  (:func:`split_runs`) and returns one block per run, in batch order;
* each worker holds one graph per registered snapshot and one plain
  :class:`~repro.sampling.base.RRSampler` per registration, built from
  the stream's seed material (``entropy`` + ``spawn_key``), and computes
  any run it is handed via
  :meth:`~repro.sampling.base.RRSampler.sample_block` — counter-based
  draws (:mod:`repro.sampling.seedstream`) make set ``g`` a pure
  function of ``(seed, g, graph)``, its root included.

Workers therefore carry **no stream state**: any worker can compute any
set, and the fleet can be resized mid-stream
(:meth:`ExecutionBackend.resize`) without changing a byte.  A backend
swap (serial ↔ thread ↔ process ↔ network) cannot change the stream
either, and a graph mutation is a new registration on the same fleet.

Out-of-process fleets (process, network) share one dispatch-and-retry
loop, :class:`WorkerFleet`: it sends every run, drains every reply,
resends the runs of workers whose transport failed (the fleet heals
them, replaying the registry), and raises a worker's application error
only once every reply is drained.  ``tests/sampling/test_backends.py``
and ``tests/sampling/test_elastic.py`` enforce all of this.
"""

from __future__ import annotations

import abc
import itertools
import os
import sys
import threading
from dataclasses import dataclass

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


@dataclass(frozen=True)
class StreamSpec:
    """One RR stream a fleet serves, minus its graph: the seed material
    every set key derives from, the root distribution (``None`` =
    uniform; it must pickle) and the hop horizon."""

    model: DiffusionModel
    entropy: int = 0
    spawn_key: tuple = ()
    roots: object | None = None
    max_hops: int | None = None


class ExecutionBackend(abc.ABC):
    """Lifecycle, registration and fan-out contract of every backend.

    Usage::

        backend = make_backend("process")
        backend.start(4)               # stand up the workers
        reg = backend.register(graph, stream)
        runs = backend.sample_shards(reg, indices)
        backend.resize(16)             # elastic: stream is unchanged
        backend.release(reg)           # the snapshot goes with its last one
        backend.close()                # tear down workers, free resources

    One fleet-wide lock serializes all of these.
    """

    #: registry key / CLI name, overridden by each implementation.
    name = "abstract"

    def __init__(self) -> None:
        self._fleet_lock = threading.RLock()
        self._workers = 0  # 0 until started
        self._closed = False
        self._graphs: dict[int, CSRGraph] = {}  # snapshot -> graph
        self._streams: dict[int, tuple[int, StreamSpec]] = {}  # registration -> (snapshot, stream)
        self._samplers: dict[int, list] = {}  # registration -> in-process samplers
        self._ids = itertools.count(1)
        #: workers replaced after a crash (fault-tolerant backends bump
        #: this; serial/thread have nothing to respawn and keep it 0).
        self.respawns = 0
        #: crash context retained from faults that were retried instead of
        #: raised (each entry is one worker-failure description).
        self.fault_log: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, workers: int) -> None:
        """Stand up a fleet of ``workers`` (idempotence not allowed)."""
        workers = int(workers)
        with self._fleet_lock:
            if self._workers:
                raise SamplingError(f"{type(self).__name__} already started")
            if workers < 1:
                raise SamplingError(f"need at least one worker, got {workers}")
            self._closed = False
            self._start(workers)
            # Only a fully stood-up fleet counts as started: a _start that
            # raises leaves the backend restartable instead of wedged.
            self._workers = workers

    def close(self) -> None:
        """Tear down workers and release resources (idempotent).

        Marked closed only after teardown succeeds, so a failed teardown
        can be retried (by the caller or the ``__del__`` safety net)
        instead of silently leaking workers or shared-memory segments.
        """
        with self._fleet_lock:
            if self._closed:
                return
            if self._workers:
                # A never-started fleet (or one whose _start raised) has no
                # fleet to tear down, and _close() hooks are entitled to a
                # stood-up fleet.
                self._close()
            self._streams.clear()
            self._graphs.clear()
            self._samplers.clear()
            self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def workers(self) -> int:
        """Fleet size (0 before :meth:`start`)."""
        with self._fleet_lock:
            return self._workers

    @property
    def started(self) -> bool:
        with self._fleet_lock:
            return bool(self._workers) and not self._closed

    def _check_running(self) -> None:
        if not self.started:
            raise SamplingError(f"{type(self).__name__} is not running (start it first)")

    def resize(self, workers: int) -> None:
        """Grow or shrink the fleet mid-stream.

        Seed-pure streams make this safe by construction: workers hold
        no stream state, so the only effect is throughput.
        """
        workers = int(workers)
        with self._fleet_lock:
            self._check_running()
            if workers < 1:
                raise SamplingError(f"need at least one worker, got {workers}")
            if workers != self._workers:
                self._resize(workers)
                self._workers = workers

    # ------------------------------------------------------------------
    # Registrations
    # ------------------------------------------------------------------
    def register(self, graph: CSRGraph, stream: StreamSpec) -> int:
        """Serve ``stream`` on ``graph`` (one snapshot per graph object)."""
        with self._fleet_lock:
            self._check_running()
            snapshot = next((s for s, g in self._graphs.items() if g is graph), None)
            if snapshot is None:
                snapshot = next(self._ids)
                self._graphs[snapshot] = graph
            registration = next(self._ids)
            self._streams[registration] = (snapshot, stream)
            try:
                self._registry_changed()
            except BaseException:
                self.release(registration)
                raise
            return registration

    def release(self, registration: int) -> None:
        """Drop one registration (idempotent), and its snapshot with the
        last registration on it."""
        with self._fleet_lock:
            if registration not in self._streams:
                return
            snapshot, _stream = self._streams.pop(registration)
            if all(s != snapshot for s, _ in self._streams.values()):
                del self._graphs[snapshot]
            self._samplers.pop(registration, None)
            self._registry_changed()

    def _local_samplers_locked(self, registration: int, count: int) -> list:
        """``count`` in-process samplers for one registration, built on
        first use (each worker of a thread fleet owns one)."""
        samplers = self._samplers.setdefault(registration, [])
        snapshot, stream = self._streams[registration]
        while len(samplers) < count:
            samplers.append(build_worker_sampler(self._graphs[snapshot], stream))
        return samplers[:count]

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def sample_shards(self, registration: int, indices, roots=None) -> list[RRBlock]:
        """Sample one registration's RR sets for a batch of global indices.

        The backend cuts the batch into contiguous runs, one per worker
        it engages, and returns one block per run in batch order:
        concatenated, the blocks hold the RR set of ``indices[i]`` at
        position ``i``.  ``roots`` optionally pins roots (aligned with
        ``indices``; a negative entry means "draw from the set's own
        key"); ``None`` — the normal case — draws every root from its
        set's key.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if roots is not None:
            roots = np.asarray(roots, dtype=np.int64)
            if roots.shape != indices.shape:
                raise SamplingError("roots must align with indices")
        with self._fleet_lock:
            self._check_running()
            if registration not in self._streams:
                raise SamplingError(f"unknown stream registration {registration!r}")
            return self._sample_shards(registration, indices, roots)

    # ------------------------------------------------------------------
    # Implementation hooks (called with the fleet lock held; a fleet with
    # nothing to stand up, resize or tear down keeps the no-op defaults)
    # ------------------------------------------------------------------
    def _start(self, workers: int) -> None:
        """Backend-specific fleet startup."""

    def _resize(self, workers: int) -> None:
        """Backend-specific fleet resize; called only while started and
        only for an actual size change."""

    def _registry_changed(self) -> None:
        """Follow a registration or release (in-process fleets build
        their samplers on first use)."""

    @abc.abstractmethod
    def _sample_shards(
        self, registration: int, indices: np.ndarray, roots: "np.ndarray | None"
    ) -> list[RRBlock]:
        """Backend-specific fan-out of an int64 batch."""

    def _close(self) -> None:
        """Backend-specific teardown; called at most once."""


class WorkerLost(Exception):
    """A worker's transport failed mid-call: the fleet heals the worker
    and resends its run (seed-pure sets make the resend byte-identical)."""


class WorkerFailed(Exception):
    """A worker's reply reported an application error, which would recur
    on any worker: the call raises it once every reply is drained."""


class WorkerFleet(ExecutionBackend):
    """The registry sync and dispatch-and-retry loop of the
    out-of-process fleets, whose workers run :func:`serve_frames`;
    subclasses own the transport through the hooks below."""

    def _registry_changed(self) -> None:
        """Send the change to every live worker, then free the transport
        copies of snapshots no registration names any more."""
        for worker in self._live_workers(wait=False):
            try:
                self._sync(worker)
            except WorkerLost as exc:
                self._lose(worker, str(exc))
        for snapshot in [s for s in self._payloads if s not in self._graphs]:
            self._free(self._payloads.pop(snapshot))

    def _sync(self, worker) -> None:
        """Bring one worker's streams in line with the registry; a fresh
        (respawned or joining) worker is replayed all of them."""
        held = self._held(worker)  # registration -> snapshot
        for registration in [r for r in held if r not in self._streams]:
            self._send(worker, ("drop", registration))
            del held[registration]
        for registration, (snapshot, stream) in self._streams.items():
            if registration not in held:
                payload = None if snapshot in held.values() else self._graph_frame(worker, snapshot)
                self._send(worker, ("stream", registration, snapshot, payload, stream))
                held[registration] = snapshot

    def _sample_shards(
        self, registration: int, indices: np.ndarray, roots: "np.ndarray | None"
    ) -> list[RRBlock]:
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
                    self._sync(worker)
                    run_roots = None if roots is None else roots[lo:hi]
                    self._dispatch(worker, registration, indices[lo:hi], run_roots)
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
    def _live_workers(self, wait: bool = True) -> list:
        """The workers to engage this round (at least one), after healing
        any the fleet lost; ``wait=False``: those up now (maybe none)."""

    @abc.abstractmethod
    def _held(self, worker) -> dict:
        """``worker``'s registrations, mapped to their snapshots (mutable)."""

    @abc.abstractmethod
    def _send(self, worker, message: tuple) -> None:
        """Send one frame; raise :class:`WorkerLost` if the worker is gone."""

    @abc.abstractmethod
    def _graph_frame(self, worker, snapshot: int):
        """What ``worker`` loads a snapshot from (cached in ``_payloads``)."""

    def _free(self, payload) -> None:
        """Release the transport copy of a snapshot nothing names."""

    @abc.abstractmethod
    def _dispatch(self, worker, registration: int, indices: np.ndarray, roots) -> None:
        """Send one run to ``worker``; raise :class:`WorkerLost` if it is gone."""

    @abc.abstractmethod
    def _collect(self, worker) -> RRBlock:
        """``worker``'s block for its run; raise :class:`WorkerLost` if
        the worker died, :class:`WorkerFailed` for an application error."""

    @abc.abstractmethod
    def _lose(self, worker, why: str) -> None:
        """Retire or replace a worker whose transport failed, and record
        its crash context (:meth:`_record_fault`)."""


def serve_frames(recv, send, load, unload, pause=None) -> None:
    """The frame loop of every out-of-process worker, until a close frame.

    A ``stream`` frame registers a stream, its snapshot's payload riding
    the first stream on it (``load`` makes a ``(graph, handle)`` pair); a
    ``drop`` frame releases one, and ``unload``s its snapshot with the
    last.  A failed ``sample`` is answered, any other failure is fatal.
    """
    graphs, samplers = {}, {}  # snapshot -> (graph, handle); registration -> (snapshot, sampler)
    try:
        while True:
            message = recv()
            kind = message[0]
            if kind == "sample":
                _, tag, registration, indices, roots = message
                try:
                    block = run_worker_batch(samplers[registration][1], indices, roots)
                    send(("result", tag, block.flat, block.offsets))
                except Exception as exc:  # surface worker faults, keep serving
                    send(("error", tag, f"{type(exc).__name__}: {exc}"))
            elif kind == "stream":
                _, registration, snapshot, payload, stream = message
                if payload is not None:
                    graphs[snapshot] = load(payload)
                samplers[registration] = snapshot, build_worker_sampler(graphs[snapshot][0], stream)
            elif kind == "drop":
                snapshot = samplers.pop(message[1])[0]
                if all(s != snapshot for s, _ in samplers.values()):
                    unload(graphs.pop(snapshot)[1])  # the graph's views go first
            elif kind == "abort":
                # Fault injection for crash tests: die hard, leaving only
                # stderr behind (no protocol goodbye) — like a real crash.
                print(message[1], file=sys.stderr, flush=True)
                os._exit(70)
            elif kind == "pause_heartbeat" and pause is not None:
                pause()  # fault injection for lease-expiry tests
            elif kind == "close":
                return
            # anything else: ignore (forward-compatible)
    finally:
        samplers.clear()
        while graphs:
            unload(graphs.popitem()[1][1])


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


def build_worker_sampler(graph: CSRGraph, stream: StreamSpec):
    """Construct one worker's sampler for a stream on a graph.

    Workers are interchangeable (no per-worker stream state), so there
    is no worker id: every backend builds samplers from the same seed
    material and byte-identical per-set derivation follows.
    """
    from repro.sampling.base import make_sampler

    return make_sampler(
        graph,
        stream.model,
        np.random.SeedSequence(entropy=stream.entropy, spawn_key=stream.spawn_key),
        roots=stream.roots,
        max_hops=stream.max_hops,
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
