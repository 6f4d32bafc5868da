"""Multi-process execution backend over shared-memory CSR graphs.

This is the real distributed topology the paper names as future work,
scaled down to one machine:

* **startup** — the coordinator lays the CSR graph out in a POSIX
  shared-memory segment (:func:`repro.graph.shm.share_csr_graph`) and
  spawns W persistent worker processes.  Each worker attaches the
  segment zero-copy, rebuilds a validated :class:`CSRGraph` view, and
  constructs its sampler from the stream's seed material — workers hold
  no per-worker stream state, so any worker can compute any set;
* **steady state** — the only traffic per fan-out is one contiguous
  run of global set indices down each worker's pipe and one RR block's
  ``(flat, offsets)`` arrays back up.  The graph never crosses a pipe
  again;
* **elasticity** — :meth:`ProcessBackend.resize` spawns extra workers
  against the existing segment or retires surplus ones; the stream is
  seed-pure, so a resize is byte-invisible;
* **teardown** — workers get a ``None`` sentinel, detach, and exit; the
  coordinator joins them, then closes *and unlinks* the segment.

Each fan-out cuts the index batch into one contiguous run per worker
and runs the dispatch-and-retry loop the network fleet shares
(:class:`~repro.sampling.backends.base.WorkerFleet`).  Each worker's
stderr is redirected to a scratch file the coordinator keeps; when a
worker dies its crash context — worker id, pid, exit code, how many
batches it had been dispatched, and the tail of its stderr — is
recorded in :attr:`ProcessBackend.fault_log`.  A crash is **not** a
user-facing failure: because every RR set is a pure function of its
global stream index, the coordinator quarantines the dead worker,
respawns a replacement in its slot against the live shared-memory
segment, and resends the lost run byte-identically (:attr:`respawns`
counts replacements).  Only a crash loop that exhausts the retry budget
— or a worker *reply* reporting an application error, which would recur
deterministically — raises :class:`~repro.exceptions.SamplingError`, and
the raised error carries the most recent crash context.

The default start method is ``spawn``: it is portable, and it proves the
architecture (a spawned child shares no memory with its parent, so the
graph really does arrive via the segment — the same property a future
network transport needs).  Pass ``start_method="fork"`` to trade that
isolation for faster startup on POSIX.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import tempfile
from dataclasses import replace

from repro.graph.shm import SharedCSRSpec, attach_csr_graph, close_segment, share_csr_graph
from repro.sampling.backends.base import (
    WorkerFailed,
    WorkerFleet,
    WorkerLost,
    WorkerSpec,
    build_worker_sampler,
    remove_file,
    run_worker_batch,
)
from repro.sampling.block import RRBlock

_JOIN_TIMEOUT = 5.0


def _worker_main(
    conn,
    graph_spec: SharedCSRSpec,
    worker_spec: WorkerSpec,
    worker_id: int,
    stderr_path: str | None,
) -> None:
    """Worker process entry point: attach graph, serve index batches.

    ``worker_spec.graph`` is ``None`` on the wire (the graph travels via
    shared memory, not pickle); everything else — model, seed material,
    root distribution, hop cap — rides the spec unchanged so worker
    construction is the same code path as the in-process backends.
    """
    if stderr_path is not None:
        # Everything the worker (or a crashing libc/numpy) writes to fd 2
        # lands in the coordinator's scratch file, so worker death comes
        # with a stderr tail attached to the coordinator's exception.
        err_file = open(stderr_path, "a", buffering=1)
        os.dup2(err_file.fileno(), 2)
        sys.stderr = err_file
    shm = None
    try:
        graph, shm = attach_csr_graph(graph_spec)
        sampler = build_worker_sampler(worker_spec, graph=graph)
        while True:
            message = conn.recv()
            if message is None:
                break
            try:
                if message[0] == "sample":
                    _, indices, roots = message
                    block = run_worker_batch(sampler, indices, roots)
                    conn.send(("ok", block.flat, block.offsets))
                elif message[0] == "abort":
                    # Fault injection for crash-context tests: die hard,
                    # leaving only stderr behind (no protocol reply).
                    print(message[1], file=sys.stderr, flush=True)
                    os._exit(70)
                else:
                    conn.send(("err", f"unknown message {message[0]!r}"))
            except Exception as exc:  # surface worker faults to the coordinator
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        # Drop the graph views before detaching so mmap can actually close.
        sampler = graph = None
        if shm is not None:
            close_segment(shm)
        conn.close()


class ProcessBackend(WorkerFleet):
    """Persistent ``multiprocessing`` worker pool fed over pipes."""

    name = "process"

    def __init__(self, *, start_method: str | None = None) -> None:
        super().__init__()
        self._start_method = start_method or "spawn"
        self._shm = None
        self._graph_spec: SharedCSRSpec | None = None
        self._wire_spec: WorkerSpec | None = None
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list = []
        self._stderr_paths: list[str] = []
        self._batches_dispatched: list[int] = []

    def _build_worker(self, worker_id: int):
        """Spawn one worker process attached to the live shm segment."""
        ctx = mp.get_context(self._start_method)
        handle = tempfile.NamedTemporaryFile(
            prefix=f"rr-worker-{worker_id}-", suffix=".stderr", delete=False
        )
        handle.close()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._graph_spec, self._wire_spec, worker_id, handle.name),
            name=f"rr-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn, handle.name

    def _spawn_worker(self, worker_id: int) -> None:
        proc, conn, stderr_path = self._build_worker(worker_id)
        self._procs.append(proc)
        self._conns.append(conn)
        self._stderr_paths.append(stderr_path)
        self._batches_dispatched.append(0)

    def _respawn_worker(self, worker_id: int) -> None:
        """Quarantine a dead worker and stand a replacement up in its slot.

        The shared-memory segment outlives any individual worker, so the
        replacement attaches exactly as the original fleet did; seed-pure
        per-set derivation means re-dispatching the lost indices to it is
        byte-identical to the crash-free run.
        """
        old = self._procs[worker_id]
        old.join(timeout=_JOIN_TIMEOUT)
        if old.is_alive():
            old.terminate()
            old.join(timeout=_JOIN_TIMEOUT)
        try:
            self._conns[worker_id].close()
        except OSError:
            pass
        remove_file(self._stderr_paths[worker_id])
        proc, conn, stderr_path = self._build_worker(worker_id)
        self._procs[worker_id] = proc
        self._conns[worker_id] = conn
        self._stderr_paths[worker_id] = stderr_path
        self._batches_dispatched[worker_id] = 0
        self.respawns += 1

    def _start(self, spec: WorkerSpec) -> None:
        self._shm, self._graph_spec = share_csr_graph(
            spec.graph, graph_version=spec.graph_version
        )
        # The graph is in the segment now; the pickled spec must not drag
        # a second copy of it through every worker's bootstrap.
        self._wire_spec = replace(spec, graph=None)
        try:
            for worker_id in range(spec.workers):
                self._spawn_worker(worker_id)
        except Exception:
            self._teardown()
            raise

    def _resize(self, workers: int) -> None:
        if workers > len(self._procs):
            # The shared-memory segment is already up; new workers attach
            # it exactly as the original fleet did.
            for worker_id in range(len(self._procs), workers):
                self._spawn_worker(worker_id)
            return
        # Retire the surplus: sentinel, join, release pipe + stderr file.
        for worker_id in range(workers, len(self._procs)):
            try:
                self._conns[worker_id].send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker_id in range(workers, len(self._procs)):
            proc = self._procs[worker_id]
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT)
            self._conns[worker_id].close()
            remove_file(self._stderr_paths[worker_id])
        del self._procs[workers:]
        del self._conns[workers:]
        del self._stderr_paths[workers:]
        del self._batches_dispatched[workers:]

    # ------------------------------------------------------------------
    # Fan-out transport (the loop is WorkerFleet's)
    # ------------------------------------------------------------------
    def _live_workers(self) -> range:
        return range(len(self._procs))

    def _dispatch(self, worker_id: int, indices, roots) -> None:
        try:
            self._conns[worker_id].send(("sample", indices, roots))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerLost(f"is gone: {exc}") from exc
        self._batches_dispatched[worker_id] += 1

    def _collect(self, worker_id: int) -> RRBlock:
        try:
            reply = self._conns[worker_id].recv()
        except (EOFError, OSError) as exc:
            raise WorkerLost(f"died mid-batch: {exc}") from exc
        if reply[0] != "ok":
            raise WorkerFailed(f"worker {worker_id} failed: {reply[1]}")
        return RRBlock(reply[1], reply[2])

    def _lose(self, worker_id: int, why: str) -> None:
        """Record the crash context, then respawn the slot: a dead pipe
        left in the fleet would wedge every later call."""
        proc = self._procs[worker_id]
        self._record_fault(
            f"worker {worker_id} (pid {proc.pid}, exitcode {proc.exitcode}) {why}; "
            f"batches dispatched to it: {self._batches_dispatched[worker_id]}",
            self._stderr_paths[worker_id],
        )
        self._respawn_worker(worker_id)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _close(self) -> None:
        self._teardown()

    def _teardown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT)
        for conn in self._conns:
            conn.close()
        for path in self._stderr_paths:
            remove_file(path)
        self._procs = []
        self._conns = []
        self._stderr_paths = []
        self._batches_dispatched = []
        if self._shm is not None:
            close_segment(self._shm, unlink=True)
            self._shm = None

    def __del__(self) -> None:
        # Safety net for abandoned backends; normal paths call close().
        try:
            self.close()
        except Exception:
            pass


def default_worker_count() -> int:
    """A sensible worker count for this machine (scheduler affinity aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)
