"""Multi-process execution backend over shared-memory CSR graphs.

This is the real distributed topology the paper names as future work,
scaled down to one machine:

* **registration** — W persistent worker processes start empty; each
  registered graph snapshot is laid out once in a POSIX shared-memory
  segment (:func:`repro.graph.shm.share_csr_graph`), which every worker
  attaches zero-copy as a validated :class:`CSRGraph` view, and each
  registered stream is one small frame the workers build a sampler
  from — no per-worker stream state, so any worker can compute any set.
  A segment is unlinked with the last registration on its snapshot;
* **steady state** — the only traffic per fan-out is one contiguous
  run of global set indices down each worker's pipe and one RR block's
  ``(flat, offsets)`` arrays back up.  The graph never crosses a pipe;
* **elasticity** — :meth:`ProcessBackend.resize` spawns extra workers
  or retires surplus ones; the stream is seed-pure, so a resize is
  byte-invisible;
* **teardown** — workers get the close frame, detach, and exit; the
  coordinator joins them, then closes *and unlinks* every segment.

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
segments, and resends the lost run byte-identically (:attr:`respawns`
counts replacements).  Only a crash loop that exhausts the retry budget
— or a worker *reply* reporting an application error, which would recur
deterministically — raises :class:`~repro.exceptions.SamplingError`, and
the raised error carries the most recent crash context.

The default start method is ``spawn``: it is portable, and it proves the
architecture (a spawned child shares no memory with its parent, so the
graph really does arrive via the segment — the same property a network
transport needs).  Pass ``start_method="fork"`` to trade that isolation
for faster startup on POSIX.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import tempfile

from repro.graph.shm import attach_csr_graph, close_segment, share_csr_graph
from repro.sampling.backends.base import (
    WorkerFailed,
    WorkerFleet,
    WorkerLost,
    remove_file,
    serve_frames,
)
from repro.sampling.block import RRBlock

_JOIN_TIMEOUT = 5.0


def _worker_main(conn, worker_id: int, stderr_path: str | None) -> None:
    """Worker process entry point: serve frames until the close frame.

    A snapshot's payload is a :class:`~repro.graph.shm.SharedCSRSpec`
    (the graph travels via shared memory, not pickle), so worker
    construction is the same code path as the in-process backends.
    """
    if stderr_path is not None:
        # Everything the worker (or a crashing libc/numpy) writes to fd 2
        # lands in the coordinator's scratch file, so worker death comes
        # with a stderr tail attached to the coordinator's exception.
        err_file = open(stderr_path, "a", buffering=1)
        os.dup2(err_file.fileno(), 2)
        sys.stderr = err_file
    try:
        serve_frames(conn.recv, conn.send, attach_csr_graph, close_segment)
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ProcessBackend(WorkerFleet):
    """Persistent ``multiprocessing`` worker pool fed over pipes."""

    name = "process"

    def __init__(self, *, start_method: str | None = None) -> None:
        super().__init__()
        self._start_method = start_method or "spawn"
        self._payloads: dict = {}  # snapshot -> (SharedMemory, SharedCSRSpec)
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list = []
        self._stderr_paths: list[str] = []
        self._batches_dispatched: list[int] = []
        self._holdings: list[dict] = []  # per worker: registration -> snapshot

    def _build_worker(self, worker_id: int):
        """Spawn one empty worker process."""
        ctx = mp.get_context(self._start_method)
        handle = tempfile.NamedTemporaryFile(
            prefix=f"rr-worker-{worker_id}-", suffix=".stderr", delete=False
        )
        handle.close()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, handle.name),
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
        self._holdings.append({})

    def _respawn_worker(self, worker_id: int) -> None:
        """Quarantine a dead worker and stand a replacement up in its slot.

        The shared-memory segments outlive any individual worker, so the
        replacement attaches them exactly as the original fleet did;
        seed-pure per-set derivation means re-dispatching the lost
        indices to it is byte-identical to the crash-free run.
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
        self._holdings[worker_id] = {}
        self.respawns += 1

    def _start(self, workers: int) -> None:
        try:
            for worker_id in range(workers):
                self._spawn_worker(worker_id)
        except Exception:
            self._teardown()
            raise

    def _resize(self, workers: int) -> None:
        for worker_id in range(len(self._procs), workers):
            self._spawn_worker(worker_id)
        self._retire(workers)

    def _retire(self, keep: int) -> None:
        """Stop the workers in slots ``[keep, W)`` and release their files."""
        for conn in self._conns[keep:]:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs[keep:]:
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT)
        for conn, path in zip(self._conns[keep:], self._stderr_paths[keep:]):
            conn.close()
            remove_file(path)
        for slots in (
            self._procs, self._conns, self._stderr_paths, self._batches_dispatched, self._holdings
        ):
            del slots[keep:]

    # ------------------------------------------------------------------
    # Registry transport and fan-out (the loops are WorkerFleet's)
    # ------------------------------------------------------------------
    def _live_workers(self, wait: bool = True) -> range:
        return range(len(self._procs))

    def _held(self, worker_id: int) -> dict:
        return self._holdings[worker_id]

    def _send(self, worker_id: int, message: tuple) -> None:
        try:
            self._conns[worker_id].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerLost(f"is gone: {exc}") from exc

    def _graph_frame(self, worker_id: int, snapshot: int):
        if snapshot not in self._payloads:
            self._payloads[snapshot] = share_csr_graph(self._graphs[snapshot])
        return self._payloads[snapshot][1]

    def _free(self, payload) -> None:
        close_segment(payload[0], unlink=True)

    def _dispatch(self, worker_id: int, registration: int, indices, roots) -> None:
        self._send(worker_id, ("sample", None, registration, indices, roots))
        self._batches_dispatched[worker_id] += 1

    def _collect(self, worker_id: int) -> RRBlock:
        try:
            reply = self._conns[worker_id].recv()
        except (EOFError, OSError) as exc:
            raise WorkerLost(f"died mid-batch: {exc}") from exc
        if reply[0] != "result":
            raise WorkerFailed(f"worker {worker_id} failed: {reply[2]}")
        return RRBlock(reply[2], reply[3])

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
        self._retire(0)
        for payload in self._payloads.values():
            self._free(payload)
        self._payloads = {}

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
