"""Thread-pool execution backend.

One long-lived :class:`~concurrent.futures.ThreadPoolExecutor` runs
each worker's contiguous run of the index batch as a task.  Each worker
owns a private sampler object per stream (its running coin mean must
not be shared across concurrent tasks), but samplers carry no stream
state — every draw derives from the set's global index — so results are
byte-identical to :class:`~repro.sampling.backends.serial.SerialBackend`
at any fleet size: threads change *when* a set is computed, never
*what* it computes.

CPython's GIL limits the speedup to the fraction of sampling spent in
GIL-releasing numpy kernels, but the backend exercises the exact fan-out
/ merge topology of the process backend with none of its transport cost,
which makes it the right default for moderate graphs and the reference
for equivalence tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.sampling.backends.base import ExecutionBackend, run_worker_batch, split_runs
from repro.sampling.block import RRBlock


class ThreadBackend(ExecutionBackend):
    """Run each worker's run of the batch concurrently on a persistent
    thread pool."""

    name = "thread"

    def __init__(self) -> None:
        super().__init__()
        self._pool: ThreadPoolExecutor | None = None

    def _start(self, workers: int) -> None:
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="rr-worker")

    def _resize(self, workers: int) -> None:
        # Workers are stateless; swap the executor so the pool width
        # tracks the fleet (each stream's samplers grow on demand).
        old = self._pool
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="rr-worker")
        if old is not None:
            old.shutdown(wait=True)

    def _sample_shards(self, registration, indices: np.ndarray, roots) -> list[RRBlock]:
        samplers = self._local_samplers_locked(registration, self._workers)
        futures = [
            self._pool.submit(
                run_worker_batch,
                sampler,
                indices[lo:hi],
                None if roots is None else roots[lo:hi],
            )
            for sampler, (lo, hi) in zip(samplers, split_runs(indices.size, len(samplers)))
        ]
        return [future.result() for future in futures]

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
