"""Thread-pool execution backend.

One long-lived :class:`~concurrent.futures.ThreadPoolExecutor` runs
each worker's contiguous run of the index batch as a task.  Each worker
owns a private sampler object (its running coin mean must not be shared
across concurrent tasks), but samplers carry no stream state — every
draw derives from the set's global index — so results are
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

from repro.sampling.backends.base import (
    ExecutionBackend,
    WorkerSpec,
    build_worker_sampler,
    run_worker_batch,
    split_runs,
)
from repro.sampling.block import RRBlock


class ThreadBackend(ExecutionBackend):
    """Run each worker's run of the batch concurrently on a persistent
    thread pool."""

    name = "thread"

    def __init__(self) -> None:
        super().__init__()
        self._pool: ThreadPoolExecutor | None = None
        self._samplers: list = []

    def _start(self, spec: WorkerSpec) -> None:
        self._samplers = [build_worker_sampler(spec) for _ in range(spec.workers)]
        self._pool = ThreadPoolExecutor(
            max_workers=spec.workers, thread_name_prefix="rr-worker"
        )

    def _resize(self, workers: int) -> None:
        # Workers are stateless; grow or shrink the sampler list and
        # swap the executor so the pool width tracks the fleet.
        if workers > len(self._samplers):
            self._samplers.extend(
                build_worker_sampler(self._spec)
                for _ in range(workers - len(self._samplers))
            )
        else:
            del self._samplers[workers:]
        old = self._pool
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="rr-worker"
        )
        if old is not None:
            old.shutdown(wait=True)

    def _sample_shards(self, indices: np.ndarray, roots: "np.ndarray | None") -> list[RRBlock]:
        futures = [
            self._pool.submit(
                run_worker_batch,
                sampler,
                indices[lo:hi],
                None if roots is None else roots[lo:hi],
            )
            for sampler, (lo, hi) in zip(
                self._samplers, split_runs(indices.size, len(self._samplers))
            )
        ]
        return [future.result() for future in futures]

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._samplers = []
