"""Serial execution backend — one in-process sampler, no transport.

This is the default and the reference implementation.  Seed-pure streams
make workers stateless, so the "fleet" is a single plain sampler that
computes each index batch in one call, whatever the nominal worker
count; resizing is free.  It carries zero startup or transport cost, so
it is what a sampling context with no backend named runs at one worker.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.backends.base import (
    ExecutionBackend,
    WorkerSpec,
    build_worker_sampler,
    run_worker_batch,
)
from repro.sampling.block import RRBlock


class SerialBackend(ExecutionBackend):
    """Compute each index batch in one call on the calling thread."""

    name = "serial"

    def _start(self, spec: WorkerSpec) -> None:
        # One sampler serves every batch: workers hold no stream state,
        # so distinct sampler objects would be pure overhead here.
        self._sampler = build_worker_sampler(spec)

    def _resize(self, workers: int) -> None:
        pass  # fleet size is bookkeeping only; the sampler is shared

    def _sample_shards(self, indices: np.ndarray, roots: "np.ndarray | None") -> list[RRBlock]:
        return [run_worker_batch(self._sampler, indices, roots)]

    def _close(self) -> None:
        self._sampler = None
