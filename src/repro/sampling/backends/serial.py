"""Serial execution backend — workers run one after another, in-process.

This is the default and the reference implementation.  Seed-pure streams
make workers stateless, so the "fleet" is a single plain sampler that
computes every shard's batch in worker order; resizing is free.  It
carries zero startup or transport cost, so it is what a sampling
context with no backend named runs at one worker.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sampling.backends.base import (
    ExecutionBackend,
    WorkerSpec,
    build_worker_sampler,
    run_worker_batch,
)
from repro.sampling.block import RRBlock


class SerialBackend(ExecutionBackend):
    """Run every worker's batch sequentially on the calling thread."""

    name = "serial"

    def _start(self, spec: WorkerSpec) -> None:
        # One sampler serves every shard: workers hold no stream state,
        # so distinct sampler objects would be pure overhead here.
        self._sampler = build_worker_sampler(spec)

    def _resize(self, workers: int) -> None:
        pass  # fleet size is bookkeeping only; the sampler is shared

    def _sample_shards(
        self,
        index_batches: Sequence[np.ndarray],
        root_batches: "Sequence[np.ndarray | None] | None",
    ) -> list[RRBlock]:
        return [
            run_worker_batch(
                self._sampler,
                batch,
                None if root_batches is None else root_batches[w],
            )
            for w, batch in enumerate(index_batches)
        ]

    def _close(self) -> None:
        self._sampler = None
