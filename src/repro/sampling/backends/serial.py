"""Serial execution backend — one in-process sampler per stream, no transport.

This is the default and the reference implementation.  Seed-pure streams
make workers stateless, so the "fleet" is one plain sampler per stream
that computes each index batch in one call, whatever the nominal worker
count, so starting, resizing and closing it are free.  It carries no
transport cost either, so it is what a fleet with no backend named runs
at one worker.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.backends.base import ExecutionBackend, run_worker_batch
from repro.sampling.block import RRBlock


class SerialBackend(ExecutionBackend):
    """Compute each index batch in one call on the calling thread."""

    name = "serial"

    def _sample_shards(self, registration, indices: np.ndarray, roots) -> list[RRBlock]:
        # One sampler per stream serves every batch: workers hold no
        # stream state, so distinct sampler objects would be pure overhead.
        (sampler,) = self._local_samplers_locked(registration, 1)
        return [run_worker_batch(sampler, indices, roots)]
