"""Property test: the backend alone splits an index batch, and the split
never shows in the bytes.

``ExecutionBackend.sample_shards`` takes a whole batch of global set
indices and returns one block per contiguous run it cut the batch into.
For any batch — unsorted, with gaps and repeats — and any pinned roots
(a negative entry draws the set's own root), the runs concatenated must
equal the per-set reference of the same indices, on every backend and
fleet size, and the runs must be balanced to within one set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import assign_weighted_cascade, powerlaw_configuration
from repro.sampling.base import make_sampler
from repro.sampling.block import RRBlock
from repro.sampling.kernels import reference_block
from repro.sampling.sharded import ShardedSampler

SEED = 2016
N = 120
WORKERS = (1, 2, 3)
BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def graph():
    return assign_weighted_cascade(powerlaw_configuration(N, 4.0, seed=42))


@pytest.fixture(scope="module")
def fleets(graph):
    """One started fleet per (backend, workers), shared by every example."""
    started = {}
    try:
        for backend in BACKENDS:
            for workers in WORKERS:
                started[backend, workers] = ShardedSampler(
                    graph, "IC", workers, seed=SEED, backend=backend
                )
        yield started
    finally:
        for sampler in started.values():
            sampler.close()


batches = st.lists(st.integers(min_value=0, max_value=50_000), min_size=1, max_size=40)


@settings(max_examples=30, deadline=None)
@given(batches, st.data())
def test_runs_concatenate_to_the_reference_and_balance(graph, fleets, indices, data):
    pinned = data.draw(
        st.none()
        | st.lists(
            st.integers(min_value=-3, max_value=N - 1),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    want = reference_block(make_sampler(graph, "IC", SEED), indices, pinned)
    for (backend, workers), sampler in fleets.items():
        runs = sampler.backend.sample_shards(sampler.registration, indices, pinned)
        sizes = [len(run) for run in runs]
        expected_runs = 1 if backend == "serial" else min(workers, len(indices))
        assert len(runs) == expected_runs, (backend, workers)
        assert max(sizes) - min(sizes) <= 1, (backend, workers, sizes)
        got = RRBlock.concat(runs)
        assert got.flat.tobytes() == want.flat.tobytes(), (backend, workers)
        assert got.offsets.tobytes() == want.offsets.tobytes(), (backend, workers)
