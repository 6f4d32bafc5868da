"""Property tests for the flat RR block and the pool that stores blocks.

An RR batch is one int32 ``flat`` array plus int64 ``offsets`` from the
kernel to the pool.  Whatever per-set lists go in, packing,
concatenating, gathering, slicing, iterating and indexing must give them
back; a pool fed the same sets in any chunking — blocks or plain lists —
must hold the same bytes, index and snapshots as one fed set by set; a
snapshot's sets must survive later appends, truncations and repairs;
and every backend's batch must be one block, byte-equal to the per-set
reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.base import make_sampler
from repro.sampling.block import RRBlock
from repro.sampling.kernels import reference_block
from repro.sampling.rr_collection import RRCollection
from repro.sampling.sharded import make_parallel_sampler
from tests.oracles import reference_node_index

N = 12
SEED = 2016

members = st.lists(st.integers(min_value=0, max_value=N - 1), max_size=5, unique=True)
set_lists = st.lists(members, max_size=12)

pool_writes = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.tuples(set_lists, st.booleans())),
        st.tuples(st.just("snapshot"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(
            st.just("replace_many"),
            st.lists(
                st.tuples(st.floats(min_value=0.0, max_value=0.999), members),
                min_size=1,
                max_size=3,
            ),
        ),
    ),
    min_size=1,
    max_size=16,
)


def _check_block(block, sets):
    """``block`` is a well-formed block holding exactly ``sets``."""
    assert block.flat.dtype == np.int32 and block.offsets.dtype == np.int64
    assert block.offsets[0] == 0 and block.offsets[-1] == block.flat.size
    assert len(block) == len(sets)
    assert [rr.tolist() for rr in block] == sets
    assert [block[i].tolist() for i in range(len(sets))] == sets
    assert [block[i - len(sets)].tolist() for i in range(len(sets))] == sets


@given(set_lists, st.lists(st.integers(0, 12), max_size=5), st.data())
@settings(max_examples=150, deadline=None)
def test_block_operations_equal_the_lists(sets, cuts, data):
    _check_block(RRBlock.pack(sets), sets)
    block = RRBlock.pack([np.asarray(s, dtype=np.int64) for s in sets])
    _check_block(block, sets)
    assert RRBlock.pack(block) is block

    bounds = sorted({0, len(sets), *(min(c, len(sets)) for c in cuts)})
    pieces = [RRBlock.pack(sets[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    _check_block(RRBlock.concat(pieces + [RRBlock.pack([])]), sets)

    positions = data.draw(st.lists(st.integers(0, len(sets) - 1), max_size=15)) if sets else []
    _check_block(block.take(positions), [sets[p] for p in positions])

    lo = data.draw(st.integers(-len(sets) - 1, len(sets) + 1))
    hi = data.draw(st.integers(-len(sets) - 1, len(sets) + 1))
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    _check_block(block[lo:hi:step], sets[lo:hi:step])
    with pytest.raises(IndexError):
        block[len(sets)]


@given(
    set_lists,
    st.lists(st.tuples(st.integers(1, 5), st.booleans()), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_chunked_pool_equals_set_by_set(sets, chunking):
    one_by_one = RRCollection(N)
    for s in sets:
        one_by_one.extend([np.asarray(s, dtype=np.int32)])

    chunked = RRCollection(N)
    snapshots = []  # (snapshot, its end), each taken after a chunk lands
    start = 0
    for width, as_block in chunking + [(len(sets) + 1, True)]:
        chunk = [np.asarray(s, dtype=np.int32) for s in sets[start : start + width]]
        chunked.extend(RRBlock.pack(chunk) if as_block else chunk)
        start += len(chunk)
        snapshots.append((chunked.snapshot(), start))
        if start == len(sets):
            break

    assert len(chunked) == len(one_by_one) == len(sets)
    assert chunked.total_entries == one_by_one.total_entries
    assert chunked.nbytes == one_by_one.nbytes
    for lo, hi in ((0, len(sets)), (len(sets) // 3, len(sets)), (0, len(sets) // 2)):
        for a, b in zip(chunked.flat_view(lo, hi), one_by_one.flat_view(lo, hi)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert chunked.memory_bytes(start=lo, end=hi) == one_by_one.memory_bytes(start=lo, end=hi)
    want = reference_node_index(one_by_one)
    for got in (chunked.node_index(), one_by_one.node_index()):
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    # Snapshots taken between chunks still read their own prefix, after
    # every later chunk has been written into the pool's buffers.
    for snap, end in snapshots:
        want = one_by_one.snapshot(end)
        assert len(snap) == end and snap.nbytes == want.nbytes
        for a, b in zip(snap.flat_view(), want.flat_view()):
            assert a.tolist() == b.tolist()
        assert snap.memory_bytes() == want.memory_bytes()
        assert snap.coverage(range(N)) == want.coverage(range(N))


@given(pool_writes)
@settings(max_examples=200, deadline=None)
def test_snapshots_keep_their_sets_across_writes(ops):
    """Appends write past every snapshot's length, and truncation and
    repair write fresh arrays: a snapshot's sets never change."""
    pool = RRCollection(N)
    mirror: list[list[int]] = []
    snapshots = []  # (snapshot, the sets it was taken over)
    for op, arg in ops:
        if op == "extend":
            sets, as_block = arg
            chunk = [np.asarray(s, dtype=np.int32) for s in sets]
            pool.extend(RRBlock.pack(chunk) if as_block else chunk)
            mirror.extend(sets)
        elif op == "snapshot":
            end = int(arg * len(mirror))
            snapshots.append((pool.snapshot(end), mirror[:end]))
        elif op == "truncate":
            keep = int(arg * len(mirror))
            pool.truncate(keep)
            del mirror[keep:]
        elif mirror:  # replace_many needs a set to replace
            updates = {int(frac * len(mirror)): s for frac, s in arg}
            pool.replace_many({i: np.asarray(s, dtype=np.int32) for i, s in updates.items()})
            for i, s in updates.items():
                mirror[i] = s
        assert [rr.tolist() for rr in pool.block] == mirror
        for snap, sets in snapshots:
            assert [rr.tolist() for rr in snap.block] == sets


@pytest.mark.parametrize("model", ["IC", "LT"])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_backend_batches_are_one_block_equal_to_the_reference(small_wc_graph, model, backend):
    """Every backend hands back one block — a single int32 ``flat`` —
    byte-equal to the per-set reference of the same stream indices."""
    sampler = make_parallel_sampler(small_wc_graph, model, SEED, backend=backend, workers=2)
    try:
        sampler.sample_batch(7)  # an offset batch: indices 7..66
        batch = sampler.sample_batch(60)
    finally:
        sampler.close()
    want = reference_block(make_sampler(small_wc_graph, model, SEED), np.arange(7, 67))
    assert isinstance(batch, RRBlock)
    assert batch.flat.dtype == np.int32 and batch.offsets.dtype == np.int64
    assert batch.flat.tobytes() == want.flat.tobytes()
    assert batch.offsets.tobytes() == want.offsets.tobytes()
