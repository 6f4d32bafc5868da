"""Property tests for the pool's incremental node→set index.

Whatever sequence of appends, snapshots, truncations and repairs a pool
goes through, its index must equal a from-scratch stable-argsort build,
and a snapshot must keep answering from the arrays it was handed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.max_coverage import max_coverage
from repro.sampling.rr_collection import RRCollection
from tests.oracles import reference_coverage, reference_max_coverage, reference_node_index

N = 12


def rr_sets(max_sets=6):
    member_lists = st.lists(
        st.integers(min_value=0, max_value=N - 1), min_size=0, max_size=5, unique=True
    )
    return st.lists(member_lists, min_size=0, max_size=max_sets)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), rr_sets()),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(
            st.just("replace_many"),
            st.lists(
                st.tuples(st.floats(min_value=0.0, max_value=0.999), rr_sets(1)),
                min_size=1,
                max_size=3,
            ),
        ),
    ),
    min_size=1,
    max_size=14,
)


def _reference_pool(sets):
    pool = RRCollection(N)
    pool.extend(np.asarray(s, dtype=np.int32) for s in sets)
    return pool


def _check_snapshot(snap, sets):
    """The snapshot answers exactly as a fresh pool of ``sets`` does."""
    reference = _reference_pool(sets)
    assert len(snap) == len(sets)
    for seeds in ([0], [3, 7], list(range(N))):
        for start, end in ((0, len(sets)), (len(sets) // 2, len(sets))):
            assert snap.coverage(seeds, start=start, end=end) == reference_coverage(
                reference, seeds, start=start, end=end
            )
    if sets:
        assert max_coverage(snap, 3) == reference_max_coverage(reference, 3)


@given(operations)
@settings(max_examples=120, deadline=None)
def test_index_equals_from_scratch_build(ops):
    pool = RRCollection(N)
    mirror: list[list[int]] = []
    snapshots = []  # (snapshot, the sets it was taken over)
    for op, arg in ops:
        if op == "extend":
            pool.extend(np.asarray(s, dtype=np.int32) for s in arg)
            mirror.extend(arg)
        elif op == "snapshot":
            snapshots.append((pool.snapshot(), list(mirror)))
        elif op == "truncate":
            keep = int(arg * len(mirror))
            pool.truncate(keep)
            del mirror[keep:]
        elif mirror:  # replace_many needs a set to replace
            updates = {int(frac * len(mirror)): (s[0] if s else []) for frac, s in arg}
            pool.replace_many({i: np.asarray(s, dtype=np.int32) for i, s in updates.items()})
            for i, s in updates.items():
                mirror[i] = s
        postings, node_ptr = pool.node_index()
        ref_postings, ref_ptr = reference_node_index(_reference_pool(mirror))
        assert postings.dtype == np.int32 and node_ptr.dtype == np.int64
        assert postings.tolist() == ref_postings.tolist()
        assert node_ptr.tolist() == ref_ptr.tolist()
    for snap, sets in snapshots:
        _check_snapshot(snap, sets)


@given(rr_sets(8), rr_sets(8), st.lists(st.tuples(st.integers(0, 7), rr_sets(1)), min_size=1))
@settings(max_examples=60, deadline=None)
def test_snapshot_before_repair_keeps_its_arrays(first, second, repairs):
    pool = RRCollection(N)
    pool.extend(np.asarray(s, dtype=np.int32) for s in first + second)
    sets = first + second
    if not sets:
        return
    snap = pool.snapshot()
    postings, node_ptr = snap.node_index()
    frozen = (postings.copy(), node_ptr.copy())
    updates = {i % len(sets): np.asarray(s[0] if s else [], dtype=np.int32) for i, s in repairs}
    pool.replace_many(updates)
    pool.extend([np.asarray([1, 2], dtype=np.int32)])
    pool.snapshot()  # rebuilds the pool's index into fresh arrays
    assert (snap.node_index()[0] == frozen[0]).all()
    assert (snap.node_index()[1] == frozen[1]).all()
    _check_snapshot(snap, sets)
