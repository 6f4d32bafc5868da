"""Property tests for the pool's greedy memo.

Whatever interleaving of appends, snapshots, truncations, repairs and
greedy calls a pool goes through, every greedy answer — from the pool or
from any snapshot taken before or after a write — must equal a
memo-free greedy over that object's own sets, and a snapshot must keep
refusing ranges past its own end even when the shared memo holds them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.max_coverage import max_coverage
from repro.exceptions import SamplingError
from repro.sampling.rr_collection import RRCollection
from tests.oracles import reference_max_coverage

N = 10


def rr_sets(max_sets=6):
    member_lists = st.lists(
        st.integers(min_value=0, max_value=N - 1), min_size=0, max_size=4, unique=True
    )
    return st.lists(member_lists, min_size=0, max_size=max_sets)


fraction = st.floats(min_value=0.0, max_value=1.0)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), rr_sets()),
        st.tuples(st.just("snapshot"), fraction),
        st.tuples(st.just("truncate"), fraction),
        st.tuples(
            st.just("replace_many"),
            st.lists(
                st.tuples(st.floats(min_value=0.0, max_value=0.999), rr_sets(1)),
                min_size=1,
                max_size=3,
            ),
        ),
        # (target: 0 = the pool, i > 0 = the i-th snapshot), k, start, end.
        # Coarse range fractions make later calls revisit memoized ranges.
        st.tuples(
            st.just("max_coverage"),
            st.tuples(
                st.integers(0, 3),
                st.sampled_from((1, 2, 3, N)),
                st.sampled_from((0.0, 0.5)),
                st.sampled_from((0.5, 1.0)),
            ),
        ),
    ),
    min_size=1,
    max_size=24,
)


def _greedy_matches_reference(target, sets, k, start, end):
    reference = RRCollection(N)
    reference.extend(np.asarray(s, dtype=np.int32) for s in sets)
    got = max_coverage(target, k, start=start, end=end)
    want = reference_max_coverage(reference, k, start=start, end=end)
    assert got.seeds == want.seeds
    assert got.coverage == want.coverage
    assert got.num_sets == want.num_sets
    assert got.marginal_coverage == want.marginal_coverage


@given(operations)
@settings(max_examples=400, deadline=None)
# A memo that survives replace_many answers the second call with the
# picks of the sets it replaced.
@example([
    ("extend", [[0], [1], [1]]),
    ("max_coverage", (0, 1, 0.0, 1.0)),
    ("replace_many", [(0.4, [[0]]), (0.7, [[0]])]),
    ("max_coverage", (0, 1, 0.0, 1.0)),
])
# A memo keyed on the range end alone answers [2, 5) with [0, 5)'s picks.
@example([
    ("extend", [[1], [1], [1], [0], [0]]),
    ("max_coverage", (0, 1, 0.0, 1.0)),
    ("max_coverage", (0, 1, 0.5, 1.0)),
])
# A snapshot of 2 sets must refuse [0, 4) after the pool memoized it.
@example([
    ("extend", [[0], [1]]),
    ("snapshot", 1.0),
    ("extend", [[1], [2]]),
    ("max_coverage", (0, 2, 0.0, 1.0)),
    ("max_coverage", (1, 2, 0.0, 1.0)),
])
def test_every_answer_equals_memo_free_greedy(ops):
    pool = RRCollection(N)
    mirror: list[list[int]] = []
    snapshots = []  # (snapshot, the sets it was taken over)
    asked = []  # every greedy call so far, replayed after each write

    def ask(which, k, start_frac, end_frac):
        target, sets = (pool, mirror)
        if 0 < which <= len(snapshots):
            target, sets = snapshots[which - 1]
        # Ends are drawn over the pool's current length, so snapshots
        # are also asked for ranges past their own end.
        end = int(end_frac * len(mirror))
        start = int(start_frac * end)
        if end > len(sets):
            with pytest.raises(SamplingError):
                max_coverage(target, k, start=start, end=end)
        else:
            _greedy_matches_reference(target, sets, k, start, end)

    for op, arg in ops:
        if op == "max_coverage":
            asked.append(arg)
            ask(*arg)
            continue
        if op == "extend":
            pool.extend(np.asarray(s, dtype=np.int32) for s in arg)
            mirror.extend(arg)
        elif op == "snapshot":
            end = int(arg * len(mirror))
            snapshots.append((pool.snapshot(end), mirror[:end]))
        elif op == "truncate":
            keep = int(arg * len(mirror))
            pool.truncate(keep)
            del mirror[keep:]
        elif op == "replace_many":
            if not mirror:
                continue
            updates = {int(frac * len(mirror)): (s[0] if s else []) for frac, s in arg}
            pool.replace_many({i: np.asarray(s, dtype=np.int32) for i, s in updates.items()})
            for i, s in updates.items():
                mirror[i] = s
        for query in asked:
            ask(*query)
