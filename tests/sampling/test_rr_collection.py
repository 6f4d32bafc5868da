"""Tests for the RR-set collection and its coverage queries."""

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.max_coverage import max_coverage
from repro.exceptions import SamplingError
from repro.sampling.block import RRBlock
from repro.sampling.rr_collection import RRCollection


def make_collection(n: int, sets: list[list[int]]) -> RRCollection:
    coll = RRCollection(n)
    coll.extend(np.asarray(s, dtype=np.int32) for s in sets)
    return coll


class TestGrowth:
    def test_len_and_entries(self):
        coll = make_collection(5, [[0, 1], [2], [3, 4, 0]])
        assert len(coll) == 3
        assert coll.total_entries == 6

    def test_getitem(self):
        coll = make_collection(5, [[0, 1], [2]])
        assert coll[1].tolist() == [2]

    def test_memory_bytes(self):
        coll = make_collection(5, [[0, 1, 2]])
        assert coll.memory_bytes() == 3 * 4  # int32 entries

    def test_memory_bytes_matches_per_set_sum(self):
        rng = np.random.default_rng(3)
        sets = [
            rng.choice(20, size=rng.integers(0, 6), replace=False).tolist()
            for _ in range(40)
        ]
        coll = make_collection(20, sets)
        for reader in (coll, coll.snapshot(), coll.snapshot(25)):
            count = len(reader)
            for _ in range(30):
                start = int(rng.integers(0, count + 1))
                end = int(rng.integers(start, count + 1))
                want = sum(4 * len(s) for s in sets[start:end])
                assert reader.memory_bytes(start=start, end=end) == want
            # ends past the stored sets are clamped
            tail = sum(4 * len(s) for s in sets[count - 3 : count])
            assert reader.memory_bytes(start=count - 3, end=count + 50) == tail
            assert reader.memory_bytes(end=10**6) == sum(4 * len(s) for s in sets[:count])
            # a negative start holds nothing (not the tail a slice would give)
            assert reader.memory_bytes(start=-5) == 0
            assert reader.memory_bytes(start=-5, end=3) == 0
            assert reader.memory_bytes(start=count, end=count - 1) == 0

    def test_invalid_n(self):
        with pytest.raises(SamplingError):
            RRCollection(0)


class TestCoverage:
    def test_basic(self):
        coll = make_collection(6, [[0, 1], [2, 3], [4], [0, 4]])
        assert coll.coverage([0]) == 2
        assert coll.coverage([4]) == 2
        assert coll.coverage([0, 2]) == 3
        assert coll.coverage([5]) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        sets = [rng.choice(20, size=rng.integers(1, 6), replace=False).tolist() for _ in range(60)]
        coll = make_collection(20, sets)
        seeds = [1, 7, 13]
        brute = sum(1 for s in sets if set(s) & set(seeds))
        assert coll.coverage(seeds) == brute

    def test_range_restriction(self):
        coll = make_collection(4, [[0], [1], [0], [2]])
        assert coll.coverage([0], start=0, end=2) == 1
        assert coll.coverage([0], start=2, end=4) == 1
        assert coll.coverage([0], start=1, end=2) == 0

    def test_per_set_coverage(self):
        coll = make_collection(4, [[0], [1], [0, 1]])
        hits = [coll.coverage([0], start=i, end=i + 1) for i in range(3)]
        assert hits == [1, 0, 1]

    def test_empty_range(self):
        coll = make_collection(4, [[0]])
        assert coll.coverage([0], start=1, end=1) == 0

    def test_out_of_range_seed_rejected(self):
        coll = make_collection(4, [[0]])
        with pytest.raises(SamplingError):
            coll.coverage([9])

    def test_bad_range_rejected(self):
        coll = make_collection(4, [[0]])
        with pytest.raises(SamplingError):
            coll.flat_view(2, 1)
        with pytest.raises(SamplingError):
            coll.flat_view(0, 5)
        with pytest.raises(SamplingError):
            coll.coverage([0], start=2, end=1)
        with pytest.raises(SamplingError):
            coll.snapshot().coverage([0], start=0, end=2)


class TestNodeFrequencies:
    def test_counts(self):
        coll = make_collection(5, [[0, 1], [1, 2], [1]])
        freq = coll.node_frequencies()
        assert freq.tolist() == [1, 3, 1, 0, 0]

    def test_range(self):
        coll = make_collection(3, [[0], [1], [0]])
        assert coll.node_frequencies(start=1, end=3).tolist() == [1, 1, 0]


class TestInfluenceEstimate:
    def test_formula(self):
        coll = make_collection(10, [[0], [0], [1], [2]])
        # Cov({0}) = 2 of 4 sets; scale 10 => 10 * 2/4 = 5.
        assert coll.estimate_influence([0], 10.0) == pytest.approx(5.0)

    def test_empty_range_rejected(self):
        coll = make_collection(10, [[0]])
        with pytest.raises(SamplingError):
            coll.estimate_influence([0], 10.0, start=1, end=1)


class TestGrowthAfterCompile:
    def test_recompiles_after_append(self):
        coll = make_collection(4, [[0]])
        assert coll.coverage([0]) == 1
        coll.extend([np.asarray([0, 1], dtype=np.int32)])
        assert coll.coverage([0]) == 2  # flat view must refresh
        assert coll.coverage([1]) == 1

    def test_incremental_compile_matches_full_rebuild(self):
        """Interleaved append/query cycles keep the flat view exact."""
        rng = np.random.default_rng(7)
        coll = RRCollection(30)
        reference: list[list[int]] = []
        for round_no in range(12):
            fresh = [
                rng.choice(30, size=rng.integers(1, 8), replace=False).tolist()
                for _ in range(rng.integers(1, 20))
            ]
            reference.extend(fresh)
            coll.extend(np.asarray(s, dtype=np.int32) for s in fresh)
            flat, offsets = coll.flat_view()
            assert flat.tolist() == [x for s in reference for x in s]
            assert offsets.tolist() == np.concatenate(
                ([0], np.cumsum([len(s) for s in reference]))
            ).tolist()
            seeds = [int(rng.integers(30))]
            brute = sum(1 for s in reference if set(s) & set(seeds))
            assert coll.coverage(seeds) == brute

    def test_compile_is_incremental_not_quadratic(self):
        """Old entries are not recopied: buffer identity survives growth
        while spare capacity remains, and total copies stay linear."""
        coll = RRCollection(10)
        coll.extend(np.asarray([i % 10], dtype=np.int32) for i in range(100))
        flat_a, _ = coll.flat_view()
        buffer_a = flat_a.base
        coll.extend([np.asarray([3], dtype=np.int32)])
        flat_b, _ = coll.flat_view()
        # 100 compiled entries in a >=1024-slot buffer: appending one more
        # must reuse the same backing buffer, not rebuild it.
        assert flat_b.base is buffer_a
        assert flat_b.size == flat_a.size + 1

    def test_earlier_views_stay_valid_after_growth(self):
        coll = make_collection(5, [[0, 1], [2]])
        flat_before, _ = coll.flat_view()
        snapshot = flat_before.tolist()
        coll.extend([np.asarray([4] * 2000, dtype=np.int32)])
        coll.coverage([4])  # force recompile (and a buffer grow)
        assert flat_before.tolist() == snapshot

    def test_empty_sets_allowed(self):
        coll = make_collection(4, [[], [1], []])
        assert len(coll) == 3
        assert coll.coverage([1]) == 1
        assert [coll.coverage([1], start=i, end=i + 1) for i in range(3)] == [0, 1, 0]


class TestGreedyMemo:
    def test_nbytes_charges_the_memo_until_a_write_drops_it(self):
        coll = make_collection(6, [[0, 1], [2], [1, 3], [4, 5, 0]])
        entries_bytes = 4 * coll.total_entries
        assert coll.nbytes == entries_bytes
        max_coverage(coll, 3)
        max_coverage(coll, 2, start=1, end=3)
        memo_bytes = coll.greedy_memo.nbytes
        assert memo_bytes > 0
        assert coll.nbytes == entries_bytes + memo_bytes
        coll.truncate(3)
        assert coll.nbytes == 4 * coll.total_entries
        max_coverage(coll, 2)
        assert coll.nbytes > 4 * coll.total_entries
        coll.replace_many({0: np.asarray([5], dtype=np.int32)})
        assert coll.nbytes == 4 * coll.total_entries

    def test_longest_run_is_kept_and_serves_every_shorter_k(self):
        coll = make_collection(6, [[0, 1], [2], [1, 3], [4, 5, 0]])
        long_run = max_coverage(coll, 5)
        charged = coll.greedy_memo.nbytes
        for k in range(1, 6):
            short = max_coverage(coll, k)
            assert short.seeds == long_run.seeds[:k]
            assert short.marginal_coverage == long_run.marginal_coverage[:k]
            assert short.coverage == sum(long_run.marginal_coverage[:k])
        assert coll.greedy_memo.nbytes == charged  # shorter runs never replace it

    def test_answers_are_fresh_lists(self):
        coll = make_collection(4, [[0, 1], [2]])
        first = max_coverage(coll, 2)
        first.seeds.append(99)
        first.marginal_coverage.clear()
        again = max_coverage(coll, 2)
        assert again.seeds == [0, 2] and again.marginal_coverage == [1, 1]

    def test_snapshots_share_the_memo_of_their_generation(self):
        coll = make_collection(6, [[0, 1], [2], [1, 3]])
        before = coll.snapshot()
        assert before.greedy_memo is coll.greedy_memo
        coll.truncate(2)
        assert before.greedy_memo is not coll.greedy_memo
        assert coll.snapshot().greedy_memo is coll.greedy_memo


class TestSnapshotsUnderThreads:
    def test_snapshots_stay_fixed_while_one_writer_grows_truncates_and_repairs(self):
        """One writer appends blocks and lists, truncates and repairs under
        a lock, publishing a snapshot after each write.  Readers check
        published snapshots against the bytes they were taken over, and
        read the pool's ``len``/``nbytes``/``memory_bytes`` without the
        lock, as the pool manager's stats do."""
        rng = np.random.default_rng(11)
        pool = RRCollection(40)
        lock = threading.Lock()
        published = []  # (snapshot, its flat bytes, its offsets bytes)
        done = threading.Event()
        failures = []

        def write():
            mirror = []
            try:
                for step in range(200):
                    sets = [
                        rng.integers(0, 40, size=rng.integers(1, 6)).astype(np.int32)
                        for _ in range(rng.integers(1, 30))
                    ]
                    with lock:
                        if step % 11 == 10:
                            keep = len(mirror) // 2
                            pool.truncate(keep)
                            del mirror[keep:]
                        elif step % 7 == 6 and mirror:
                            updates = dict(zip(rng.integers(0, len(mirror), len(sets)).tolist(), sets))
                            pool.replace_many(updates)
                            for i, rr in updates.items():
                                mirror[i] = rr
                        else:
                            pool.extend(RRBlock.pack(sets) if step % 2 else sets)
                            mirror.extend(sets)
                        want = RRBlock.pack(mirror)
                        published.append(
                            (pool.snapshot(), want.flat.tobytes(), want.offsets.tobytes())
                        )
            finally:
                done.set()

        def read(seed):
            pick = random.Random(seed)
            while not done.is_set():
                if not published:
                    continue
                snap, flat, offsets = published[pick.randrange(len(published))]
                if snap.block.flat.tobytes() != flat or snap.block.offsets.tobytes() != offsets:
                    failures.append("a snapshot's sets changed")
                if len(pool) < 0 or pool.nbytes < 0 or pool.memory_bytes() < 0:
                    failures.append("negative pool size")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)]
            threads += [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(published) == 200 and not failures
        for snap, flat, offsets in published:
            assert snap.block.flat.tobytes() == flat and snap.block.offsets.tobytes() == offsets
