"""A growable collection of RR sets with vectorized coverage queries.

``RRCollection`` is the ``R`` of the paper: SSA doubles it each iteration,
D-SSA slices it into a find half and a verify half.  Internally it keeps a
list of int32 arrays plus a lazily compiled flat CSR view (all entries
concatenated + offsets), so coverage counting and greedy max-coverage are
numpy-vectorized rather than per-set Python loops.

The collection also owns the one node→set inverted index every reader
shares (:meth:`RRCollection.node_index`): for each node, its *postings* —
the ids of the sets containing it, ascending.  Because postings ascend,
the sets of any range ``[start, end)`` are one ``searchsorted`` slice, so
a single index serves greedy max-coverage, coverage queries and dynamic
invalidation over every prefix and verify range of the pool.  It is
extended per appended chunk, never rebuilt while the pool only grows.

Concurrent serving reads the same data through :class:`RRSnapshot` — an
immutable prefix view produced by :meth:`RRCollection.snapshot`.  The
compiled buffers are append-only (never mutated below the compiled
length, replaced wholesale when they grow) and the index arrays are
replaced, never written, so a snapshot taken while holding the writer's
lock stays valid forever: later appends write past the snapshot's views
or into fresh arrays the snapshot never sees.  Snapshots share the pool's
greedy memo (:class:`GreedyMemo`) the same way.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import SamplingError


def stable_node_order(keys: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for node ids in ``[0, n)``.

    numpy's stable sort of 16-bit keys is a radix sort, so the order
    comes from one uint16 pass when every id fits and from two passes
    otherwise (low half, then high half).  Several times faster than a
    stable argsort of the int32 ids, with the identical result.
    """
    if n <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def _append_postings(
    postings: np.ndarray,
    node_ptr: np.ndarray,
    nodes: np.ndarray,
    set_ids: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The index with entries ``nodes[i] ∈ set set_ids[i]`` appended.

    ``set_ids`` must be non-decreasing and above every indexed id, as a
    new chunk's are.  Only the new entries are sorted; each node's new
    postings land right after its old ones, in fresh arrays.
    """
    order = stable_node_order(nodes, n)
    merged_ptr = np.empty_like(node_ptr)
    merged_ptr[0] = 0
    np.cumsum(np.bincount(nodes, minlength=n), out=merged_ptr[1:])
    merged_ptr += node_ptr
    merged = np.empty(int(merged_ptr[-1]), dtype=np.int32)
    # The i-th new entry in node order (node v) goes after v's old
    # postings and the i earlier new entries: node_ptr[v + 1] + i.
    dest = node_ptr[nodes[order] + 1] + np.arange(order.size)
    if postings.size:
        old = np.ones(merged.size, dtype=bool)
        old[dest] = False
        merged[old] = postings
    merged[dest] = set_ids[order]
    return merged, merged_ptr


def sets_in_range(
    postings: np.ndarray, node_ptr: np.ndarray, node: int, bounds: np.ndarray
) -> np.ndarray:
    """Ids of the sets in ``[bounds[0], bounds[1])`` that contain ``node``.

    Postings ascend, so this is one ``searchsorted`` slice.  ``bounds``
    has the postings' dtype: a wider one would make numpy cast (copy)
    the whole posting list on every search.
    """
    sets = postings[node_ptr[node] : node_ptr[node + 1]]
    lo, hi = sets.searchsorted(bounds)
    return sets[lo:hi]


def postings_hits(
    postings: np.ndarray, node_ptr: np.ndarray, nodes: Iterable[int], start: int, end: int
) -> np.ndarray:
    """Bool mask over sets ``[start, end)``: which contain any of ``nodes``.

    Costs O(in-range postings of ``nodes`` + range length), however many
    entries the range holds.
    """
    hit = np.zeros(end - start, dtype=bool)
    bounds = np.array([start, end], dtype=postings.dtype)
    for v in nodes:
        hit[sets_in_range(postings, node_ptr, v, bounds) - bounds[0]] = True
    return hit


class GreedyMemo:
    """Longest greedy max-coverage run per set range of one pool generation.

    Maps a resolved range ``(start, end)`` to read-only ``(seeds,
    marginals)`` arrays.  Greedy is prefix-closed, so one stored run
    answers every ``k`` up to its length.  A generation ends when the
    pool drops it (``truncate``/``replace_many``); until then the sets of
    a range never change, so an entry holds for every snapshot sharing
    this memo.  Values are immutable and the lock guards only the map, so
    readers publish without the pool lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._nbytes = 0

    def get(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray] | None:
        with self._lock:
            return self._runs.get((start, end))

    def publish(self, start: int, end: int, seeds: np.ndarray, marginals: np.ndarray) -> None:
        """Store a run unless the range already holds one at least as long."""
        with self._lock:
            old = self._runs.get((start, end))
            if old is not None:
                if old[0].size >= seeds.size:
                    return
                self._nbytes -= old[0].nbytes + old[1].nbytes
            self._runs[(start, end)] = (seeds, marginals)
            self._nbytes += seeds.nbytes + marginals.nbytes

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes


class _CoverageReadOps:
    """Coverage queries shared by the growable collection and its snapshots.

    Implementations only need ``self.n``, ``self.greedy_memo``,
    ``flat_view(start, end)`` returning ``(flat entries, local offsets)``
    for a set range, ``_set_offsets()`` returning the global offsets of
    every set they hold, and ``node_index()`` returning the ``(postings,
    node_ptr)`` node→set index over at least every set they hold.
    """

    n: int
    greedy_memo: GreedyMemo

    def flat_view(
        self, start: int = 0, end: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _set_offsets(self) -> np.ndarray:
        raise NotImplementedError

    def memory_bytes(self, *, start: int = 0, end: int | None = None) -> int:
        """Retained bytes of RR-set storage (the paper's memory driver).

        ``start``/``end`` restrict the count to a set range, so a query
        served from a larger session pool can report the footprint of
        exactly the prefix it consumed (what a cold run would retain).
        ``end`` is clamped to the stored sets; a range that starts
        below 0 or past ``end`` holds nothing.
        """
        count = len(self)
        end = count if end is None else min(end, count)
        if not 0 <= start <= end:
            return 0
        offsets = self._set_offsets()
        return 4 * int(offsets[end] - offsets[start])

    def resolve_range(self, start: int, end: int | None) -> int:
        """Validate the set range ``[start, end)``; returns ``end``."""
        count = len(self)
        end = count if end is None else end
        if not 0 <= start <= end <= count:
            raise SamplingError(f"invalid set range [{start}, {end}) of {count}")
        return end

    def coverage(
        self, seeds: Sequence[int], *, start: int = 0, end: int | None = None
    ) -> int:
        """``Cov_R(S)``: number of sets in [start, end) intersecting S (Eq. 1).

        Marks the seeds' in-range postings, so the cost is O(postings +
        sets in range) rather than O(entries in range).
        """
        end = self.resolve_range(start, end)
        seed_arr = np.asarray(list(seeds), dtype=np.int64)
        if seed_arr.size and (seed_arr.min() < 0 or seed_arr.max() >= self.n):
            raise SamplingError("seed id out of range in coverage query")
        postings, node_ptr = self.node_index()
        return int(np.count_nonzero(postings_hits(postings, node_ptr, seed_arr, start, end)))

    def node_frequencies(self, *, start: int = 0, end: int | None = None) -> np.ndarray:
        """How many sets of the range contain each node.

        RR sets store distinct nodes, so this equals the per-node coverage
        count used to seed greedy max-coverage.
        """
        flat, _ = self.flat_view(start, end)
        return np.bincount(flat, minlength=self.n).astype(np.int64)

    def estimate_influence(
        self,
        seeds: Sequence[int],
        scale: float,
        *,
        start: int = 0,
        end: int | None = None,
    ) -> float:
        """``Î(S) = Γ · Cov(S)/|R|`` over the given range (Lemma 1)."""
        end = len(self) if end is None else end
        count = end - start
        if count <= 0:
            raise SamplingError("cannot estimate influence from an empty range")
        return scale * self.coverage(seeds, start=start, end=end) / count

    def __len__(self) -> int:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


class RRCollection(_CoverageReadOps):
    """Ordered collection of RR sets over nodes ``0..n-1``.

    ``stream_id`` optionally records which stream derivation the stored
    sets came from (see :mod:`repro.sampling.seedstream`); it is
    provenance — snapshots inherit it, and pool/spill layers key on it so
    sets from different derivations are never mixed in one collection.
    """

    def __init__(self, n: int, *, stream_id: str | None = None) -> None:
        if n <= 0:
            raise SamplingError(f"RRCollection needs a positive node count, got {n}")
        self.n = int(n)
        self.stream_id = stream_id
        self._sets: list[np.ndarray] = []
        self._total_entries = 0
        self._drop_compiled()

    def _drop_compiled(self) -> None:
        """Forget the compiled view, the index and the greedy memo.

        Compiled flat view: geometrically grown append-only buffers, so
        keeping the view current is amortized O(1) per entry even under
        SSA/D-SSA's doubling loop (a full re-concatenation here used to
        make the loop O(total²) in entries).  Node→set index: postings
        and per-node pointers over sets ``[0, _indexed_upto)``.  The view
        and the index are rebuilt on the next read; the memo starts a new
        generation empty.
        """
        self._flat_buf = np.zeros(0, dtype=np.int32)
        self._flat_len = 0
        self._offsets_buf = np.zeros(1, dtype=np.int64)
        self._compiled_upto = 0
        self._postings = np.zeros(0, dtype=np.int32)
        self._node_ptr = np.zeros(self.n + 1, dtype=np.int64)
        self._indexed_upto = 0
        self.greedy_memo = GreedyMemo()

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def append(self, rr_set: np.ndarray) -> None:
        """Add one RR set (int array of node ids)."""
        arr = np.asarray(rr_set, dtype=np.int32)
        self._sets.append(arr)
        self._total_entries += int(arr.size)

    def extend(self, rr_sets: Iterable[np.ndarray]) -> None:
        """Add many RR sets in order."""
        for rr in rr_sets:
            self.append(rr)

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._sets[index]

    @property
    def total_entries(self) -> int:
        """Total node occurrences across all stored sets."""
        return self._total_entries

    @property
    def nbytes(self) -> int:
        """Retained bytes, O(1): int32 entries plus the greedy memo."""
        return 4 * self._total_entries + self.greedy_memo.nbytes

    # ------------------------------------------------------------------
    # Flat compiled view
    # ------------------------------------------------------------------
    def _compile(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat entries, set offsets) covering all current sets.

        Incremental: only sets appended since the last compile are copied
        into the flat buffer, with one concatenate and one cumsum of their
        sizes.  Buffers grow geometrically and are never mutated below
        ``_flat_len``, so previously returned views stay valid after
        further appends.
        """
        count = len(self._sets)
        done = self._compiled_upto
        if done < count:
            new_sets = self._sets[done:]
            sizes = np.fromiter(map(len, new_sets), dtype=np.int64, count=len(new_sets))
            ends = np.cumsum(sizes) + self._flat_len
            need = int(ends[-1])
            if need > self._flat_buf.size:
                grown = np.empty(max(need, 2 * self._flat_buf.size, 1024), dtype=np.int32)
                grown[: self._flat_len] = self._flat_buf[: self._flat_len]
                self._flat_buf = grown
            if count + 1 > self._offsets_buf.size:
                grown = np.empty(max(count + 1, 2 * self._offsets_buf.size, 64), dtype=np.int64)
                grown[: done + 1] = self._offsets_buf[: done + 1]
                self._offsets_buf = grown
            np.concatenate(new_sets, out=self._flat_buf[self._flat_len : need])
            self._offsets_buf[done + 1 : count + 1] = ends
            self._flat_len = need
            self._compiled_upto = count
        return self._flat_buf[: self._flat_len], self._offsets_buf[: count + 1]

    def _set_offsets(self) -> np.ndarray:
        return self._compile()[1]

    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The node→set index over every stored set: ``(postings, node_ptr)``.

        ``postings[node_ptr[v]:node_ptr[v + 1]]`` are the ids of the sets
        containing node v, ascending, so the sets of any range are one
        ``searchsorted`` slice.  Incremental like the compiled view: only
        sets appended since the last call are sorted and merged in.  The
        arrays are replaced, never written, so arrays returned earlier
        (and the snapshots holding them) stay valid.
        """
        flat, offsets = self._compile()
        count = len(self._sets)
        done = self._indexed_upto
        if done < count:
            set_ids = np.repeat(
                np.arange(done, count, dtype=np.int32), np.diff(offsets[done:])
            )
            self._postings, self._node_ptr = _append_postings(
                self._postings, self._node_ptr, flat[int(offsets[done]) :], set_ids, self.n
            )
            self._indexed_upto = count
        return self._postings, self._node_ptr

    def flat_view(
        self, start: int = 0, end: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat entries and *local* offsets for the set range [start, end).

        Offsets are rebased so ``flat[offsets[i]:offsets[i+1]]`` is the
        i-th set of the range.
        """
        end = self.resolve_range(start, end)
        flat, offsets = self._compile()
        lo, hi = offsets[start], offsets[end]
        return flat[lo:hi], offsets[start : end + 1] - lo

    def truncate(self, keep: int) -> int:
        """Drop sets ``[keep, len)``, keeping the prefix ``[0, keep)``.

        Returns the number of sets dropped.  The compiled buffers, the
        index and the greedy memo are *dropped*, not rewound: snapshots
        handed out earlier keep their own (now orphaned) ones, so
        truncation can never corrupt a reader — the caller only needs to
        serialize with writers, as for any append.  The next read
        rebuilds the view and the index.
        """
        keep = int(keep)
        if not 0 <= keep <= len(self._sets):
            raise SamplingError(f"invalid truncation point {keep} of {len(self._sets)}")
        dropped = len(self._sets) - keep
        if dropped == 0:
            return 0
        del self._sets[keep:]
        self._total_entries = int(sum(arr.size for arr in self._sets))
        self._drop_compiled()
        return dropped

    def replace_many(self, updates: "dict[int, np.ndarray]") -> int:
        """Swap the stored sets at the given indices in place.

        The incremental-repair primitive (see :mod:`repro.dynamic`): after
        a graph mutation, the invalidated sets — and only those — are
        recomputed via seed-pure ``sample_at`` and written back here,
        leaving every other set untouched.  Returns the number of sets
        replaced.  Like :meth:`truncate`, the compiled buffers, the index
        and the greedy memo are dropped rather than patched, so snapshots
        handed out earlier keep their own (now orphaned) ones and stay
        valid; the caller serializes with writers as for any append.
        """
        if not updates:
            return 0
        count = len(self._sets)
        for index in updates:
            if not 0 <= int(index) < count:
                raise SamplingError(
                    f"replace_many index {index} out of range [0, {count})"
                )
        for index, rr_set in updates.items():
            arr = np.asarray(rr_set, dtype=np.int32)
            self._total_entries += int(arr.size) - int(self._sets[int(index)].size)
            self._sets[int(index)] = arr
        self._drop_compiled()
        return len(updates)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, end: int | None = None) -> "RRSnapshot":
        """Immutable view of the prefix ``[0, end)`` (default: everything).

        The caller must hold whatever lock serializes appends while
        taking the snapshot (compilation and the index extension mutate
        the collection); the *returned* snapshot needs no lock —
        concurrent appends never touch the arrays it references.  It
        shares the pool's index and greedy memo, which may cover sets
        past ``end``: every reader bounds its slices, and validates its
        memo ranges, by the snapshot's own range.
        """
        end = len(self._sets) if end is None else end
        if not 0 <= end <= len(self._sets):
            raise SamplingError(f"invalid snapshot prefix [0, {end}) of {len(self._sets)}")
        postings, node_ptr = self.node_index()
        flat, offsets = self._compile()
        return RRSnapshot(
            self.n, flat[: int(offsets[end])], offsets[: end + 1], postings, node_ptr,
            self.greedy_memo, stream_id=self.stream_id,
        )


class RRSnapshot(_CoverageReadOps):
    """Immutable prefix view of an :class:`RRCollection`.

    Supports the full read API the algorithm bodies use (coverage
    queries, greedy max-coverage's ``flat_view``, ``node_index`` and
    ``greedy_memo``, ``memory_bytes``), so a query can run against a
    frozen prefix while the shared pool keeps growing under other
    queries' top-ups.
    """

    def __init__(
        self, n: int, flat: np.ndarray, offsets: np.ndarray,
        postings: np.ndarray, node_ptr: np.ndarray, greedy_memo: GreedyMemo,
        *, stream_id: str | None = None,
    ) -> None:
        self.n = int(n)
        self._flat = flat
        self._offsets = offsets
        self._postings = postings
        self._node_ptr = node_ptr
        self.greedy_memo = greedy_memo
        self.stream_id = stream_id

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> np.ndarray:
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"set index {index} out of range [0, {count})")
        return self._flat[self._offsets[index] : self._offsets[index + 1]]

    @property
    def total_entries(self) -> int:
        return int(self._offsets[-1]) if len(self._offsets) else 0

    @property
    def nbytes(self) -> int:
        return 4 * self.total_entries

    def _set_offsets(self) -> np.ndarray:
        return self._offsets

    def flat_view(
        self, start: int = 0, end: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        end = self.resolve_range(start, end)
        lo, hi = self._offsets[start], self._offsets[end]
        return self._flat[lo:hi], self._offsets[start : end + 1] - lo

    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        return self._postings, self._node_ptr
