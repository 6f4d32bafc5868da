"""A growable collection of RR sets with vectorized coverage queries.

``RRCollection`` is the ``R`` of the paper: SSA doubles it each iteration,
D-SSA slices it into a find half and a verify half.  It stores sets in
the form samplers return them, flat blocks (:mod:`repro.sampling.block`),
copied block by block into two growable buffers — int32 entries and
int64 offsets — so coverage counting and greedy max-coverage are
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
buffers are append-only (never written below a length a snapshot holds;
growth, truncation and repair move to fresh arrays) and the index arrays
are replaced, never written, so a snapshot taken while holding the
writer's lock stays valid forever: later appends write past the
snapshot's views or into fresh arrays the snapshot never sees.
Snapshots share the pool's greedy memo (:class:`GreedyMemo`) the same
way.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import SamplingError
from repro.sampling.block import RRBlock


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
    ``block`` — the :class:`~repro.sampling.block.RRBlock` of every set
    they hold — ``flat_view(start, end)`` returning a range's flat
    entries and local offsets, and ``node_index()`` returning the
    ``(postings, node_ptr)`` node→set index over at least every set
    they hold.
    """

    n: int
    greedy_memo: GreedyMemo
    block: RRBlock

    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.block[index]

    @property
    def total_entries(self) -> int:
        """Total node occurrences across all stored sets."""
        return int(self.block.offsets[-1])

    def memory_bytes(self, *, start: int = 0, end: int | None = None) -> int:
        """Retained bytes of RR-set storage (the paper's memory driver).

        ``start``/``end`` restrict the count to a set range, so a query
        served from a larger session pool can report the footprint of
        exactly the prefix it consumed (what a cold run would retain).
        ``end`` is clamped to the stored sets; a range that starts
        below 0 or past ``end`` holds nothing.
        """
        offsets = self.block.offsets
        count = offsets.size - 1
        end = count if end is None else min(end, count)
        if not 0 <= start <= end:
            return 0
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


def _grown(buf: np.ndarray, keep: int, need: int) -> np.ndarray:
    """A fresh buffer of at least ``need`` slots holding ``buf[:keep]``;
    geometric growth keeps appends amortized O(1) per entry."""
    grown = np.empty(max(need, 2 * buf.size, 1024), dtype=buf.dtype)
    grown[:keep] = buf[:keep]
    return grown


class RRCollection(_CoverageReadOps):
    """Ordered collection of RR sets over nodes ``0..n-1``.

    The sets live in two growable buffers, int32 entries and int64
    offsets, filled block by block; :attr:`block` is their filled
    prefix.  ``stream_id`` optionally records which stream derivation
    the stored sets came from (see :mod:`repro.sampling.seedstream`); it
    is provenance — snapshots inherit it, and pool/spill layers key on
    it so sets from different derivations are never mixed in one
    collection.
    """

    def __init__(self, n: int, *, stream_id: str | None = None) -> None:
        if n <= 0:
            raise SamplingError(f"RRCollection needs a positive node count, got {n}")
        self.n = int(n)
        self.stream_id = stream_id
        self._store(np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int64))

    def _store(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        """Start a new generation holding exactly ``flat``/``offsets``.

        The node→set index (postings and per-node pointers over sets
        ``[0, _indexed_upto)``) starts empty and is rebuilt on the next
        read; the greedy memo starts empty.
        """
        self._flat, self._offsets = flat, offsets
        self._count = offsets.size - 1
        self._postings = np.zeros(0, dtype=np.int32)
        self._node_ptr = np.zeros(self.n + 1, dtype=np.int64)
        self._indexed_upto = 0
        self.greedy_memo = GreedyMemo()

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def extend(self, rr_sets: "RRBlock | Iterable[np.ndarray]") -> None:
        """Add sets in order: a block, or per-set arrays packed into one.

        The block is copied straight into the buffers, past every length
        a snapshot holds, or into fresh buffers when they must grow.
        """
        block = RRBlock.pack(rr_sets)
        count, used = self._count, int(self._offsets[self._count])
        new_count, need = count + len(block), used + block.flat.size
        if need > self._flat.size:
            self._flat = _grown(self._flat, used, need)
        if new_count >= self._offsets.size:
            self._offsets = _grown(self._offsets, count + 1, new_count + 1)
        self._flat[used:need] = block.flat
        self._offsets[count + 1 : new_count + 1] = block.offsets[1:] + used
        self._count = new_count

    def __len__(self) -> int:
        return self._count

    @property
    def block(self) -> RRBlock:
        """Every stored set: views of the filled prefix of the buffers."""
        return self._prefix(self._count)

    def _prefix(self, end: int) -> RRBlock:
        offsets = self._offsets[: end + 1]
        return RRBlock(self._flat[: int(offsets[-1])], offsets)

    @property
    def nbytes(self) -> int:
        """Retained bytes, O(1): int32 entries plus the greedy memo."""
        return 4 * self.total_entries + self.greedy_memo.nbytes

    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The node→set index over every stored set: ``(postings, node_ptr)``.

        ``postings[node_ptr[v]:node_ptr[v + 1]]`` are the ids of the sets
        containing node v, ascending, so the sets of any range are one
        ``searchsorted`` slice.  Incremental: only sets appended since
        the last call are sorted and merged in.  The arrays are
        replaced, never written, so arrays returned earlier (and the
        snapshots holding them) stay valid.
        """
        done, count = self._indexed_upto, self._count
        if done < count:
            new = self.block[done:]
            set_ids = np.repeat(np.arange(done, count, dtype=np.int32), np.diff(new.offsets))
            self._postings, self._node_ptr = _append_postings(
                self._postings, self._node_ptr, new.flat, set_ids, self.n
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
        view = self.block[start : self.resolve_range(start, end)]
        return view.flat, view.offsets

    def truncate(self, keep: int) -> int:
        """Drop sets ``[keep, len)``, keeping the prefix ``[0, keep)``.

        Returns the number of sets dropped.  The kept prefix is copied
        into fresh buffers and the index and greedy memo are dropped,
        not rewound: snapshots handed out earlier keep their own (now
        orphaned) arrays, so truncation can never corrupt a reader — the
        caller only needs to serialize with writers, as for any append.
        """
        keep = int(keep)
        count = self._count
        if not 0 <= keep <= count:
            raise SamplingError(f"invalid truncation point {keep} of {count}")
        if keep == count:
            return 0
        kept = self._prefix(keep)
        self._store(kept.flat.copy(), kept.offsets.copy())
        return count - keep

    def replace_many(self, updates: "dict[int, np.ndarray]") -> int:
        """Swap the stored sets at the given indices.

        The incremental-repair primitive (see :mod:`repro.dynamic`): after
        a graph mutation, the invalidated sets — and only those — are
        recomputed via seed-pure ``sample_block`` and written back here,
        leaving every other set untouched.  Returns the number of sets
        replaced.  Like :meth:`truncate`, the result goes into fresh
        buffers with the index and greedy memo dropped, so snapshots
        handed out earlier keep their own arrays and stay valid; the
        caller serializes with writers as for any append.
        """
        if not updates:
            return 0
        old = self.block
        sizes = np.diff(old.offsets)
        # The untouched sets between replaced positions are copied as
        # whole runs: one concatenate writes the new entries.
        pieces, run_start = [], 0
        for index, rr_set in sorted((int(i), rr) for i, rr in updates.items()):
            if not 0 <= index < len(old):
                raise SamplingError(f"replace_many index {index} out of range [0, {len(old)})")
            rr_set = np.asarray(rr_set, dtype=np.int32)
            pieces += [old.flat[old.offsets[run_start] : old.offsets[index]], rr_set]
            sizes[index] = rr_set.size
            run_start = index + 1
        pieces.append(old.flat[old.offsets[run_start] :])
        fresh = RRBlock.from_sizes(np.concatenate(pieces), sizes)
        self._store(fresh.flat, fresh.offsets)
        return len(updates)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, end: int | None = None) -> "RRSnapshot":
        """Immutable view of the prefix ``[0, end)`` (default: everything).

        The caller must hold whatever lock serializes appends while
        taking the snapshot (the index extension mutates the
        collection); the *returned* snapshot needs no lock — concurrent
        appends never touch the arrays it references.  It shares the
        pool's index and greedy memo, which may cover sets past ``end``:
        every reader bounds its slices, and validates its memo ranges,
        by the snapshot's own range.
        """
        count = self._count
        end = count if end is None else end
        if not 0 <= end <= count:
            raise SamplingError(f"invalid snapshot prefix [0, {end}) of {count}")
        postings, node_ptr = self.node_index()
        return RRSnapshot(
            self.n, self._prefix(end), postings, node_ptr, self.greedy_memo,
            stream_id=self.stream_id,
        )


class RRSnapshot(_CoverageReadOps):
    """Immutable prefix view of an :class:`RRCollection`: a block plus
    the pool's shared node→set index and greedy memo.

    Supports the full read API the algorithm bodies use (coverage
    queries, greedy max-coverage's ``flat_view``, ``node_index`` and
    ``greedy_memo``, ``memory_bytes``), so a query can run against a
    frozen prefix while the shared pool keeps growing under other
    queries' top-ups.
    """

    def __init__(
        self, n: int, block: RRBlock, postings: np.ndarray, node_ptr: np.ndarray,
        greedy_memo: GreedyMemo, *, stream_id: str | None = None,
    ) -> None:
        self.n = int(n)
        self.block = block
        self._postings = postings
        self._node_ptr = node_ptr
        self.greedy_memo = greedy_memo
        self.stream_id = stream_id

    @property
    def nbytes(self) -> int:
        return 4 * self.total_entries

    def flat_view(
        self, start: int = 0, end: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        view = self.block[start : self.resolve_range(start, end)]
        return view.flat, view.offsets

    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        return self._postings, self._node_ptr
