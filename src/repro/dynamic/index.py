"""Node → containing-sets inverted index over an RR collection.

This is the invalidation oracle for incremental repair: given a mutation
batch, which stored RR sets could the mutation have changed?

**The invalidation rule.**  Any mutation of edge (u → v) — insert,
delete, or reweight — invalidates the RR sets whose stored nodes
include the *target* v.  A reverse traversal only ever reads the
in-adjacency of nodes it *visits*, and the visited nodes are exactly
the stored set (the IC BFS and the LT walk record every expanded node).
A set that does not contain v never read v's in-edge list, and every
draw it made is keyed on its own set key and on the edge or hop it
decided (:mod:`repro.sampling.seedstream`), so replaying it on the
mutated graph gives the same bytes.  A set containing v is resampled.

The rule is sound, not tight: with coins keyed on edges, a set
containing v changes only if the mutated edge's liveness flips under
its own coin (IC) or the hop out of v lands elsewhere (LT).  Checking
that is left for later; resampling every containing set is exact.

A node-count change (an insert referencing a new node id) invalidates
everything: root selection maps each set's root draw over ``n``
itself, so no stored set's root survives.  Callers handle that case
before consulting the index (see
:meth:`repro.service.pool.PoolManager.mutate_namespace`).
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.exceptions import SamplingError
from repro.sampling.rr_collection import postings_hits


class RRSetIndex:
    """Immutable inverted index: which stored sets contain each node.

    A view of the pool's own node→set index
    (:meth:`~repro.sampling.rr_collection.RRCollection.node_index`), so
    building one costs nothing once the pool's readers have kept that
    index current; ``sets_containing`` is the same postings union the
    coverage queries run.  The index describes the collection at build
    time — take a new one after appends, truncation, or repair.
    """

    def __init__(self, n: int, postings: np.ndarray, node_ptr: np.ndarray, count: int) -> None:
        self.n = int(n)
        self._postings = postings
        self._node_ptr = node_ptr
        self.count = int(count)

    @classmethod
    def from_collection(cls, collection) -> "RRSetIndex":
        """Index any object with ``n`` and ``node_index()`` (an
        :class:`~repro.sampling.rr_collection.RRCollection` or snapshot)."""
        postings, node_ptr = collection.node_index()
        return cls(collection.n, postings, node_ptr, len(collection))

    def sets_containing(self, nodes) -> np.ndarray:
        """Sorted distinct ids of sets containing any of ``nodes``."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= self.n):
            raise SamplingError(
                f"node id out of range [0, {self.n}) in index query"
            )
        if nodes.size == 0:
            return np.zeros(0, dtype=np.int64)
        hits = postings_hits(self._postings, self._node_ptr, nodes, 0, self.count)
        return np.flatnonzero(hits)

    def invalidated_by(self, delta: GraphDelta) -> np.ndarray:
        """Set ids a mutation batch invalidates (the head-containment
        rule; see the module docstring for why all operation kinds use
        it).  Targets beyond the indexed ``n`` are new nodes — no stored
        set can contain them, so they contribute nothing here; the
        caller already handles the n-growth full-invalidation case.
        """
        targets = delta.touched_targets()
        targets = targets[targets < self.n]
        return self.sets_containing(targets)
