"""Compressed sparse row (CSR) directed weighted graph.

Both the forward cascade simulators and the reverse (RIS) samplers are hot
loops, so the graph keeps *two* CSR views of the same edge set:

* the **out view** (``out_indptr``/``out_indices``/``out_weights``), edges
  grouped by source — used by forward IC/LT simulation, and
* the **in view** (``in_indptr``/``in_indices``/``in_weights``), edges
  grouped by target — used by reverse reachable (RR) set generation.

Edge ``(u, v)`` carries an influence probability ``w(u, v) ∈ [0, 1]``
(Section 2 of the paper).  The graph is immutable after construction; all
mutation happens in :class:`repro.graph.builder.GraphBuilder`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import GraphError, WeightError


class CSRGraph:
    """Immutable directed weighted graph over nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    out_indptr, out_indices, out_weights:
        CSR arrays of the out-adjacency: the out-neighbours of ``u`` are
        ``out_indices[out_indptr[u]:out_indptr[u+1]]`` with matching
        weights.
    in_indptr, in_indices, in_weights:
        CSR arrays of the in-adjacency (edges grouped by *target*):
        ``in_indices`` holds edge *sources*.

    Use :class:`repro.graph.builder.GraphBuilder` or
    :func:`repro.graph.builder.from_edges` instead of calling this
    constructor with hand-built arrays.
    """

    __slots__ = (
        "n",
        "m",
        "out_indptr",
        "out_indices",
        "out_weights",
        "in_indptr",
        "in_indices",
        "in_weights",
        "in_weight_totals",
        "_fingerprint",
        "_derived",
    )

    def __init__(
        self,
        n: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_weights: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_weights: np.ndarray,
    ) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self.n = int(n)
        self.m = int(len(out_indices))
        self.out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        self.out_indices = np.ascontiguousarray(out_indices, dtype=np.int32)
        self.out_weights = np.ascontiguousarray(out_weights, dtype=np.float64)
        self.in_indptr = np.ascontiguousarray(in_indptr, dtype=np.int64)
        self.in_indices = np.ascontiguousarray(in_indices, dtype=np.int32)
        self.in_weights = np.ascontiguousarray(in_weights, dtype=np.float64)
        self._validate()
        # Per-node total incoming weight: the LT reverse walk continues with
        # this probability, so precomputing it here keeps sampling tight.
        self.in_weight_totals = np.add.reduceat(
            np.append(self.in_weights, 0.0), self.in_indptr[:-1]
        ) if self.m else np.zeros(self.n)
        self.in_weight_totals = np.where(
            np.diff(self.in_indptr) > 0, self.in_weight_totals, 0.0
        )
        for arr in (
            self.out_indptr,
            self.out_indices,
            self.out_weights,
            self.in_indptr,
            self.in_indices,
            self.in_weights,
            self.in_weight_totals,
        ):
            arr.setflags(write=False)
        self._fingerprint: str | None = None
        self._derived: dict = {}

    def _validate(self) -> None:
        if len(self.out_indptr) != self.n + 1 or len(self.in_indptr) != self.n + 1:
            raise GraphError("indptr arrays must have length n + 1")
        if len(self.in_indices) != self.m or len(self.out_weights) != self.m or len(self.in_weights) != self.m:
            raise GraphError("out/in edge arrays disagree on edge count")
        if self.m:
            if self.out_indices.min() < 0 or self.out_indices.max() >= self.n:
                raise GraphError("out_indices contains an out-of-range node id")
            if self.in_indices.min() < 0 or self.in_indices.max() >= self.n:
                raise GraphError("in_indices contains an out-of-range node id")
            if self.out_weights.min() < 0.0 or self.out_weights.max() > 1.0:
                raise WeightError("edge weights must lie in [0, 1]")
        if self.out_indptr[0] != 0 or self.out_indptr[-1] != self.m:
            raise GraphError("out_indptr must start at 0 and end at m")
        if self.in_indptr[0] != 0 or self.in_indptr[-1] != self.m:
            raise GraphError("in_indptr must start at 0 and end at m")
        if np.any(np.diff(self.out_indptr) < 0) or np.any(np.diff(self.in_indptr) < 0):
            raise GraphError("indptr arrays must be non-decreasing")

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of edges leaving ``u`` (read-only view)."""
        return self.out_indices[self.out_indptr[u] : self.out_indptr[u + 1]]

    def out_edge_weights(self, u: int) -> np.ndarray:
        """Weights of edges leaving ``u``, aligned with :meth:`out_neighbors`."""
        return self.out_weights[self.out_indptr[u] : self.out_indptr[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of edges entering ``v`` (read-only view)."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def in_edge_weights(self, v: int) -> np.ndarray:
        """Weights of edges entering ``v``, aligned with :meth:`in_neighbors`."""
        return self.in_weights[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_degree(self, u: int | None = None) -> np.ndarray | int:
        """Out-degree of ``u``, or the full out-degree array when ``u`` is None."""
        if u is None:
            return np.diff(self.out_indptr)
        return int(self.out_indptr[u + 1] - self.out_indptr[u])

    def in_degree(self, v: int | None = None) -> np.ndarray | int:
        """In-degree of ``v``, or the full in-degree array when ``v`` is None."""
        if v is None:
            return np.diff(self.in_indptr)
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    # ------------------------------------------------------------------
    # Edge iteration / queries
    # ------------------------------------------------------------------
    def edges(self) -> "np.ndarray":
        """All edges as an ``(m, 2)`` int array of (source, target) pairs."""
        sources = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.out_indptr))
        return np.column_stack([sources, self.out_indices])

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed edge (u, v) exists.

        Out-neighbour lists are sorted by the builder, so this is a binary
        search.
        """
        lo, hi = self.out_indptr[u], self.out_indptr[u + 1]
        pos = np.searchsorted(self.out_indices[lo:hi], v)
        return bool(pos < hi - lo and self.out_indices[lo + pos] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v); 0.0 when the edge is absent (paper convention)."""
        lo, hi = self.out_indptr[u], self.out_indptr[u + 1]
        pos = np.searchsorted(self.out_indices[lo:hi], v)
        if pos < hi - lo and self.out_indices[lo + pos] == v:
            return float(self.out_weights[lo + pos])
        return 0.0

    # ------------------------------------------------------------------
    # Model validation / introspection
    # ------------------------------------------------------------------
    def validate_lt_weights(self, *, tolerance: float = 1e-9) -> None:
        """Raise :class:`WeightError` unless Σ_u w(u, v) ≤ 1 for every v.

        This is the Linear Threshold admissibility condition from Section
        2.1 of the paper.
        """
        bad = np.nonzero(self.in_weight_totals > 1.0 + tolerance)[0]
        if bad.size:
            v = int(bad[0])
            raise WeightError(
                f"LT weights invalid: node {v} has incoming weight sum "
                f"{self.in_weight_totals[v]:.6f} > 1 ({bad.size} offending nodes)"
            )

    def fingerprint(self) -> str:
        """Content fingerprint (structure + exact weights), cached.

        The out view fully determines the edge set (the in view is a
        permutation of it), so hashing ``n``, ``m`` and the three out
        arrays identifies the graph.  This is the same fingerprint the
        pool store and graph manifests use, so a graph, its spills and
        its shared-memory blobs agree on identity.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(f"{self.n}:{self.m}:".encode())
            for arr in (self.out_indptr, self.out_indices, self.out_weights):
                digest.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def memory_bytes(self) -> int:
        """Resident bytes of the CSR arrays (used by the memory model)."""
        arrays = (
            self.out_indptr,
            self.out_indices,
            self.out_weights,
            self.in_indptr,
            self.in_indices,
            self.in_weights,
            self.in_weight_totals,
        )
        return int(sum(a.nbytes for a in arrays))

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m})"

    def derived(self, name: str, build):
        """A read-only value computed from this graph, built once.

        The graph is immutable, so consumers cache what they derive from
        it (the RR samplers' per-edge coin tables, say) here, shared by
        every sampler on the graph, instead of per instance.
        """
        value = self._derived.get(name)
        if value is None:
            value = self._derived[name] = build(self)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
            and np.array_equal(self.out_weights, other.out_weights)
        )

    def __hash__(self) -> int:
        # Hash/eq contract: equality is structural (exact arrays), so the
        # hash must be content-based too — equal graphs built separately
        # must collide in dicts/sets keyed on graphs.
        return hash(self.fingerprint())
