"""The RR-set engine: lockstep IC and LT paths, plus the per-set reference.

The paper's cost model is ``time = number of RR sets × cost per RR set``.
The execution backends (:mod:`repro.sampling.backends`) attack the first
factor by sharding sets across workers; this module is the second — the
inner loop that turns set keys into RR sets.

Every random decision of set ``g`` is a counter-based draw keyed on
``(seed, g)`` and on *what* is decided (:mod:`repro.sampling.seedstream`):
the root, the coin of each in-edge ``u -> v`` (keyed on ``(u, v)``,
never on a CSR position), each LT hop.  No draw depends on another, so
set ``g``'s bytes do not depend on how it is computed, and every path
here emits the same bytes:

* an **IC** set is its root, then each reverse-BFS layer in ascending
  node order (a layer is a BFS distance in the live-edge graph, cut at
  ``max_hops``);
* an **LT** set is its reverse walk, in walk order.

**Lockstep paths.**  :func:`ic_sample_block` and :func:`lt_sample_block`
serve every block, in every cascade regime.  They run a chunk of sets
("lanes") one BFS step or walk hop per numpy pass: frontier arrays
carry a lane column, one CSR gather collects every lane's frontier
in-edges, one vectorized hash flips all their coins, a sorted
``lane * n + node`` key set (:class:`_LaneVisited`) tracks visits, and
the chunk's sets come out as one :class:`~repro.sampling.block.RRBlock`.
Per-set dispatch cost amortizes to near zero, which is where
weighted-cascade workloads (mean RR size ~6) spend their time.  A chunk
holds :data:`LOCKSTEP_COINS` divided by the sampler's running mean of
coins per set lanes, so its temporaries stay bounded whatever the set
size.

**Per-set reference.**  :func:`reference_block` computes sets one at a
time — :func:`ic_sample_one` a node at a time, :func:`lt_sample_one` a
hop at a time — and packs them into a block.  It is what the tests and the microbenchmark hold the
lockstep paths to; the engine never calls it.

**Kernel names.**  ``scalar``, ``vectorized``, ``batched``,
``lt-batched`` and ``auto`` are accepted for compatibility (``kernel=``,
``--kernel``) and reported back, but select nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SamplingError
from repro.sampling.block import RRBlock
from repro.sampling.seedstream import (
    ROOT,
    coin_thresholds,
    counter_salts,
    draw,
    mix64,
    top53,
    uniforms,
)

#: accepted ``kernel=`` / ``--kernel`` names; none selects anything.
KERNEL_NAMES = ("scalar", "vectorized", "batched", "lt-batched", "auto")

#: the name reported when a caller names no kernel.
DEFAULT_KERNEL = "scalar"

#: coins one lockstep chunk may flip, summed over its lanes: the chunk
#: width is this over the running mean of coins per set.
LOCKSTEP_COINS = 1 << 19

#: lockstep width before the sampler has observed any set.
FIRST_LANES = 64


@dataclass(frozen=True)
class SamplingKernel:
    """A kernel name a caller gave: reported back, selects nothing."""

    name: str


KERNELS = {name: SamplingKernel(name) for name in KERNEL_NAMES}


def make_kernel(kernel: "str | SamplingKernel | None" = None) -> SamplingKernel:
    """Validate a kernel name (``None`` means :data:`DEFAULT_KERNEL`).

    Unknown names are rejected, so a typo still fails loudly although
    no name changes what is sampled.
    """
    if kernel is None:
        kernel = DEFAULT_KERNEL
    elif isinstance(kernel, SamplingKernel):
        kernel = kernel.name
    key = str(kernel).strip().lower()
    if key not in KERNELS:
        raise SamplingError(
            f"unknown sampling kernel {kernel!r}; known: {list(KERNEL_NAMES)}"
        )
    return KERNELS[key]


# ----------------------------------------------------------------------
# Per-graph tables and per-set roots
# ----------------------------------------------------------------------
def _ic_tables(graph) -> tuple:
    """Per in-edge coin salts (counter ``u * n + v``) and live
    thresholds, in in-CSR order, built once per graph."""

    def build(g):
        targets = np.repeat(np.arange(g.n, dtype=np.uint64), np.diff(g.in_indptr))
        counters = g.in_indices.astype(np.uint64) * np.uint64(g.n) + targets
        return counter_salts(counters), coin_thresholds(g.in_weights)

    return graph.derived("rr-ic-coins", build)


def _lt_prefix(graph) -> np.ndarray:
    """Graph-wide prefix sum of in-edge weights: node ``v``'s in-edge
    CDF is its slice ``prefix[in_indptr[v] : in_indptr[v + 1] + 1]``."""
    return graph.derived(
        "rr-lt-prefix", lambda g: np.concatenate(([0.0], np.cumsum(g.in_weights)))
    )


def _roots(sampler, keys: np.ndarray, pinned) -> np.ndarray:
    """Each set's root: ``pinned[i]`` where it is ``>= 0`` (the
    backends' wire convention), else ``F(key, ROOT)`` mapped through the
    root distribution."""
    drawn = sampler.roots.pick(uniforms(mix64(keys + counter_salts(ROOT))))
    if pinned is None:
        return drawn
    pinned = np.asarray(pinned, dtype=np.int64)
    return np.where(pinned < 0, drawn, pinned)


def _lanes(sampler) -> int:
    """Chunk width from the running mean of coins per set."""
    sets, coins = sampler._seen
    if not sets:
        return FIRST_LANES
    return max(1, int(LOCKSTEP_COINS * sets / max(coins, 1)))


def _chunked(sampler, step, keys, roots) -> RRBlock:
    """Run ``step`` over lane chunks, re-reading the width per chunk."""
    blocks = []
    start = 0
    while start < keys.size:
        stop = start + _lanes(sampler)
        blocks.append(step(sampler, keys[start:stop], roots[start:stop]))
        start = stop
    return RRBlock.concat(blocks)


class _LaneVisited:
    """Visited set of a lockstep chunk: sorted ``lane * n + node`` keys.

    A sorted key array gives vectorized membership (one
    ``searchsorted``) and vectorized insert (merge two sorted runs) with
    no per-lane memory budget, so a chunk can carry thousands of lanes.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys  # sorted, unique

    def seen(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask for candidate keys."""
        acc = self.keys
        pos = np.minimum(np.searchsorted(acc, keys), acc.shape[0] - 1)
        return acc[pos] == keys

    def add(self, keys: np.ndarray) -> None:
        """Insert sorted keys known to be absent."""
        # Two sorted runs: mergesort (timsort) detects and merges them.
        self.keys = np.sort(np.concatenate([self.keys, keys]), kind="mergesort")


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` minus its Python-level wrapper overhead, which costs
    several times the sort itself at the few-candidate sizes of the
    weighted-cascade hot path."""
    if values.size <= 1:
        return values
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _assemble(lane_pieces, node_pieces, n_lanes) -> RRBlock:
    """Step-ordered (lane, node) pieces as a block of per-lane RR sets.

    A stable sort by lane keeps step order within each lane: root
    first, then each step's nodes in the order they were appended.
    """
    all_lanes = np.concatenate(lane_pieces)
    order = np.argsort(all_lanes, kind="stable")
    nodes = np.concatenate(node_pieces)[order].astype(np.int32, copy=False)
    return RRBlock.from_sizes(nodes, np.bincount(all_lanes, minlength=n_lanes))


def _hop_budget(sampler) -> int:
    return -1 if sampler.max_hops is None else int(sampler.max_hops)


def reference_block(sampler, indices, pinned=None) -> RRBlock:
    """:meth:`~repro.sampling.base.RRSampler.sample_block`'s sets, by the
    per-set reference loops instead of the lockstep paths."""
    keys = sampler.seed_stream.keys(indices)
    one = lt_sample_one if sampler.model.value == "LT" else ic_sample_one
    return RRBlock.pack(
        [one(sampler, key, root) for key, root in zip(keys, _roots(sampler, keys, pinned))]
    )


# ----------------------------------------------------------------------
# IC
# ----------------------------------------------------------------------
def ic_sample_block(sampler, keys: np.ndarray, pinned=None) -> RRBlock:
    """IC RR sets for a block of set keys (``pinned`` as in :func:`_roots`)."""
    return _chunked(sampler, _ic_lockstep, keys, _roots(sampler, keys, pinned))


def _ic_lockstep(sampler, keys, roots) -> RRBlock:
    graph = sampler.graph
    n = graph.n
    indptr, sources = graph.in_indptr, graph.in_indices
    salts, thresholds = _ic_tables(graph)
    lanes = np.arange(keys.size, dtype=np.int64)
    # lane * n + root keys are strictly increasing in lane here.
    visited = _LaneVisited(lanes * n + roots)
    lane_pieces, node_pieces = [lanes], [roots]
    f_nodes, f_lanes = roots, lanes
    coins = 0
    hops_left = _hop_budget(sampler)
    while f_nodes.size and hops_left != 0:
        hops_left -= 1
        starts = indptr[f_nodes]
        degs = indptr[f_nodes + 1] - starts
        total = int(degs.sum())
        if total == 0:
            break  # every lane's frontier is in-edge-free
        coins += total
        # Flat CSR positions of every lane's frontier in-edges: node i's
        # slice lands at [offsets[i], offsets[i+1]) of the gather.
        positions = np.repeat(starts - (np.cumsum(degs) - degs), degs)
        positions += np.arange(total, dtype=np.int64)
        h = np.repeat(keys[f_lanes], degs)
        h += salts[positions]
        live = top53(mix64(h)) < thresholds[positions]
        # Unique (lane, node) keys, sorted: lane-major, each lane's new
        # layer ascending.
        fresh = _sorted_unique(
            np.repeat(f_lanes, degs)[live] * n + sources[positions[live]]
        )
        fresh = fresh[~visited.seen(fresh)]
        if fresh.size == 0:
            break
        visited.add(fresh)
        f_lanes = fresh // n
        f_nodes = fresh - f_lanes * n
        lane_pieces.append(f_lanes)
        node_pieces.append(f_nodes)
    sampler._seen[0] += keys.size
    sampler._seen[1] += coins
    return _assemble(lane_pieces, node_pieces, keys.size)


def ic_sample_one(sampler, key, root: int) -> np.ndarray:
    """One IC set by a node-at-a-time reverse BFS: the per-set reference."""
    graph = sampler.graph
    indptr, sources = graph.in_indptr, graph.in_indices
    salts, thresholds = _ic_tables(graph)
    key = np.uint64(key)
    visited = np.zeros(graph.n, dtype=bool)
    visited[root] = True
    pieces = [np.asarray([root], dtype=np.int32)]
    hops_left = _hop_budget(sampler)
    while hops_left != 0:
        hops_left -= 1
        parts = []
        for v in pieces[-1]:
            lo, hi = indptr[v], indptr[v + 1]
            h = salts[lo:hi] + key
            parts.append(sources[lo:hi][top53(mix64(h)) < thresholds[lo:hi]])
        fresh = np.unique(np.concatenate(parts))
        fresh = fresh[~visited[fresh]]
        if fresh.size == 0:
            break
        visited[fresh] = True
        pieces.append(fresh)
    return np.concatenate(pieces)


# ----------------------------------------------------------------------
# LT
# ----------------------------------------------------------------------
def lt_sample_block(sampler, keys: np.ndarray, pinned=None) -> RRBlock:
    """LT RR sets for a block of set keys (``pinned`` as in :func:`_roots`)."""
    return _chunked(sampler, _lt_lockstep, keys, _roots(sampler, keys, pinned))


def _lt_lockstep(sampler, keys, roots) -> RRBlock:
    graph = sampler.graph
    n = graph.n
    indptr, sources, totals = graph.in_indptr, graph.in_indices, graph.in_weight_totals
    prefix = _lt_prefix(graph)
    lanes = np.arange(keys.size, dtype=np.int64)
    visited = _LaneVisited(lanes * n + roots)
    lane_pieces, node_pieces = [lanes], [roots]
    cursor = roots.copy()  # lane -> current walk node
    walking = lanes
    hop = coins = 0
    hops_left = _hop_budget(sampler)
    while walking.size and hops_left != 0:
        hops_left -= 1
        nodes = cursor[walking]
        # Hop t of every lane is F(key, t): one salt for the whole step.
        u = uniforms(mix64(keys[walking] + counter_salts(hop)))
        hop += 1
        coins += walking.size
        # Stop with the residual probability; an in-edge-free node has
        # total 0, so its walk stops here too.
        kept = u < totals[nodes]
        walking, nodes, u = walking[kept], nodes[kept], u[kept]
        if walking.size == 0:
            break
        # Invert each node's in-edge CDF: one searchsorted over the
        # shared prefix, clipped into the node's own range.
        lo, hi = indptr[nodes], indptr[nodes + 1]
        pos = np.searchsorted(prefix, prefix[lo] + u, side="right") - 1
        np.clip(pos, lo, hi - 1, out=pos)
        nxt = sources[pos].astype(np.int64)
        # `walking` is strictly increasing, so these keys are sorted.
        step_keys = walking * n + nxt
        fresh = ~visited.seen(step_keys)  # a revisit closes the walk
        walking, nxt, step_keys = walking[fresh], nxt[fresh], step_keys[fresh]
        if walking.size == 0:
            break
        visited.add(step_keys)
        lane_pieces.append(walking)
        node_pieces.append(nxt)
        cursor[walking] = nxt
    sampler._seen[0] += keys.size
    sampler._seen[1] += coins
    return _assemble(lane_pieces, node_pieces, keys.size)


def lt_sample_one(sampler, key, root: int) -> np.ndarray:
    """One LT set, hop by hop: the per-set reference walk."""
    graph = sampler.graph
    indptr, sources, totals = graph.in_indptr, graph.in_indices, graph.in_weight_totals
    prefix = _lt_prefix(graph)
    walk = [int(root)]
    hop = 0
    hops_left = _hop_budget(sampler)
    while hops_left != 0:
        hops_left -= 1
        node = walk[-1]
        u = (draw(int(key), hop) >> 11) * 2.0**-53
        hop += 1
        if u >= totals[node]:
            break
        lo, hi = int(indptr[node]), int(indptr[node + 1])
        pos = int(np.searchsorted(prefix, prefix[lo] + u, side="right")) - 1
        nxt = int(sources[min(max(pos, lo), hi - 1)])
        if nxt in walk:
            break
        walk.append(nxt)
    return np.asarray(walk, dtype=np.int32)
