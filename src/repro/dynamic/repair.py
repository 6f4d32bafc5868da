"""Incremental repair of a warm RR pool after a graph mutation.

Seed purity is what makes this exact rather than approximate: stream set
``g`` is a pure function of ``(seed, g, graph)``, so resampling exactly
the invalidated ids via ``sample_block`` on the mutated graph rebuilds a
pool byte-identical to one sampled cold on that graph — on any
execution backend, because the repair runs through the context's own
sampler, on the fleet the pool already samples on.  Coins are keyed on
the edge ``(u, v)``, not on its CSR position: an insertion shifts the
position of every later in-edge, and a position-keyed coin would change
sets the delta never touched.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.dynamic.index import RRSetIndex


def repair_context(ctx, graph, graph_version: int, delta: GraphDelta) -> dict:
    """Rebind ``ctx`` onto the mutated ``graph`` and repair its pool.

    Computes the exact invalidation set from the pool's inverted index,
    registers the context's stream on the new snapshot
    (:meth:`~repro.engine.context.SamplingContext.rebind_graph`), then
    resamples only the invalidated set ids through ``ctx.sampler`` in
    one block: the fleet splits it over its workers, and
    batch-composition invariance keeps each set byte-identical to its
    ``sample_at(g)`` bytes.

    Returns ``{"sets_total", "invalidated", "repaired",
    "repair_fraction"}``.  The caller must hold whatever lock serializes
    pool access (repairs rewrite stored sets in place).
    """
    pool = ctx.pool
    total = len(pool)
    invalid = np.zeros(0, dtype=np.int64)
    if total:
        invalid = RRSetIndex.from_collection(pool).invalidated_by(delta)
    ctx.rebind_graph(graph, graph_version)
    if invalid.size:
        repaired = ctx.sampler.sample_block(np.asarray(invalid, dtype=np.int64))
        pool.replace_many({int(g): rr for g, rr in zip(invalid, repaired)})
    return {
        "sets_total": int(total),
        "invalidated": int(invalid.size),
        "repaired": int(invalid.size),
        "repair_fraction": float(invalid.size) / total if total else 0.0,
    }
