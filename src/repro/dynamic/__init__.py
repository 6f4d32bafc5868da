"""Dynamic graphs: a mutation API over :class:`CSRGraph` snapshots plus
incremental RR-set maintenance under edge churn.

The rest of the library treats a graph as one immutable snapshot.  This
package makes that snapshot *versioned*: a :class:`MutableGraphView`
accepts batched mutations (:class:`GraphDelta` — edge inserts, deletes,
probability reweights) and compiles each batch into a fresh immutable
``CSRGraph`` with a monotone ``graph_version`` and a content hash
(:meth:`CSRGraph.fingerprint`), so every consumer — pools, spills,
shared-memory manifests, provenance records — can tell exactly which
graph a piece of state belongs to.

The maintenance layer keeps warm RR pools alive across mutations instead
of throwing them away: an :class:`RRSetIndex` (node → containing-sets
inverted index) computes the exact invalidation set of a delta, and
:func:`repair_context` registers the pool's stream on the new snapshot,
on the fleet it already samples on, and resamples *only* those sets
there — byte-identical to a cold resample, because set ``g`` is a pure
function of ``(seed, g, graph)`` and the untouched sets provably could
not have observed the mutation (see :class:`RRSetIndex` for the
invalidation rule and its soundness argument).
"""

from repro.dynamic.delta import GraphDelta, as_delta
from repro.dynamic.index import RRSetIndex
from repro.dynamic.repair import repair_context
from repro.dynamic.view import MutableGraphView

__all__ = [
    "GraphDelta",
    "MutableGraphView",
    "RRSetIndex",
    "as_delta",
    "repair_context",
]
