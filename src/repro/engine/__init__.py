"""Session-oriented query engine for influence maximization.

The paper's Stop-and-Stare algorithms exist to answer IM *queries* at
scale, but one-shot functions pay the full setup cost — graph
validation, execution-backend spawn, RR sampling from zero — on every
call.  This package turns that around with the "condition once, query
many times" economics of probabilistic databases:

* :class:`~repro.engine.engine.InfluenceEngine` — a context-managed
  session bound to ``(graph, model, seed, backend, workers)`` that keeps
  its execution backend warm and serves ``maximize`` / ``sweep`` /
  ``estimate`` queries against persistent RR-set pools;
* :class:`~repro.engine.context.SamplingContext` — the warm sampling
  state (one backend acquire, one growing
  :class:`~repro.sampling.rr_collection.RRCollection`) that both the
  engine and the one-shot wrappers run algorithm bodies on;
* the **algorithm registry**
  (:func:`~repro.engine.registry.register_algorithm`) — first-class
  algorithm metadata (needs-RR-sets, supported backends, horizon
  support) that the engine, ``run_algorithm``, ``compare``, and the CLI
  all resolve through.

Because the RR stream is a pure function of the seed alone —
independent of batching, backend, and worker count (counter-based
draws; see :mod:`repro.sampling.seedstream`) — a warm session's
cached pool is the byte-exact prefix of any cold run's stream, so
repeated queries *top up* instead of resampling while returning
byte-identical results to the one-shot functions at equal seeds, and
``workers`` can be retuned per query or mid-session
(:meth:`~repro.engine.engine.InfluenceEngine.resize`) for free.

Sessions are thread-safe and bounded: pool state lives in a
:class:`~repro.service.pool.PoolManager` (immutable per-query
snapshots, byte budget with LRU eviction, disk spill/reattach); the
multi-user front — named sessions, futures, TCP — is
:mod:`repro.service`.
"""

from repro.engine.context import SamplingContext
from repro.engine.engine import EngineStats, InfluenceEngine
from repro.engine.registry import (
    AlgorithmSpec,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    registry_table,
)

__all__ = [
    "InfluenceEngine",
    "EngineStats",
    "SamplingContext",
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "registry_table",
]
