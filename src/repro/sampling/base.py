"""Common RR-sampler interface.

A sampler owns a graph, a root distribution, and a counter-based stream
key, and produces RR sets — the nodes that can reach a random root in a
random sampled subgraph (Definition 2) — as flat
:class:`~repro.sampling.block.RRBlock` batches.

**The seed-pure stream contract.**  Every draw of set ``g`` — its root,
each IC edge coin, each LT hop — is a counter-based function of the
set's key ``key_g = F(seed, g)`` (see :mod:`repro.sampling.seedstream`),
so the stream is a pure function of the seed alone — independent of
batching, of the execution backend, of the worker count, and of any
resize in between.  :meth:`RRSampler.sample_block` computes any sets by
index; a warm pool's length is its stream position
(:class:`~repro.engine.context.SamplingContext` tops it up by index).
Every consumer in the library reads by position: SSA's verification,
budgeted D-SSA, the sweep and :func:`~repro.core.framework.ris_two_step`
included.  The cursor (:meth:`RRSampler.sample`,
:meth:`RRSampler.sample_batch` and the lifetime ``sets_generated`` and
``entries_generated`` counters) stays for callers that read a stream in
order.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.diffusion.models import DiffusionModel
from repro.graph.digraph import CSRGraph
from repro.sampling.block import RRBlock
from repro.sampling.kernels import SamplingKernel, make_kernel
from repro.sampling.roots import UniformRoots, WeightedRoots
from repro.sampling.seedstream import STREAM_ID, SeedStream

#: validates a ``kernel=`` name; kept under the name sessions have
#: always resolved kernels by (names select nothing any more).
resolve_kernel = make_kernel


class RRSampler(abc.ABC):
    """Abstract generator of random Reverse Reachable sets."""

    model: DiffusionModel

    def __init__(
        self,
        graph: CSRGraph,
        seed: "int | np.random.Generator | np.random.SeedSequence | None" = None,
        *,
        roots: "UniformRoots | WeightedRoots | None" = None,
        max_hops: int | None = None,
        kernel: "str | SamplingKernel | None" = None,
    ) -> None:
        if max_hops is not None and max_hops < 0:
            raise ValueError(f"max_hops must be non-negative, got {max_hops}")
        self.graph = graph
        # The stream identity: every draw derives from this key, a global
        # set index and what the draw decides, nothing else.  A Generator
        # seed contributes only its SeedSequence.
        self.seed_stream = SeedStream(seed)
        self.roots = roots if roots is not None else UniformRoots(graph.n)
        # Accepted for compatibility and reported back; selects nothing.
        self.kernel = make_kernel(kernel)
        # Horizon for time-critical IM: an RR set only reaches nodes within
        # max_hops reverse steps, mirroring a cascade truncated after
        # max_hops rounds.  None = unbounded (the paper's setting).
        self.max_hops = max_hops
        self._cursor = 0  # global index of the next auto-indexed set
        self.sets_generated = 0
        self.entries_generated = 0
        # Running [sets, coins] over every set this sampler computed: the
        # lockstep chunk width reads it (throughput only; see
        # repro.sampling.kernels).
        self._seen = [0, 0]

    @property
    def stream_id(self) -> str:
        """Stream-compatibility token of the derivation.

        Two samplers of the same configuration produce byte-identical
        streams iff their ``stream_id`` matches; pools and spill stamps
        key on it.
        """
        return STREAM_ID

    @property
    def scale(self) -> float:
        """Estimator scale Γ: n for RIS, total benefit for WRIS.

        ``Î(S) = Γ · Cov(S) / |R|`` is the (weighted) influence estimate.
        """
        return self.roots.total_benefit

    @abc.abstractmethod
    def _sample_keys(self, keys: np.ndarray, roots) -> RRBlock:
        """The model's RR sets for a block of set keys (``roots`` as in
        :meth:`sample_block`)."""

    def sample_block(self, indices, roots=None) -> RRBlock:
        """Compute an arbitrary batch of stream sets by global index.

        Set ``g``'s bytes are the same in any block, at any width, under
        any neighbours (batch-composition invariance,
        ``docs/INVARIANTS.md``).  ``roots`` optionally pins roots
        positionally; a negative entry means "this set draws its own
        root" (the backends' wire convention).  Pure in ``(seed,
        indices, roots)`` — cursor and lifetime counters are untouched.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return RRBlock.pack(())
        return self._sample_keys(self.seed_stream.keys(indices), roots)

    def sample_at(self, index: int, root: int | None = None) -> np.ndarray:
        """Compute stream set ``index`` (its own root unless given).

        Pure in ``(seed, index)`` — it neither reads nor advances the
        sampler's own cursor, so any worker anywhere can compute any
        set.  Lifetime counters are the caller's business.
        """
        return self.sample_block([index], None if root is None else [root])[0]

    def sample(self, root: int | None = None) -> np.ndarray:
        """Generate the next stream set; a uniform/weighted random root
        drawn from the set's own key by default."""
        rr = self.sample_at(self._cursor, root)
        self._cursor += 1
        self.sets_generated += 1
        self.entries_generated += int(rr.size)
        return rr

    def sample_batch(self, count: int) -> RRBlock:
        """Generate ``count`` RR sets.

        Each set is a pure function of ``(seed, global index)``, so the
        stream never depends on how draws are batched:
        ``sample_batch(a); sample_batch(b)`` equals ``sample_batch(a+b)``
        set for set.  Warm query sessions rely on this prefix property to
        treat a cached pool as the exact head of any cold run's stream.
        """
        if count <= 0:
            return RRBlock.pack(())
        base = self._cursor
        batch = self.sample_block(np.arange(base, base + count, dtype=np.int64))
        self._cursor = base + count
        self.sets_generated += count
        self.entries_generated += int(batch.flat.size)
        return batch

    def close(self) -> None:
        """Release execution resources; no-op for in-process samplers.

        Parallel samplers (:class:`repro.sampling.sharded.ShardedSampler`
        on the process backend) override this to tear down worker pools,
        so algorithm code can unconditionally ``close()`` in a finally.
        """


def make_sampler(
    graph: CSRGraph,
    model: "str | DiffusionModel",
    seed: "int | np.random.Generator | np.random.SeedSequence | None" = None,
    *,
    roots: "UniformRoots | WeightedRoots | None" = None,
    max_hops: int | None = None,
    kernel: "str | SamplingKernel | None" = None,
) -> RRSampler:
    """Factory: the right sampler class for a diffusion model.

    >>> from repro.graph import cycle_graph, assign_weighted_cascade
    >>> s = make_sampler(assign_weighted_cascade(cycle_graph(4)), "LT", seed=0)
    >>> s.model.value
    'LT'
    """
    from repro.sampling.ic_sampler import ICSampler
    from repro.sampling.lt_sampler import LTSampler

    parsed = DiffusionModel.parse(model)
    cls = ICSampler if parsed is DiffusionModel.IC else LTSampler
    return cls(graph, seed, roots=roots, max_hops=max_hops, kernel=kernel)

