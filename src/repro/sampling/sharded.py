"""Parallel RR-set generation — the paper's distributed future work, real.

Section 1 notes the algorithms "are amenable to a distributed
implementation which is one of our future works": RR sets are i.i.d., so
W workers can sample independently and a coordinator can merge their
streams; every Stop-and-Stare guarantee only needs the merged stream to
be i.i.d. RR sets.

:class:`ShardedSampler` *is* that coordinator.  Stream set ``g`` is a
pure function of ``(seed, g)`` — every draw it makes, its root
included, is a counter-based function of its key ``F(seed, g)``
(:mod:`repro.sampling.seedstream`) — so which worker computes which set
carries no weight.  The coordinator registers its stream on a pluggable
:class:`~repro.sampling.backends.base.ExecutionBackend` (the pools of an
engine session share one), hands each index batch whole to it, which
alone decides the split, and concatenates the blocks it returns:

* ``serial`` — one in-process kernel sampler computes the batch, no
  transport;
* ``thread`` — contiguous runs of the batch run on a persistent thread
  pool;
* ``process`` — contiguous runs go to persistent OS processes that
  attach the CSR graph through shared memory and exchange only index/RR
  batches;
* ``network`` — contiguous runs go to remote hosts over TCP that receive
  the graph as a content-addressed blob and serve batches under
  heartbeat leases (hosts may join, crash, or expire mid-stream; the
  backend splits each batch over the live fleet and resends lost runs
  byte-identically).

Because workers hold no stream state, the merged stream is a pure
function of the **seed alone** — independent of the backend, of how
callers batch their demands, *and of the worker count*.  ``workers`` is
a throughput knob: :meth:`ShardedSampler.resize` grows or shrinks the
fleet mid-stream without changing a byte, and a pool sampled at W=4
continues at W=16.  That invariance is what lets a warm
:class:`~repro.engine.engine.InfluenceEngine` session reuse a cached RR
pool as the byte-exact prefix of any cold run.  :class:`ShardedSampler`
remains a drop-in :class:`~repro.sampling.base.RRSampler`, so
``ssa(...)`` / ``dssa(...)`` run on it unchanged, and every
:class:`~repro.engine.context.SamplingContext` samples through one; see
``tests/sampling/test_backends.py`` and
``tests/sampling/test_elastic.py`` for the equivalence and unbiasedness
checks.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.models import DiffusionModel
from repro.exceptions import SamplingError
from repro.graph.digraph import CSRGraph
from repro.sampling.backends import (
    ExecutionBackend,
    SerialBackend,
    StreamSpec,
    backend_key,
    default_worker_count,
    make_backend,
)
from repro.sampling.base import RRSampler
from repro.sampling.block import RRBlock
from repro.sampling.roots import UniformRoots, WeightedRoots


class ShardedSampler(RRSampler):
    """RR sampler that fans one stream out over a fleet's workers.

    Parameters
    ----------
    graph, model:
        As for :func:`repro.sampling.base.make_sampler`.
    workers:
        Initial worker count (``None``: :func:`default_fleet`'s pick) —
        pure throughput, resizable at runtime via :meth:`resize`; the
        stream is identical at every value.
    seed, roots:
        Stream seed (every set key derives from it) and root
        distribution (shipped to workers — each set's root is drawn from
        the set's own key, so WRIS shards exactly like RIS).
    backend:
        A *started* :class:`ExecutionBackend` is borrowed (an engine
        session's pools borrow its fleet): :meth:`close` only releases
        the stream's registration.  Anything else — a name
        (``"serial"``, ``"thread"``, ``"process"``, ``"network"``), an
        unstarted instance, or ``None`` for :func:`default_fleet`'s pick
        (serial at one worker, threads above one) — is started here and
        closed by :meth:`close`.
    kernel:
        Accepted kernel name (see :mod:`repro.sampling.kernels`); it
        selects nothing and never reaches the workers.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: "str | DiffusionModel",
        workers: int | None,
        seed=None,
        *,
        roots: "UniformRoots | WeightedRoots | None" = None,
        max_hops: int | None = None,
        backend: "str | ExecutionBackend | None" = None,
        kernel=None,
    ) -> None:
        self.model = DiffusionModel.parse(model)
        super().__init__(graph, seed, roots=roots, max_hops=max_hops, kernel=kernel)
        self._owns_backend = not (isinstance(backend, ExecutionBackend) and backend.started)
        if self._owns_backend:
            backend, workers = default_fleet(backend, workers)
            backend = make_backend(backend)
            backend.start(workers)
        self.backend = backend
        seed = self.seed_stream
        self._stream = StreamSpec(self.model, seed.entropy, seed.spawn_key, self.roots, max_hops)
        try:
            self.registration = backend.register(graph, self._stream)
        except BaseException:
            if self._owns_backend:
                backend.close()
            raise

    # ------------------------------------------------------------------
    # RRSampler interface
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """The fleet's worker count (a throughput knob; see :meth:`resize`)."""
        return self.backend.workers

    def _sample_keys(self, keys, roots):  # pragma: no cover
        raise SamplingError(
            "ShardedSampler computes sets in workers; use sample()/"
            "sample_batch()/sample_block()"
        )

    def sample_block(self, indices, roots=None) -> RRBlock:
        """Compute an arbitrary index batch across the fleet.

        Workers serve their runs through the lockstep block path, so
        batch-composition invariance holds end to end: entry ``i`` equals
        ``sample_at(indices[i])`` byte for byte at any worker count.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return RRBlock.pack(())
        return RRBlock.concat(self.backend.sample_shards(self.registration, indices, roots))

    def sample_batch(self, count: int) -> RRBlock:
        """Fan the next ``count`` global indices out, merged in index order.

        The batch covers global indices ``cursor .. cursor+count-1``.
        Every set is self-contained (its draws and root derive from
        ``g`` alone), so the merged stream is the same for any batching,
        any backend, and any worker count — including a :meth:`resize`
        between batches.
        """
        if count <= 0:
            return RRBlock.pack(())
        base = self._cursor
        merged = RRBlock.concat(
            self.backend.sample_shards(
                self.registration, np.arange(base, base + count, dtype=np.int64)
            )
        )
        self._cursor = base + count
        self.sets_generated += count
        self.entries_generated += int(merged.flat.size)
        return merged

    def rebind(self, graph: CSRGraph) -> None:
        """Move the stream onto another graph snapshot of the same fleet:
        only the bytes the graph decides change.  Releasing first lets
        the old snapshot go before the new one is laid out."""
        self.backend.release(self.registration)
        self.registration = self.backend.register(graph, self._stream)
        self.graph = graph

    # ------------------------------------------------------------------
    # Elastic fleet
    # ------------------------------------------------------------------
    def resize(self, workers: int) -> None:
        """Change the fleet's worker count mid-stream (byte-invisible).

        Seed-pure derivation makes the fleet size pure throughput: the
        backend splits the next batch over the new count.
        """
        self.backend.resize(workers)

    # ------------------------------------------------------------------
    # Diagnostics / lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the stream, and the fleet if this sampler started it."""
        self.backend.release(self.registration)
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ShardedSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def default_fleet(
    backend: "str | ExecutionBackend | None", workers: int | None
) -> "tuple[str | ExecutionBackend, int]":
    """The ``(backend, workers)`` a fleet runs when the caller leaves
    either open.

    ``workers=None`` is one worker on the serial backend (named or not)
    and this machine's CPU count on any other; ``backend=None`` is
    serial in-process at one worker and threads above one.  Every
    fleet a :class:`ShardedSampler` or an engine session starts follows
    this rule, and so does a session's resize.
    """
    if workers is None:
        serial = backend is None or backend_key(backend) == SerialBackend.name
        workers = 1 if serial else default_worker_count()
    elif workers < 1:
        raise SamplingError(f"workers must be >= 1, got {workers}")
    if backend is None:
        backend = "serial" if workers == 1 else "thread"
    return backend, int(workers)


def make_parallel_sampler(
    graph: CSRGraph,
    model: "str | DiffusionModel",
    seed=None,
    *,
    roots: "UniformRoots | WeightedRoots | None" = None,
    max_hops: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    workers: int | None = None,
    kernel=None,
) -> ShardedSampler:
    """Factory: a :class:`ShardedSampler` on a borrowed started fleet,
    or on the fleet :func:`default_fleet` picks for ``(backend, workers)``.

    Callers should ``close()`` the returned sampler when done.
    """
    return ShardedSampler(
        graph,
        model,
        workers,
        seed,
        roots=roots,
        max_hops=max_hops,
        backend=backend,
        kernel=kernel,
    )
