"""The unified RIS framework's two-step skeleton (Section 3.2).

Every RIS-based IM algorithm reduces to: (1) generate ``θ`` RR sets, (2)
greedy max-coverage.  The Stop-and-Stare algorithms wrap this skeleton in
stopping rules; TIM/TIM+/IMM compute an explicit θ first and then call it
once.  Exposing it directly also gives the library a "static RIS" baseline
for users who already know a sample budget.
"""

from __future__ import annotations

import numpy as np

from repro.core.max_coverage import MaxCoverageResult, max_coverage
from repro.core.result import IMResult
from repro.exceptions import ParameterError
from repro.sampling.base import RRSampler
from repro.sampling.rr_collection import RRCollection
from repro.utils.timer import Timer


def ris_two_step(
    sampler: RRSampler,
    k: int,
    theta: int,
    *,
    collection: RRCollection | None = None,
) -> tuple[MaxCoverageResult, RRCollection]:
    """Generate RR sets up to ``theta`` total, then solve max-coverage.

    An existing ``collection`` holding a prefix of ``sampler``'s stream
    is topped up by position, with sets ``[len(collection), theta)``,
    rather than regenerated.
    """
    if theta < 1:
        raise ParameterError(f"theta must be at least 1, got {theta}")
    if collection is None:
        collection = RRCollection(sampler.graph.n)
    if theta > len(collection):
        collection.extend(sampler.sample_block(np.arange(len(collection), theta)))
    cover = max_coverage(collection, k, start=0, end=theta)
    return cover, collection


def static_ris(
    sampler: RRSampler,
    k: int,
    theta: int,
) -> IMResult:
    """One-shot RIS with a caller-chosen sample budget (no guarantees).

    Useful as a baseline and for exploratory analysis; the approximation
    guarantee only holds when ``theta`` exceeds an RIS threshold
    (Definition 4), which depends on the unknown OPT_k.
    """
    with Timer() as timer:
        cover, collection = ris_two_step(sampler, k, theta)
    return IMResult(
        algorithm="static-RIS",
        seeds=cover.seeds,
        influence=cover.influence_estimate(sampler.scale),
        samples=theta,
        optimization_samples=theta,
        iterations=1,
        stopped_by="theta",
        elapsed_seconds=timer.elapsed,
        memory_bytes=collection.memory_bytes() + sampler.graph.memory_bytes(),
        extras={"coverage": cover.coverage},
    )
