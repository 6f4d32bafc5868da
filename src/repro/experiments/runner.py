"""Uniform algorithm runner used by every figure/table benchmark.

``run_algorithm`` resolves the algorithm name the paper uses in its
legends ("D-SSA", "SSA", "IMM", "TIM+", "TIM", "CELF++", "degree")
through the :mod:`repro.engine.registry` — capability metadata decides
which knobs each algorithm receives, so there is no dispatch chain to
maintain — and returns a flat :class:`RunRecord` holding exactly the
quantities the paper reports (wall time, RR-set count, memory, the seed
set whose quality the influence figures evaluate by Monte Carlo) plus
the execution provenance (``seed``, ``backend``, ``workers``) needed to
reproduce the row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.result import IMResult
from repro.diffusion.spread import estimate_spread
from repro.engine.registry import get_algorithm, list_algorithms
from repro.graph.digraph import CSRGraph
from repro.sampling.backends import ExecutionBackend
from repro.sampling.seedstream import STREAM_ID

#: canonical algorithm names, resolved from the registry.
ALGORITHMS = list_algorithms()


@dataclass
class RunRecord:
    """One algorithm run's metrics, flattened for table rendering.

    ``seed``/``backend``/``workers`` record the execution provenance:
    together with ``algorithm``/``dataset``/``model``/``k``/``epsilon``
    they are sufficient to re-run the row and get byte-identical seeds.
    """

    algorithm: str
    dataset: str
    model: str
    k: int
    epsilon: float
    seconds: float
    rr_sets: int
    memory_bytes: int
    influence_estimate: float
    seeds: list[int] = field(default_factory=list)
    iterations: int = 1
    stopped_by: str = ""
    quality: float | None = None  # filled by evaluate_quality
    seed: int | None = None
    backend: str | None = None
    # Worker count is runtime provenance only: seed-pure streams are
    # byte-identical at any count, so it documents throughput, not the
    # result.  ``seed`` (+ stream_id) alone replays the row.
    workers: int | None = None
    # Kernel name the run was given; accepted for compatibility, it
    # selects nothing.  None for non-sampling algorithms.
    kernel: str | None = None
    # Stream derivation token of the RR sets (e.g. "v3"); None for
    # non-sampling algorithms and records written before seed-pure
    # streams.
    stream_id: str | None = None
    # Mutation lineage position of the graph the run sampled on; None
    # for records written before dynamic graphs (and for one-shot runs
    # on a pristine graph, where it means graph_version 0).
    graph_version: int | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _provenance_seed(seed) -> int | None:
    """An int seed is replayable provenance; a Generator is not."""
    return int(seed) if isinstance(seed, (int, np.integer)) else None


def _provenance_backend(backend) -> str | None:
    if backend is None:
        return None
    if isinstance(backend, ExecutionBackend):
        return backend.name
    return str(backend)


def run_algorithm(
    name: str,
    graph: CSRGraph,
    k: int,
    *,
    model: str = "LT",
    epsilon: float = 0.1,
    delta: float | None = None,
    seed: int | np.random.Generator | None = None,
    dataset: str = "?",
    max_samples: int | None = None,
    celf_simulations: int = 100,
    backend: str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
) -> RunRecord:
    """Run one named algorithm and collect its metrics.

    ``backend``/``workers`` select the RR-sampling execution backend
    (and ``kernel`` is validated and recorded) for the algorithms whose
    registry entry declares the capability; the simulation-based
    baselines ignore them.  Unknown names raise
    :class:`~repro.exceptions.ParameterError`.
    """
    from repro.sampling.base import resolve_kernel

    spec = get_algorithm(name)
    resolved = resolve_kernel(kernel) if spec.supports_kernel else None
    options = {
        "epsilon": epsilon,
        "delta": delta,
        "model": model,
        "seed": seed,
        "max_samples": max_samples,
        "backend": backend,
        "workers": workers,
        "kernel": resolved.name if resolved is not None else kernel,
        "simulations": celf_simulations,
    }
    result = spec.run_one_shot(graph, k, options)
    return _to_record(
        result,
        dataset=dataset,
        model=model,
        k=k,
        epsilon=epsilon,
        seed=_provenance_seed(seed),
        backend=_provenance_backend(backend) if spec.supports_backend else None,
        workers=workers if spec.supports_backend else None,
        kernel=resolved.name if resolved is not None else None,
        stream_id=STREAM_ID if resolved is not None else None,
        graph_version=None,  # one-shot runs sample the pristine snapshot
    )


def _to_record(
    result: IMResult,
    *,
    dataset: str,
    model: str,
    k: int,
    epsilon: float,
    seed: int | None = None,
    backend: str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
    stream_id: str | None = None,
    graph_version: int | None = None,
) -> RunRecord:
    return RunRecord(
        algorithm=result.algorithm,
        dataset=dataset,
        model=model,
        k=k,
        epsilon=epsilon,
        seconds=result.elapsed_seconds,
        rr_sets=result.samples,
        memory_bytes=result.memory_bytes,
        influence_estimate=result.influence,
        seeds=list(result.seeds),
        iterations=result.iterations,
        stopped_by=result.stopped_by,
        seed=seed,
        backend=backend,
        workers=workers,
        kernel=kernel,
        stream_id=stream_id,
        graph_version=graph_version,
    )


def evaluate_quality(
    record: RunRecord,
    graph: CSRGraph,
    *,
    simulations: int = 300,
    seed: int | np.random.Generator | None = None,
) -> RunRecord:
    """Fill ``record.quality`` with a Monte Carlo spread of its seed set.

    This is the y-axis of Figs. 2–3: the *actual* expected influence of
    the returned seeds, measured by forward simulation, independent of
    each algorithm's internal estimate.
    """
    estimate = estimate_spread(
        graph, record.seeds, record.model, simulations=simulations, seed=seed
    )
    record.quality = estimate.mean
    return record
