"""Workload definitions and the seeded operation lists every run executes.

A run's work is fixed by ``(workload, seed, seconds)`` alone: the op
list is generated up front from a ``random.Random`` keyed on the
workload name and seed, and ``seconds`` only sizes it through a fixed
nominal cost per op.  Runs are never time-boxed, so two runs of the same
code at the same arguments execute exactly the same operations.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace

#: set-ups per run (cold: in one process; serving: one per server);
#: ``setup_s`` reports their median.
SETUP_REPS = 3


@dataclass(frozen=True)
class ColdWorkload:
    """Cold D-SSA queries, each on a fresh ``InfluenceEngine``."""

    name: str
    dataset: str
    scale: float
    weights: str
    epsilon: float
    ks: tuple
    backend: "str | None"
    workers: "int | None"
    #: nominal seconds per session: ``seconds`` / this = sessions per run,
    #: but never fewer than ``min_queries`` (the p90 needs a few samples).
    nominal_query_s: float
    min_queries: int
    #: op indices whose answers are cross-checked against one-shot dssa.
    gate_queries: tuple
    #: held-out RR sets ``spread_mean`` scores answers on.
    holdout_sets: int
    #: each session estimates its answer's top ``round(f * k)`` seeds for
    #: every ``f`` here (one estimate alone is a noisy few-ms sample).
    estimate_fractions: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)
    #: relative positions (edge id ``int(pos * m)``) of the edges every
    #: session's closing mutate reweights: a fixed reference write.
    mutate_at: tuple = (1 / 3,)
    model: str = "IC"
    kind: str = "cold"


@dataclass(frozen=True)
class ServeWorkload:
    """A closed loop of mixed ops against ``repro serve``.

    The op list is a run of identical blocks, each shuffled by the seed:
    every (k, epsilon) shape ``maximize_per_shape`` times, then
    ``estimates_per_block`` estimates, with one mutate closing the block.
    """

    name: str
    dataset: str
    scale: float
    model: str
    seed: int
    max_workers: int
    connections: int
    ks: tuple
    epsilons: tuple
    maximize_per_shape: int
    estimates_per_block: int
    #: ``estimate`` ops score this many pooled sets (inside the primed pool).
    estimate_samples: int
    estimate_seeds: int
    #: edges each block's mutate reweights.
    mutate_edges: int
    nominal_op_s: float
    holdout_sets: int
    kind: str = "serve"

    @property
    def block_len(self) -> int:
        shapes = len(self.ks) * len(self.epsilons)
        return shapes * self.maximize_per_shape + self.estimates_per_block + 1


# Why each workload exists, and why these sizes: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        ColdWorkload(
            name="cold-wc",
            dataset="nethept",
            scale=100,
            weights="wc",
            epsilon=0.1,
            ks=(40, 50, 60),
            backend=None,
            workers=None,
            nominal_query_s=1.0,
            min_queries=6,
            gate_queries=(0, 1),
            holdout_sets=100_000,
        ),
        ColdWorkload(
            name="cold-viral-process",
            dataset="twitter",
            scale=3,
            weights="const:0.025",
            epsilon=0.25,
            ks=(5, 10),
            backend="process",
            workers=2,
            nominal_query_s=1.5,
            min_queries=10,
            gate_queries=(0, 1),
            holdout_sets=5_000,
        ),
        ServeWorkload(
            name="serve-lt-mutate",
            dataset="nethept",
            scale=10,
            model="LT",
            seed=7,
            max_workers=2,
            connections=2,
            ks=(5, 10, 20, 50),
            epsilons=(0.1, 0.15, 0.2),
            maximize_per_shape=4,
            estimates_per_block=11,
            estimate_samples=20_000,
            estimate_seeds=10,
            mutate_edges=3,
            nominal_op_s=0.012,
            holdout_sets=20_000,
        ),
    )
}


def smoke(workload):
    """The same workload at tiny sizes (for the benchmark's own test)."""
    if workload.kind == "cold":
        return replace(
            workload, scale=0.2 if workload.dataset == "nethept" else 0.3,
            nominal_query_s=1e9, min_queries=len(workload.ks),
            holdout_sets=2_000,
        )
    return replace(workload, scale=0.3, maximize_per_shape=1, estimates_per_block=2,
                   estimate_samples=500, nominal_op_s=1e9, holdout_sets=2_000)


def _rng(workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{int(seed)}")


def cold_ops(workload: ColdWorkload, seed: int, seconds: float) -> dict:
    """Warm-up seeds for the set-ups, then one session per query.

    A session is a cold ``maximize(k)`` on engine seed ``seed``,
    ``estimate``s of its answer's prefixes, and a ``mutate`` reweighting the
    workload's reference edges by seeded ``factor``s.  The edges stay
    fixed because the repair's cost follows how many pooled sets hold an
    edge's target, which varies several-fold between random edges.
    """
    rng = _rng(workload, seed)
    count = max(workload.min_queries, round(seconds / workload.nominal_query_s))
    count = len(workload.ks) * math.ceil(count / len(workload.ks))
    warmups = [rng.randrange(1, 2**31) for _ in range(SETUP_REPS)]
    ops = []
    for i in range(count):
        ops.append({
            "k": workload.ks[i % len(workload.ks)],
            "seed": rng.randrange(1, 2**31),
            "mutate": [[pos, round(rng.uniform(0.5, 0.9), 6)] for pos in workload.mutate_at],
        })
    return {"warmups": warmups, "ops": ops}


def edge_reweights(graph, mutate) -> list:
    """``(u, v, w * factor)`` for each ``[pos, factor]`` of a cold session
    (duplicate edges collapse to their first occurrence)."""
    import numpy as np

    seen = {}
    for pos, factor in mutate:
        e = min(int(pos * graph.m), graph.m - 1)
        u = int(np.searchsorted(graph.out_indptr, e, side="right") - 1)
        v = int(graph.out_indices[e])
        seen.setdefault((u, v), round(float(graph.out_weights[e]) * factor, 6))
    return [(u, v, w) for (u, v), w in seen.items()]


def serve_ops(workload: ServeWorkload, seed: int, seconds: float, graph) -> dict:
    """Priming ops (every query shape once) and the timed op list.

    Mutations reweight existing edges down (``w * f``, ``f`` in
    [0.5, 0.9]), so LT in-weight sums stay at most 1; no edge is touched
    twice in one run, so each new weight is fixed by the op list alone.
    """
    import numpy as np

    rng = _rng(workload, seed)
    # At least one block for each of the run's servers.
    blocks = max(SETUP_REPS, round(seconds / workload.nominal_op_s / workload.block_len))
    edges = rng.sample(range(graph.m), blocks * workload.mutate_edges)
    sources = np.searchsorted(graph.out_indptr, edges, side="right") - 1

    def maximize(k, epsilon):
        return {"op": "maximize", "k": k, "epsilon": epsilon}

    def estimate():
        seeds = sorted(rng.sample(range(graph.n), workload.estimate_seeds))
        return {"op": "estimate", "seeds": seeds, "samples": workload.estimate_samples}

    def mutate(block):
        picked = range(block * workload.mutate_edges, (block + 1) * workload.mutate_edges)
        return {"op": "mutate", "reweight": [
            [int(sources[e]), int(graph.out_indices[edges[e]]),
             round(float(graph.out_weights[edges[e]]) * rng.uniform(0.5, 0.9), 6)]
            for e in picked
        ]}

    shapes = [maximize(k, e) for e in workload.epsilons for k in workload.ks]
    ops = []
    for block in range(blocks):
        queries = shapes * workload.maximize_per_shape
        queries += [estimate() for _ in range(workload.estimates_per_block)]
        rng.shuffle(queries)
        ops += queries + [mutate(block)]
    return {"priming": shapes + [estimate()], "ops": ops}


def digest(oplist: dict) -> str:
    """Short content hash of an op list (printed with every run)."""
    blob = json.dumps(oplist, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
