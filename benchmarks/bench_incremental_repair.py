"""Dynamic graphs: incremental pool repair vs cold resample under churn.

After a graph mutation, `repair_context` resamples only the RR sets
whose stored nodes contain a mutated edge's target — the rest of the
warm pool survives untouched.  This benchmark quantifies that against
the alternative (throw the pool away, resample everything cold on the
mutated graph) and enforces the PR's acceptance properties:

* the repaired pool is **byte-identical** to the cold pool, array for
  array, and
* a localized churn batch invalidates a strict **fraction** of the pool
  (repair_fraction < 1), which is where the wall-clock win comes from.

Runs two ways:

* **script mode** — ``python benchmarks/bench_incremental_repair.py
  [--smoke]`` prints the report and writes
  ``results/incremental_repair.txt`` (``--smoke`` shrinks the pool for
  CI);
* **pytest mode** — ``pytest benchmarks/bench_incremental_repair.py``
  asserts the byte-identity and partial-invalidation properties.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # executed as a script, not collected by pytest
    sys.path.insert(0, str(_REPO_ROOT))
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from benchmarks._common import BENCH_SCALE, write_report


def churn_delta(graph, edges: int):
    """A deterministic churn batch: reweight ``edges`` existing edges
    spread evenly across the CSR edge array (duplicate picks on tiny
    graphs collapse — one pair, one op)."""
    from repro.dynamic import GraphDelta

    picks = np.linspace(0, graph.m - 1, num=min(edges, graph.m), dtype=np.int64)
    pairs = {}
    for e in picks:
        u = int(np.searchsorted(graph.out_indptr, e, side="right")) - 1
        v = int(graph.out_indices[e])
        w = float(graph.out_weights[e])
        pairs[(u, v)] = min(0.95, w * 0.5 + 0.01)
    delta = GraphDelta()
    for (u, v), w in pairs.items():
        delta.reweight(u, v, w)
    return delta


def measure_repair(
    *,
    dataset: str = "nethept",
    scale: float = BENCH_SCALE,
    model: str = "IC",
    sets: int = 4000,
    seed: int = 2016,
    churn: int = 8,
    repeats: int = 3,
) -> dict:
    """Repair-vs-cold measurements for one churn batch; returns a dict.

    Each side is timed ``repeats`` times (the repair on a fresh warm
    pool each time) and reports its fastest run.
    """
    from repro.datasets.synthetic import load_dataset
    from repro.dynamic import MutableGraphView
    from repro.dynamic.repair import repair_context
    from repro.engine.context import SamplingContext
    from repro.sampling.base import make_sampler

    graph = load_dataset(dataset, scale=scale)
    delta = churn_delta(graph, churn)
    mutated = MutableGraphView(graph).apply(delta)
    # Build the mutated graph's per-edge coin tables before either timer
    # starts, so neither side pays for them.
    make_sampler(mutated, model, seed).sample_batch(1)

    repair_seconds = cold_seconds = float("inf")
    for _ in range(repeats):
        warm = SamplingContext(graph, model, seed=seed)
        try:
            warm.require(sets)
            start = time.perf_counter()
            stats = repair_context(warm, mutated, 1, delta)
            repair_seconds = min(repair_seconds, time.perf_counter() - start)
            repaired = [warm.pool[i] for i in range(sets)]
        finally:
            warm.close()

        start = time.perf_counter()
        cold_pool = make_sampler(mutated, model, seed).sample_batch(sets)
        cold_seconds = min(cold_seconds, time.perf_counter() - start)

    mismatches = sum(1 for a, b in zip(repaired, cold_pool) if not np.array_equal(a, b))
    return {
        "graph": graph,
        "sets": sets,
        "churn": len(delta),
        "invalidated": stats["invalidated"],
        "repair_fraction": stats["repair_fraction"],
        "repair_seconds": repair_seconds,
        "cold_seconds": cold_seconds,
        "mismatches": mismatches,
    }


def render_report(m: dict, *, dataset: str, model: str) -> str:
    from repro.utils.tables import format_table

    graph = m["graph"]
    rows = [
        [
            m["sets"],
            m["invalidated"],
            f"{m['repair_fraction']:.1%}",
            f"{m['repair_seconds']:.3f}s",
            f"{m['cold_seconds']:.3f}s",
            f"{m['cold_seconds'] / max(m['repair_seconds'], 1e-9):.1f}x",
            "yes" if m["mismatches"] == 0 else f"NO ({m['mismatches']})",
        ]
    ]
    table = format_table(
        [
            "pool",
            "invalidated",
            "repair frac",
            "repair",
            "cold resample",
            "speedup",
            "byte-identical",
        ],
        rows,
        title=(
            f"Incremental repair on {dataset} (n={graph.n}, m={graph.m}), "
            f"model={model}, churn={m['churn']} edges"
        ),
    )
    return table


# ----------------------------------------------------------------------
# Pytest mode
# ----------------------------------------------------------------------
def test_repair_is_byte_identical_and_partial():
    """Acceptance: repaired pool == cold pool; only a fraction resampled."""
    m = measure_repair(scale=0.1, sets=500, churn=4)
    assert m["mismatches"] == 0
    assert 0 < m["invalidated"] < m["sets"]
    assert m["repair_fraction"] < 1.0


# ----------------------------------------------------------------------
# Script mode
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="nethept")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE)
    parser.add_argument("--model", default="IC", choices=["IC", "LT"])
    parser.add_argument("--sets", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--churn", type=int, default=8)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (small graph, small pool), same assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale, args.sets = min(args.scale, 0.2), min(args.sets, 1500)

    m = measure_repair(
        dataset=args.dataset, scale=args.scale, model=args.model,
        sets=args.sets, seed=args.seed, churn=args.churn,
    )
    write_report("incremental_repair", render_report(m, dataset=args.dataset, model=args.model))

    if m["mismatches"]:
        print(f"FAIL: repaired pool diverged from cold resample ({m['mismatches']} sets)")
        return 1
    if m["repair_fraction"] >= 1.0:
        print("FAIL: churn batch invalidated the whole pool (nothing incremental)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
