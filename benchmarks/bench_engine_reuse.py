"""Engine ablation: warm session queries vs cold one-shot calls.

The `InfluenceEngine` exists for the "condition once, query many times"
workload: one session keeps its execution backend warm and grows the
RR-set pools that every query tops up instead of resampling.  This
benchmark quantifies that for D-SSA (one pool) and SSA (an optimization
pool plus the verification pool Estimate-Inf reads), and enforces:

* a k-sweep of queries through one engine performs **strictly fewer**
  total RR samples, verification included, than the same queries as
  independent one-shot calls (the report prints the cache hit rate), and
* every warm query returns **byte-identical** seeds, influence and
  sample counts to its one-shot counterpart at the same seed.

Runs two ways:

* **script mode** — ``python benchmarks/bench_engine_reuse.py
  [--smoke]`` prints the report and writes
  ``results/engine_reuse.txt`` (``--smoke`` shrinks the graph for CI);
* **pytest mode** — ``pytest benchmarks/bench_engine_reuse.py`` asserts
  the reuse and equivalence properties.
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

from benchmarks._common import BENCH_EPSILON, BENCH_SCALE, write_report


def _answer(result) -> tuple:
    """The fields a warm answer must share with its one-shot."""
    return (
        result.seeds, result.influence, result.samples,
        result.optimization_samples, result.verification_samples,
    )


def measure_reuse(
    *,
    dataset: str = "nethept",
    scale: float = BENCH_SCALE,
    model: str = "LT",
    epsilon: float = BENCH_EPSILON,
    ks: tuple = (2, 5, 10, 15, 20),
    seed: int = 2016,
    backend: str | None = None,
    workers: int | None = None,
    algorithm: str = "D-SSA",
) -> dict:
    """Cold-vs-warm measurements for one k-sweep; returns a stats dict."""
    from repro.datasets.synthetic import load_dataset
    from repro.engine import InfluenceEngine
    from repro.engine.registry import get_algorithm

    graph = load_dataset(dataset, scale=scale)
    one_shot = get_algorithm(algorithm).func

    cold_results = {}
    cold_start = time.perf_counter()
    for k in ks:
        cold_results[k] = one_shot(
            graph, k, epsilon=epsilon, model=model, seed=seed,
            backend=backend, workers=workers,
        )
    cold_seconds = time.perf_counter() - cold_start
    cold_samples = sum(r.samples for r in cold_results.values())

    warm_start = time.perf_counter()
    with InfluenceEngine(
        graph, model=model, seed=seed, backend=backend, workers=workers
    ) as engine:
        warm_results = {
            r.k: r for r in engine.sweep(ks, epsilon=epsilon, algorithm=algorithm)
        }
        stats = engine.stats
    warm_seconds = time.perf_counter() - warm_start

    mismatches = [
        k for k in ks if _answer(warm_results[k]) != _answer(cold_results[k])
    ]
    return {
        "graph": graph,
        "algorithm": algorithm,
        "ks": ks,
        "epsilon": epsilon,
        "cold_samples": cold_samples,
        "cold_seconds": cold_seconds,
        "warm_sampled": stats.rr_sampled,
        "warm_requested": stats.rr_requested,
        "hit_rate": stats.hit_rate,
        "warm_seconds": warm_seconds,
        "mismatches": mismatches,
        "per_k": {
            k: (cold_results[k].samples, warm_results[k].samples) for k in ks
        },
    }


def render_report(m: dict, *, dataset: str, backend: str | None) -> str:
    from repro.utils.tables import format_table

    graph = m["graph"]
    rows = [
        [k, cold, warm, "yes" if k not in m["mismatches"] else "NO"]
        for k, (cold, warm) in m["per_k"].items()
    ]
    table = format_table(
        ["k", "cold RR demand", "warm RR demand", "byte-identical"],
        rows,
        title=(
            f"Engine reuse for {m['algorithm']} on {dataset} (n={graph.n}, "
            f"m={graph.m}), eps={m['epsilon']}, backend={backend or 'serial'}"
        ),
    )
    saved = m["cold_samples"] - m["warm_sampled"]
    lines = [
        table,
        "",
        f"cold: {len(m['ks'])} independent {m['algorithm']} calls sampled "
        f"{m['cold_samples']} RR sets in {m['cold_seconds']:.2f}s",
        f"warm: one engine session sampled {m['warm_sampled']} RR sets "
        f"({m['warm_requested']} demanded, hit rate {m['hit_rate']:.1%}) "
        f"in {m['warm_seconds']:.2f}s",
        f"reuse saved {saved} RR samples "
        f"({saved / max(m['cold_samples'], 1):.1%} of the cold bill)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pytest mode
# ----------------------------------------------------------------------
def test_sweep_reuses_strictly_fewer_samples():
    """Acceptance: 5 engine queries sample strictly less than 5 cold runs."""
    m = measure_reuse(scale=0.2, ks=(2, 4, 6, 8, 10))
    assert m["mismatches"] == [], f"warm != cold at k={m['mismatches']}"
    assert m["warm_sampled"] < m["cold_samples"]
    assert m["hit_rate"] > 0.0


def test_reuse_holds_on_thread_backend():
    m = measure_reuse(scale=0.15, ks=(3, 6), backend="thread", workers=2)
    assert m["mismatches"] == []
    assert m["warm_sampled"] < m["cold_samples"]


def test_ssa_sweep_reuses_its_verification_sets():
    """Warm SSA answers equal cold ssa() calls, and the session samples
    strictly less than they do, verification sets included."""
    m = measure_reuse(scale=0.2, ks=(2, 4, 6, 8, 10), algorithm="SSA")
    assert m["mismatches"] == [], f"warm != cold at k={m['mismatches']}"
    assert m["warm_sampled"] < m["cold_samples"]


def test_ssa_reuse_holds_on_thread_backend():
    m = measure_reuse(scale=0.15, ks=(3, 6), backend="thread", workers=2, algorithm="SSA")
    assert m["mismatches"] == []
    assert m["warm_sampled"] < m["cold_samples"]


# ----------------------------------------------------------------------
# Script mode
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="nethept")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE)
    parser.add_argument("--model", default="LT", choices=["LT", "IC"])
    parser.add_argument("--epsilon", type=float, default=BENCH_EPSILON)
    parser.add_argument("--ks", type=int, nargs="+", default=[2, 5, 10, 15, 20])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (small graph, short sweep), same assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale, args.ks = min(args.scale, 0.2), [2, 4, 6, 8, 10]

    runs = [
        measure_reuse(
            dataset=args.dataset, scale=args.scale, model=args.model,
            epsilon=args.epsilon, ks=tuple(args.ks), seed=args.seed,
            backend=args.backend, workers=args.workers, algorithm=algorithm,
        )
        for algorithm in ("D-SSA", "SSA")
    ]
    write_report(
        "engine_reuse",
        "\n\n".join(render_report(m, dataset=args.dataset, backend=args.backend) for m in runs),
    )

    status = 0
    for m in runs:
        if m["mismatches"]:
            print(f"FAIL: warm {m['algorithm']} diverged from cold at k={m['mismatches']}")
            status = 1
        if not m["warm_sampled"] < m["cold_samples"]:
            print(f"FAIL: warm {m['algorithm']} session did not sample strictly fewer RR sets")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
