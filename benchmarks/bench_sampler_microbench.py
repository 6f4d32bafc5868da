"""Micro-benchmarks of the RIS substrate: the engine vs the per-set reference.

RR-set generation dominates every algorithm's runtime, so its throughput
(sets/second) and the mean RR-set size per (dataset, model) are the
numbers that explain the macro benchmarks.  Mean RR-set size also
determines the per-sample memory in the Figs. 6-7 model.

Every accepted kernel name runs one engine (:mod:`repro.sampling.kernels`:
a lockstep IC path and a lockstep LT path), so this benchmark measures
that engine against the per-set reference loops
(:func:`~repro.sampling.kernels.reference_block`), two ways:

* **pytest mode** (``pytest benchmarks/bench_sampler_microbench.py``) —
  the per-(dataset, model) throughput benchmarks for the engine and the
  reference, plus a smoke run of the matrix;
* **script mode** (``python benchmarks/bench_sampler_microbench.py``) —
  the full matrix over workloads × backends: sets/sec per cell, the
  engine's speedup over the in-process per-set reference, byte-identity
  verdicts (every kernel name, every backend and lockstep blocks of
  widths 1 and 64 hash to the reference), and a machine-readable
  ``BENCH_sampler.json`` that CI's ``perf`` job gates against
  ``benchmarks/baselines/`` (see
  ``benchmarks/check_perf_regression.py``).

Both columns compute the same stream sets, and their timed repeats
alternate: a cell's speedup is the median of paired reference/engine
ratios, so it compares code on identical work under the same machine
load.

The workload matrix spans both cascade regimes: under the paper's
weighted-cascade weights RR sets are small (a handful of nodes), while
constant edge probabilities put IC in its viral regime, where frontiers
are wide.  Absolute sets/sec are machine-specific; the committed
baseline gates on the *relative* speedups, which are not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # executed as a script, not collected by pytest
    sys.path.insert(0, str(_REPO_ROOT))
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from benchmarks._common import BENCH_SCALE, write_report

_BATCH = 2000


# ----------------------------------------------------------------------
# Workload matrix (script mode and the pytest smoke share it)
# ----------------------------------------------------------------------
#: (name, dataset, weighting, model, timed sets).  ``weighting`` is the
#: paper's weighted cascade (None) or a constant edge probability —
#: constant-p IC is the viral regime where frontiers get wide.  Set
#: counts keep one reference pass at a third of a second or more, and
#: give each of four workers a block of a thousand or more small sets
#: (at a few hundred, thread-backend timings of one run were bimodal).
WORKLOADS = (
    ("nethept-wc", "nethept", None, "IC", 8000),
    ("nethept-wc", "nethept", None, "LT", 8000),
    ("twitter-wc", "twitter", None, "IC", 4000),
    ("nethept-p0.3", "nethept", 0.3, "IC", 4000),
    ("twitter-p0.05", "twitter", 0.05, "IC", 300),
)

#: the matrix's columns: the per-set reference loops (in process, the
#: 1.0 of every speedup) and the engine (on each backend).
PATHS = ("reference", "engine")


def _load_workload(dataset: str, weighting, scale: float):
    from repro.datasets.synthetic import load_dataset
    from repro.graph.weights import assign_constant_weights

    graph = load_dataset(dataset, scale=scale)
    if weighting is not None:
        graph = assign_constant_weights(graph, weighting)
    return graph


def _make(graph, model, backend, workers, seed):
    from repro.sampling.base import make_sampler
    from repro.sampling.sharded import ShardedSampler

    if backend == "single":
        return make_sampler(graph, model, seed=seed)
    return ShardedSampler(graph, model, workers, seed=seed, backend=backend)


#: timed repeats per column.  Each repeat times the reference, then the
#: engine on every backend, over the same stream sets; a cell's speedup
#: is the median over repeats of the paired ratio, so machine load that
#: drifts across a run cancels within each pair.
_REPEATS = 5
#: least seconds of one engine timing: an engine pass over a cell's sets
#: can take a few milliseconds, which measures mostly scheduler noise, so
#: a timing repeats passes over the same sets until it lasts this long.
_TIMING_SECONDS = 0.3


def _time_reference(sampler, indices) -> float:
    """Seconds for the per-set reference to compute ``indices``."""
    from repro.sampling.kernels import reference_block

    start = time.perf_counter()
    reference_block(sampler, indices)
    return time.perf_counter() - start


def _time_engine(sampler, indices, passes: int = 1) -> float:
    """Seconds per ``sample_block`` pass over the same ``indices``."""
    start = time.perf_counter()
    for _ in range(passes):
        sampler.sample_block(indices)
    return (time.perf_counter() - start) / passes


def _time_workload(graph, model, args, sets) -> "tuple[float, dict, dict, float]":
    """Median reference seconds, median engine seconds and paired
    speedup per backend, all over the same ``sets`` stream sets, plus
    their mean RR size."""
    from repro.sampling.base import make_sampler
    from repro.sampling.kernels import reference_block

    indices = np.arange(sets, dtype=np.int64)
    reference = make_sampler(graph, model, seed=args.seed)
    engines = {b: _make(graph, model, b, args.workers, args.seed) for b in args.backends}
    try:
        # Untimed first passes build tables and caches and spin workers
        # up; a second engine pass sizes each engine timing.
        mean_size = sum(rr.size for rr in reference_block(reference, indices)) / sets
        passes = {}
        for backend, sampler in engines.items():
            _time_engine(sampler, indices)
            passes[backend] = max(1, math.ceil(_TIMING_SECONDS / _time_engine(sampler, indices)))
        ref_times, engine_times = [], {b: [] for b in engines}
        for _ in range(_REPEATS):
            ref_times.append(_time_reference(reference, indices))
            for backend, sampler in engines.items():
                engine_times[backend].append(_time_engine(sampler, indices, passes[backend]))
    finally:
        for sampler in engines.values():
            sampler.close()
    speedups = {
        b: statistics.median(r / e for r, e in zip(ref_times, times))
        for b, times in engine_times.items()
    }
    engine_seconds = {b: statistics.median(times) for b, times in engine_times.items()}
    return statistics.median(ref_times), engine_seconds, speedups, mean_size


def run_matrix(args: argparse.Namespace) -> dict:
    """Measure the engine × backend matrix; returns the JSON payload."""
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    rows = []
    speedups: dict[str, dict] = {}

    def row(name, dataset, weighting, model, path, backend, sets, seconds, mean_size, speedup):
        rows.append(
            {
                "workload": name,
                "dataset": dataset,
                "weighting": "wc" if weighting is None else f"p={weighting}",
                "model": model,
                "path": path,
                "backend": backend,
                "workers": 1 if backend == "single" else args.workers,
                "sets": sets,
                "seconds": round(seconds, 4),
                "sets_per_sec": round(sets / seconds, 1),
                "mean_rr_size": round(mean_size, 2),
                "speedup_vs_reference": round(speedup, 3),
            }
        )
        print(
            f"  {name:>14} {model} {backend:>7} {path:>9}: "
            f"{sets / seconds:9.1f} sets/s ({speedup:5.2f}x reference)",
            flush=True,
        )

    for name, dataset, weighting, model, sets in WORKLOADS:
        if args.smoke:
            sets = max(50, sets // 10)
        graph = _load_workload(dataset, weighting, args.scale)
        ref_seconds, engine_seconds, paired, mean_size = _time_workload(
            graph, model, args, sets
        )
        row(name, dataset, weighting, model, "reference", "single", sets, ref_seconds,
            mean_size, 1.0)
        for backend, seconds in engine_seconds.items():
            speedup = paired[backend]
            speedups[f"{name}/{model}/{backend}"] = {
                "reference": 1.0, "engine": round(speedup, 3),
            }
            row(name, dataset, weighting, model, "engine", backend, sets, seconds,
                mean_size, speedup)
    identity = _byte_identity_check(args)
    return {
        "schema": "repro-bench-sampler/1",
        "generated_by": "benchmarks/bench_sampler_microbench.py",
        "config": {
            "scale": args.scale,
            "seed": args.seed,
            "workers": args.workers,
            "backends": list(args.backends),
            "smoke": bool(args.smoke),
            "cpus": cpus,
        },
        "rows": rows,
        "speedups": speedups,
        "byte_identity": identity,
    }


def _byte_identity_check(args: argparse.Namespace) -> dict:
    """The stream contract this benchmark's numbers are only meaningful
    under: every kernel name on a plain sampler, the engine on each
    measured backend, and lockstep blocks of widths 1 and 64 all emit
    the per-set reference's bytes."""
    from repro.sampling.base import make_sampler
    from repro.sampling.kernels import KERNEL_NAMES, reference_block

    graph = _load_workload("nethept", None, args.scale)
    verdict = {}
    for model in ("IC", "LT"):
        indices = np.arange(400)
        reference = reference_block(make_sampler(graph, model, seed=args.seed), indices)

        def same(sets) -> bool:
            return all(np.array_equal(a, b) for a, b in zip(sets, reference))

        verdict[f"{model}-names"] = all(
            same(make_sampler(graph, model, seed=args.seed, kernel=name).sample_batch(400))
            for name in KERNEL_NAMES
        )
        for backend in args.backends:
            sampler = _make(graph, model, backend, 3, args.seed)
            try:
                verdict[f"{model}-{backend}"] = same(sampler.sample_batch(400))
            finally:
                sampler.close()
        sampler = make_sampler(graph, model, seed=args.seed)
        for width in (1, 64):
            blocked = []
            for s in range(0, 400, width):
                blocked.extend(sampler.sample_block(indices[s : s + width]))
            verdict[f"{model}-width-{width}"] = same(blocked)
    return verdict


def render_report(payload: dict) -> str:
    from repro.utils.tables import format_table

    table_rows = [
        [
            r["workload"],
            r["model"],
            r["backend"],
            r["path"],
            r["mean_rr_size"],
            r["sets_per_sec"],
            f"{r['speedup_vs_reference']:.2f}x",
        ]
        for r in payload["rows"]
    ]
    config = payload["config"]
    report = format_table(
        ["workload", "model", "backend", "path", "mean RR size", "sets/s", "vs reference"],
        table_rows,
        title=(
            f"Sampler engine microbenchmark (scale={config['scale']}, "
            f"workers={config['workers']}, {config['cpus']} CPU(s) visible)"
        ),
    )
    identity = payload["byte_identity"]
    report += (
        "\nbyte-identity with the per-set reference: "
        + ", ".join(f"{k}={'OK' if v else 'MISMATCH'}" for k, v in identity.items())
    )
    report += (
        "\nnote: the reference runs in process, one set at a time (IC a node "
        "at a time); every backend's engine cell is compared with it."
    )
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Full stand-in sizes by default (the macro benches' BENCH_SCALE knob
    # shrinks figure sweeps; the matrix wants nethept-scale graphs).
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--backends", nargs="+", default=["single", "thread"],
        choices=["single", "serial", "thread", "process", "network"],
        help="'single' is a plain (unsharded) sampler; the rest are "
        "ShardedSampler execution backends ('network' self-hosts a "
        "loopback TCP worker fleet per cell)",
    )
    parser.add_argument("--workers", type=int, default=4,
                        help="workers for sharded backends")
    parser.add_argument(
        "--json", default=str(_REPO_ROOT / "BENCH_sampler.json"),
        metavar="PATH", help="machine-readable output (the CI perf artifact)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="10x fewer sets per cell (CI tier / quick checks)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(
        f"sampler engine matrix: backends={args.backends}, "
        f"workers={args.workers}, scale={args.scale}",
        flush=True,
    )
    payload = run_matrix(args)
    write_report("sampler_kernels", render_report(payload))
    json_path = Path(args.json)
    json_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"[bench json written to {json_path}]")
    if not all(payload["byte_identity"].values()):
        print("FAIL: a kernel name, backend or block width changed the stream",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Pytest mode
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # script mode without pytest installed
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("model", ["LT", "IC"])
    @pytest.mark.parametrize("dataset", ["nethept", "twitter"])
    def test_bench_rr_generation(benchmark, dataset, model, path):
        from repro.datasets.synthetic import load_dataset
        from repro.sampling.base import make_sampler
        from repro.sampling.kernels import reference_block

        graph = load_dataset(dataset, scale=BENCH_SCALE)
        sampler = make_sampler(graph, model, seed=1)
        if path == "engine":
            benchmark.pedantic(sampler.sample_batch, args=(_BATCH,), rounds=2, iterations=1)
        else:
            benchmark.pedantic(
                reference_block, args=(sampler, np.arange(_BATCH)), rounds=2, iterations=1
            )

    def test_kernel_matrix_smoke(benchmark, tmp_path):
        """The script-mode matrix, miniaturized: runs end to end, writes
        the report, every byte-identity verdict holds, and the engine
        beats the per-set reference in the viral-regime cell."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        args = build_parser().parse_args(
            ["--smoke", "--backends", "single", "--json", str(tmp_path / "bench.json")]
        )
        payload = run_matrix(args)
        write_report("sampler_kernels", render_report(payload))
        assert all(payload["byte_identity"].values())
        viral = payload["speedups"]["twitter-p0.05/IC/single"]["engine"]
        assert viral > 1.5, f"engine only {viral}x the per-set reference in the viral regime"

    def test_rr_size_report(benchmark):
        from repro.datasets.synthetic import load_dataset
        from repro.sampling.base import make_sampler
        from repro.utils.tables import format_table

        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows = []
        for dataset in ("nethept", "netphy", "dblp", "twitter"):
            graph = load_dataset(dataset, scale=BENCH_SCALE)
            for model in ("LT", "IC"):
                sampler = make_sampler(graph, model, seed=2)
                sampler.sample_batch(_BATCH)
                mean_size = sampler.entries_generated / sampler.sets_generated
                rows.append([dataset, model, graph.n, graph.m, round(mean_size, 2)])
        write_report(
            "sampler_rr_sizes",
            format_table(
                ["dataset", "model", "n", "m", "mean RR-set size"],
                rows,
                title=f"Mean RR-set sizes ({_BATCH} sets per cell)",
            ),
        )
        assert all(row[4] >= 1.0 for row in rows)

    def test_bench_max_coverage(benchmark):
        """Greedy max-coverage cost on a realistic pool (k=50, 20k RR sets)."""
        from repro.core.max_coverage import max_coverage
        from repro.datasets.synthetic import load_dataset
        from repro.sampling.base import make_sampler
        from repro.sampling.rr_collection import RRCollection

        graph = load_dataset("twitter", scale=BENCH_SCALE)
        sampler = make_sampler(graph, "LT", seed=3)
        pool = RRCollection(graph.n)
        pool.extend(sampler.sample_batch(20_000))
        benchmark.pedantic(max_coverage, args=(pool, 50), rounds=2, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
