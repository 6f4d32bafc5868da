"""CI gate: the merged RR stream is seed-pure (elastic-worker equivalence).

Hashes the RR stream under every accepted kernel name and fails unless
they all agree, on IC and on LT (the cross-name cell).  Then hashes the
merged stream for workers ∈ {1, 2, 4} across execution backends plus a
mid-stream resize (W=1 → W=4), lockstep blocks of widths {1, 7, 64}
against the per-set reference loops, and a mutate-then-repair pool on
every backend (the repair resamples through the pool's own fleet)
against a cold resample — and fails if any cell's hash differs from the
plain (coordinator-free) sampler's.  Names never reach a worker or a
draw, so the cross-name cell is their one check; the other cells run
under the default name.  This is the externally checkable form of the
library's core contract: ``workers``, ``backend``, block width and
kernel name are throughput knobs or labels — the stream is a pure
function of the seed alone.

Runs in seconds to a minute (it samples a few hundred sets per cell);
CI's ``perf`` job runs it next to the kernel microbenchmark.  Exit
codes: 0 = every cell matches, 1 = divergence (a correctness bug, not a
perf regression).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # executed as a script, not collected by pytest
    sys.path.insert(0, str(_REPO_ROOT))
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from benchmarks._common import write_report

WORKER_COUNTS = (1, 2, 4)
BATCH_WIDTHS = (1, 7, 64)


def stream_hash(rr_sets) -> str:
    digest = hashlib.sha256()
    for rr in rr_sets:
        digest.update(np.ascontiguousarray(rr, dtype=np.int32).tobytes())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def run(args: argparse.Namespace) -> "tuple[list[str], bool]":
    from repro.datasets.synthetic import load_dataset
    from repro.sampling.base import make_sampler
    from repro.sampling.kernels import KERNEL_NAMES, reference_block
    from repro.sampling.sharded import ShardedSampler

    graph = load_dataset(args.dataset, scale=args.scale)
    lines = [
        f"stream equivalence on {args.dataset} (scale={args.scale}, "
        f"seed={args.seed}, {args.sets} sets, model={args.model})"
    ]
    ok = True

    def check(label: str, got: str, want: str) -> None:
        nonlocal ok
        ok &= got == want
        lines.append(f"    {label}: {got} {'OK' if got == want else 'MISMATCH'}")

    # Cross-name cell: every accepted kernel name is one stream, on IC
    # and on LT, whichever model the rest of the run checks.
    lines.append("  every kernel name, one stream:")
    for model in ("IC", "LT"):
        hashes = {
            name: stream_hash(
                make_sampler(graph, model, args.seed, kernel=name).sample_batch(args.sets)
            )
            for name in KERNEL_NAMES
        }
        for name, got in hashes.items():
            check(f"{model} {name:>10}", got, hashes[KERNEL_NAMES[0]])

    reference = stream_hash(make_sampler(graph, args.model, args.seed).sample_batch(args.sets))
    lines.append(f"  plain sampler = {reference}")
    for backend in args.backends:
        for workers in WORKER_COUNTS:
            sampler = ShardedSampler(graph, args.model, workers, seed=args.seed, backend=backend)
            try:
                got = stream_hash(sampler.sample_batch(args.sets))
            finally:
                sampler.close()
            check(f"{backend:>7} W={workers}", got, reference)
        # mid-stream resize: W=1 for the first half, W=4 for the rest
        sampler = ShardedSampler(graph, args.model, 1, seed=args.seed, backend=backend)
        try:
            first = sampler.sample_batch(args.sets // 2)
            sampler.resize(4)
            second = sampler.sample_batch(args.sets - args.sets // 2)
        finally:
            sampler.close()
        check(f"{backend:>7} resize 1->4 mid-stream", stream_hash(first + second), reference)

    # Batch-composition cell: lockstep blocks of every width hash to the
    # per-set reference loops (docs/INVARIANTS.md, batch-composition
    # invariance).
    lines.append("  batch-composition invariance:")
    indices = np.arange(args.sets, dtype=np.int64)
    sampler = make_sampler(graph, args.model, args.seed)
    check("per-set reference", stream_hash(reference_block(sampler, indices)), reference)
    for width in BATCH_WIDTHS:
        blocked = []
        for s in range(0, args.sets, width):
            blocked.extend(sampler.sample_block(indices[s : s + width]))
        check(f"width {width:>3}", stream_hash(blocked), reference)

    # Dynamic-graph cell: mutate the graph mid-stream and repair the warm
    # pool incrementally, on every backend — the repaired pool must hash
    # identically to a cold sampler run directly on the mutated graph.
    from repro.dynamic import GraphDelta, MutableGraphView
    from repro.dynamic.repair import repair_context
    from repro.engine.context import SamplingContext

    # Rewire the best-connected node so the invalidation set is
    # non-trivial: delete one in-edge and insert an always-live one.  The
    # insert shifts the CSR position of later in-edges, which coins keyed
    # on edges, not positions, must not notice.
    v = int(np.argmax(np.diff(graph.in_indptr)))
    u = int(graph.in_indices[graph.in_indptr[v]])
    x = next(x for x in range(graph.n) if x != v and not graph.has_edge(x, v))
    delta = GraphDelta().remove_edge(u, v).add_edge(x, v, 1.0)
    mutated = MutableGraphView(graph).apply(delta)
    cold = stream_hash(make_sampler(mutated, args.model, args.seed).sample_batch(args.sets))
    lines.append(f"  mutate-then-repair (incremental pool repair), cold = {cold}:")
    if cold == reference:
        ok = False
        lines.append("    MISMATCH: the mutation left the stream unchanged (vacuous cell)")
    for backend in args.backends:
        ctx = SamplingContext(graph, args.model, seed=args.seed, backend=backend, workers=2)
        try:
            ctx.require(args.sets)
            stats = repair_context(ctx, mutated, 1, delta)
            got = stream_hash(ctx.pool[i] for i in range(args.sets))
        finally:
            ctx.close()
        check(
            f"{backend:>7} W=2 repaired {stats['repaired']}/{stats['sets_total']} sets",
            got, cold,
        )
    return lines, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="nethept")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--model", default="IC", choices=["IC", "LT"])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--sets", type=int, default=400)
    parser.add_argument(
        "--backends", nargs="+", default=["serial", "thread", "process"],
        choices=["serial", "thread", "process", "network"],
        help="'network' spins a loopback TCP worker fleet per cell (slower; "
        "CI runs it in the dedicated fleet job, not by default)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    lines, ok = run(args)
    report = "\n".join(lines)
    print(report)
    write_report("stream_equivalence", report)
    if not ok:
        print(
            "FAIL: kernel name, worker count, backend or block width changed "
            "the RR stream",
            file=sys.stderr,
        )
        return 1
    print("OK: stream is a pure function of the seed across every cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
