"""Gate sampler throughput against a committed baseline.

CI's ``perf`` job runs ``bench_sampler_microbench.py`` (which emits
``BENCH_sampler.json``) and then this checker against
``benchmarks/baselines/BENCH_sampler.json``.  Hosted runners differ
wildly in absolute sets/sec, so the gate compares the *relative*
``speedups`` map — the engine vs the per-set reference on the same
machine, same workload — which is a property of the code, not the
hardware.  A cell is a regression when its speedup falls more than
``--tolerance`` (default 30%) below the committed value.  Cells whose
committed speedup is near 1x (below ``--min-speedup``) are reported but
not gated — they are parity cells, all noise and no signal.

Absolute throughputs are still printed side by side for the humans
reading the job log; they inform, the ratios gate.

Exit codes: 0 = within tolerance, 1 = regression (or broken
byte-identity), 2 = unusable input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read bench json {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if payload.get("schema") != "repro-bench-sampler/1":
        print(f"error: {path} is not a repro-bench-sampler/1 file", file=sys.stderr)
        raise SystemExit(2)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="BENCH_sampler.json from this run")
    parser.add_argument("baseline", help="committed benchmarks/baselines/ file")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional speedup drop (default 0.30)")
    parser.add_argument("--min-speedup", type=float, default=1.4,
                        help="only gate cells whose baseline speedup is at "
                        "least this (near-parity cells are noise; default 1.4)")
    parser.add_argument("--informational", action="append", default=[],
                        metavar="BACKEND",
                        help="backend whose cells are printed but never gated "
                        "and never required (repeatable) — e.g. 'network' on a "
                        "1-CPU runner, where loopback TCP framing costs are "
                        "environment, not code")
    args = parser.parse_args(argv)

    current, baseline = load(args.current), load(args.baseline)

    identity = current.get("byte_identity", {})
    if not identity or not all(identity.values()):
        print(f"FAIL: byte-identity with the per-set reference broken: {identity}")
        return 1

    regressions, missing, compared = [], [], 0
    for cell, base_kernels in sorted(baseline.get("speedups", {}).items()):
        backend = cell.rsplit("/", 1)[-1]
        cur_kernels = current.get("speedups", {}).get(cell)
        if cur_kernels is None:
            print(f"  skip {cell}: not measured in this run")
            continue
        for kernel, base_speedup in sorted(base_kernels.items()):
            if kernel == "reference":
                continue  # the 1.0 reference by construction
            if backend in args.informational:
                shown = cur_kernels.get(kernel)
                shown = "absent" if shown is None else f"{shown:.2f}x"
                print(
                    f"  {cell} {kernel}: {shown} vs baseline "
                    f"{base_speedup:.2f}x (informational, not gated)"
                )
                continue
            if kernel not in cur_kernels:
                # A measured cell that lost a kernel is a broken bench,
                # not a pass — fail loudly instead of gating on nothing.
                print(f"  {cell} {kernel}: MISSING from this run")
                missing.append((cell, kernel))
                continue
            cur_speedup = cur_kernels[kernel]
            if base_speedup < args.min_speedup:
                print(
                    f"  {cell} {kernel}: {cur_speedup:.2f}x vs baseline "
                    f"{base_speedup:.2f}x (parity cell, not gated)"
                )
                continue
            floor = base_speedup * (1.0 - args.tolerance)
            verdict = "OK" if cur_speedup >= floor else "REGRESSION"
            print(
                f"  {cell} {kernel}: {cur_speedup:.2f}x vs baseline "
                f"{base_speedup:.2f}x (floor {floor:.2f}x) {verdict}"
            )
            compared += 1
            if cur_speedup < floor:
                regressions.append((cell, kernel, cur_speedup, base_speedup))

    if missing:
        print(f"FAIL: {len(missing)} baseline kernel cell(s) not measured "
              "in this run")
        return 1
    if compared == 0:
        print("error: no comparable speedup cells between run and baseline",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"FAIL: {len(regressions)} speedup regression(s) beyond "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print(f"OK: {compared} speedup cell(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
