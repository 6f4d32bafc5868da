"""One cold-workload run, in a fresh process: set-ups, then the timed sessions.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object as its last stdout line.  Every query
runs through the public API only: a fresh ``InfluenceEngine`` per
session, ``maximize`` (timed as the query), ``estimate``s of the
answer's prefixes, and a small ``mutate`` (timed as the write).

With ``--trace 1`` the timed sessions run twice, untraced and then
traced (wrappers from ``tracing.py``), and the output adds the spans'
per-layer metrics and both passes' timings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time

import tracing
import workloads


def _session(repro, graph, w, op, tracer=None):
    """One session; returns its record (timings and answer)."""
    span = tracer.span("session") if tracer is not None else contextlib.nullcontext()
    with span:
        t0 = time.perf_counter()
        engine = repro.InfluenceEngine(
            graph, seed=op["seed"], kernel="auto", backend=w.backend, workers=w.workers
        )
        try:
            result = engine.maximize(op["k"], epsilon=w.epsilon)
            t1 = time.perf_counter()
            estimate_s = []
            for fraction in w.estimate_fractions:
                t2 = time.perf_counter()
                engine.estimate(result.seeds[: max(1, round(fraction * op["k"]))])
                estimate_s.append(time.perf_counter() - t2)
            reweight = workloads.edge_reweights(graph, op["mutate"])
            t3 = time.perf_counter()
            engine.mutate(reweight=reweight)
            t4 = time.perf_counter()
        finally:
            engine.close()
    return {
        "k": op["k"],
        "seed": op["seed"],
        "query_s": t1 - t0,
        "estimate_s": estimate_s,
        "write_s": t4 - t3,
        "seeds": [int(s) for s in result.seeds],
        "samples": int(result.samples),
        "influence": float(result.influence),
        "iterations": int(result.iterations),
        "kernel": engine.kernel.name,
    }


def _setup(repro, w, warm_seed):
    t0 = time.perf_counter()
    graph = repro.load_dataset(w.dataset, scale=w.scale, weights=w.weights)
    warm_up = {"k": w.ks[0], "seed": warm_seed, "mutate": [[pos, 0.7] for pos in w.mutate_at]}
    _session(repro, graph, w, warm_up)
    return graph, time.perf_counter() - t0


def _timed(repro, graph, w, ops, tracer=None):
    start = time.perf_counter()
    records = [_session(repro, graph, w, op, tracer) for op in ops]
    end = time.perf_counter()
    return {"records": records, "window": [start, end], "wall_s": end - start}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    oplist = workloads.cold_ops(w, args.seed, args.seconds)
    import repro

    reps = 1 if args.trace else workloads.SETUP_REPS
    setups = []
    for warm_seed in oplist["warmups"][:reps]:
        graph, seconds = _setup(repro, w, warm_seed)
        setups.append(seconds)
    out = {"setup_s": setups}
    out.update(_timed(repro, graph, w, oplist["ops"]))
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        graph = repro.load_dataset(w.dataset, scale=w.scale, weights=w.weights)
        traced = _timed(repro, graph, w, oplist["ops"], tracer)
        out["traced"] = traced
        out["layers"] = tracing.layer_metrics(
            tracer.spans,
            window=traced["window"],
            ops=len(oplist["ops"]),
            mutates=len(oplist["ops"]),
        )
        out["overhead"] = tracing.overhead(
            untraced=[r["query_s"] for r in out["records"]], untraced_wall=out["wall_s"],
            traced=[r["query_s"] for r in traced["records"]], traced_wall=traced["wall_s"],
        )
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
