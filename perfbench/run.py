"""End-to-end benchmark of the repro influence engine: one command, fixed work.

    python3 perfbench/run.py --workload cold-wc --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``cold-wc``,
``cold-viral-process`` and ``serve-lt-mutate``.  Each run executes an
op list generated from ``--seed`` (``--seconds`` only sizes it), with the
measured work in fresh processes: ``cold.py`` for the cold workloads,
``repro serve`` for the serving one.  Timings are taken from outside,
through the public API, with tracing off.  ``--trace 1`` makes a
separate traced run and reports per-layer metrics instead.

After the timed phase, outside it, a correctness gate checks every
answer (and replays a subset one-shot, or the whole serving op list
in-process); a wrong answer counts as failed and makes the command
exit non-zero.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: seed of the held-out RR pool ``spread_mean`` scores answers on.
HOLDOUT_SEED = 2**31 + 2016
#: no single child may outlive this (a whole run must end within 180 s).
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("estimate_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("rr_sets_per_query", "count"),
    ("spread_mean", "nodes"),
)

#: which end-to-end metric each layer should move, on which workload.
MOVES = {
    "graph": "setup_s on all three",
    "sampling": "query_p50_ms, throughput_qps on cold-wc; setup_s, write_p50_ms "
    "on serve-lt-mutate",
    "backends": "query_p50_ms on cold-viral-process",
    "rr_collection": "query_p50_ms, peak_rss_mb on cold-wc; query_p90_ms on "
    "serve-lt-mutate",
    "max_coverage": "query_p50_ms on serve-lt-mutate (and cold-wc)",
    "dssa": "rr_sets_per_query on all three",
    "pool": "query_p90_ms on serve-lt-mutate",
    "admission": "estimate_p50_ms on serve-lt-mutate",
    "service": "throughput_qps on serve-lt-mutate",
    "wire": "estimate_p50_ms, throughput_qps on serve-lt-mutate",
    "dynamic": "write_p50_ms on serve-lt-mutate (and the cold writes)",
    "tracing": "(traced minus untraced run)",
}


# ----------------------------------------------------------------------
# Processes and memory
# ----------------------------------------------------------------------
def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Worker stderr files and other temporaries stay inside the checkout.
    env["TMPDIR"] = str(tmp)
    return env


def _proc_status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _process_tree(pid: int) -> list:
    pids, i = [pid], 0
    while i < len(pids):
        try:
            for task in os.listdir(f"/proc/{pids[i]}/task"):
                with open(f"/proc/{pids[i]}/task/{task}/children") as handle:
                    pids.extend(int(p) for p in handle.read().split())
        except OSError:
            pass
        i += 1
    return pids


class TreeRss(threading.Thread):
    """Peak summed RSS of a process and its descendants, polled."""

    def __init__(self, pid: int, interval: float = 0.025) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peak_kib = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            total = sum(_proc_status_kib(p, "VmRSS") for p in _process_tree(self.pid))
            self.peak_kib = max(self.peak_kib, total)
            self._stop_event.wait(self.interval)

    def stop(self) -> int:
        self._stop_event.set()
        self.join(timeout=5)
        return self.peak_kib


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _p50(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def _ms(seconds) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
# Correctness and spread
# ----------------------------------------------------------------------
def _valid_answer(seeds, k: int, n: int) -> bool:
    return (
        len(seeds) == k
        and len(set(seeds)) == k
        and all(isinstance(s, int) and 0 <= s < n for s in seeds)
    )


def _holdout_spreads(repro, graph, model: str, answers, sets: int) -> list:
    """Held-out spread of each answer: its own fixed-seed RR pool, never
    any query's stream (query seeds are drawn from a 31-bit range this
    seed is outside of)."""
    with repro.InfluenceEngine(graph, model=model, seed=HOLDOUT_SEED, kernel="auto") as judge:
        return [judge.estimate(seeds, samples=sets) for seeds in answers]


def check_cold(repro, graph, w, records, traced=None) -> set:
    """Indices of wrong cold answers.

    Every answer must hold k distinct in-range seeds; the ``gate_queries``
    must equal a one-shot serial ``repro.dssa`` at the query's seed and
    resolved kernel; a traced pass must repeat the untraced answers.
    """
    failed = {i for i, rec in enumerate(records)
              if not _valid_answer(rec["seeds"], rec["k"], graph.n)}
    for i in (i for i in w.gate_queries if i < len(records)):
        rec = records[i]
        one_shot = repro.dssa(graph, rec["k"], epsilon=w.epsilon, seed=rec["seed"],
                              kernel=rec["kernel"])
        if (
            [int(s) for s in one_shot.seeds] != rec["seeds"]
            or int(one_shot.samples) != rec["samples"]
            or float(one_shot.influence) != rec["influence"]
        ):
            failed.add(i)
    for i, (a, b) in enumerate(zip(records, traced or ())):
        if a["seeds"] != b["seeds"] or a["samples"] != b["samples"]:
            failed.add(i)
    return failed


# ----------------------------------------------------------------------
# Cold workloads
# ----------------------------------------------------------------------
def run_cold(w, args, tmp: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "cold.py"), "--workload", w.name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(tmp), cwd=str(ROOT))
    poller = TreeRss(proc.pid)
    poller.start()
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        tree_kib = poller.stop()
    if proc.returncode != 0:
        raise RuntimeError(f"cold run exited with {proc.returncode}")
    out = _last_json_line(stdout)
    records = out["records"]

    # Correctness gate (outside the timed phase).
    import repro

    graph = repro.load_dataset(w.dataset, scale=w.scale, weights=w.weights)
    traced = out["traced"]["records"] if "traced" in out else None
    failed = check_cold(repro, graph, w, records, traced)
    if failed:
        print(f"gate: wrong answers at sessions {sorted(failed)}", file=sys.stderr)
    gate = [i for i in w.gate_queries if i < len(records)]

    # spread_mean runs only now, after peak RSS was read.
    spreads = _holdout_spreads(repro, graph, w.model, [r["seeds"] for r in records],
                               w.holdout_sets)
    query = [r["query_s"] for r in records]
    metrics = {
        "setup_s": _p50(out["setup_s"]),
        "query_p50_ms": _ms(_p50(query)),
        "query_p90_ms": _ms(_p90(query)),
        "throughput_qps": len(records) / out["wall_s"],
        "estimate_p50_ms": _ms(_p50([s for r in records for s in r["estimate_s"]])),
        "write_p50_ms": _ms(_p50([r["write_s"] for r in records])),
        "success_rate": (len(records) - len(failed)) / len(records),
        "peak_rss_mb": max(out["rss_kib"], tree_kib) / 1024.0,
        "rr_sets_per_query": statistics.fmean(r["samples"] for r in records),
        "spread_mean": statistics.fmean(spreads),
    }
    diagnostics = {
        "op_list_digest": workloads.digest(workloads.cold_ops(w, args.seed, args.seconds)),
        "kernels": sorted({r["kernel"] for r in records}),
        "iterations": dict(sorted(collections.Counter(r["iterations"] for r in records).items())),
        "queries": len(records),
        "gate_checked": gate,
    }
    result = {"attempted": len(records), "failed": len(failed), "metrics": metrics,
              "diagnostics": diagnostics}
    if "layers" in out:
        result["layers"] = dict(out["layers"], **out["overhead"])
    return result


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` (or traced launcher) process, primed."""

    def __init__(self, w, tmp: Path, *, traced: bool) -> None:
        flags = [
            "--dataset", w.dataset, "--scale", str(w.scale), "--model", w.model,
            "--seed", str(w.seed), "--kernel", "auto",
            "--max-workers", str(w.max_workers), "--port", "0",
        ]
        if traced:
            cmd = [sys.executable, str(BENCH / "serve_traced.py")] + flags
        else:
            cmd = [sys.executable, "-m", "repro", "serve"] + flags
        # The server's stderr goes to a file, shown only if it fails: after
        # a remote shutdown, asyncio warns about the shutdown request's own
        # connection handler, which the loop never awaits.
        self.stderr_path = tmp / f"server-{time.monotonic_ns()}.stderr"
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                                         text=True, env=_child_env(tmp), cwd=str(ROOT))
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise RuntimeError("server exited before listening:\n" + self.stderr_tail())
            match = re.search(r"listening on [^:\s]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text()[-3000:]

    def client(self):
        from repro import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=CHILD_TIMEOUT_S)

    def peak_rss_kib(self) -> int:
        return _proc_status_kib(self.proc.pid, "VmHWM")

    def stop(self) -> str:
        """Remote shutdown; returns what the server printed after listening."""
        try:
            with self.client() as client:
                client.shutdown_server()
            stdout, _ = self.proc.communicate(timeout=60)
            return stdout
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _call(client, op: dict):
    params = {k: v for k, v in op.items() if k != "op"}
    return client.call(op["op"], **params)


def _start_primed(w, tmp: Path, priming, *, traced: bool):
    """Launch, wait for listening, prime every query shape; timed."""
    t0 = time.perf_counter()
    server = Server(w, tmp, traced=traced)
    try:
        with server.client() as client:
            answers = [_call(client, op) for op in priming]
    except BaseException:
        server.kill()
        raise
    return server, answers, time.perf_counter() - t0


def closed_loop(server, ops, connections: int) -> dict:
    """``connections`` threads, one connection each, every one waiting for
    its reply before sending again.  A mutate is sent only once no other
    op is in flight (the service refuses mutations while queries run),
    and nothing else is sent until it returns."""
    results = [None] * len(ops)
    cond = threading.Condition()
    state = {"next": 0, "inflight": 0, "barrier": False}

    def worker(client) -> None:
        while True:
            with cond:
                while state["barrier"]:
                    cond.wait()
                i = state["next"]
                if i >= len(ops):
                    return
                state["next"] += 1
                is_write = ops[i]["op"] == "mutate"
                if is_write:
                    state["barrier"] = True
                    while state["inflight"]:
                        cond.wait()
                state["inflight"] += 1
            t0 = time.perf_counter()
            try:
                answer, error = _call(client, ops[i]), None
            except Exception as exc:  # recorded as a failed op, loop goes on
                answer, error = None, f"{type(exc).__name__}: {exc}"
            results[i] = {"t0": t0, "t1": time.perf_counter(), "answer": answer,
                          "error": error}
            with cond:
                state["inflight"] -= 1
                if is_write:
                    state["barrier"] = False
                cond.notify_all()

    clients = [server.client() for _ in range(connections)]
    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in clients]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT_S)
    end = time.perf_counter()
    for client in clients:
        client.close()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed loop did not finish")
    return {"results": results, "window": [start, end], "wall_s": end - start}


def _comparable(answer):
    """A wire answer minus its wall-clock field."""
    if isinstance(answer, dict):
        return {k: v for k, v in answer.items() if k != "elapsed_seconds"}
    return answer


def _replay(repro, graph, w, ops) -> list:
    """In-process sequential replay of the op list, as wire JSON.

    Between two mutates the service answers an identical read
    identically (a warm query reads a fixed prefix of an unchanged
    pool), so a repeated read reuses the replay's first answer instead of
    recomputing it.  Every server answer is still compared with its own
    op's replay answer.
    """
    from repro.service.errors import ServiceError
    from repro.service.protocol import to_jsonable

    expected, seen = [], {}
    with repro.InfluenceService(max_workers=1) as service:
        service.open_session("default", graph, model=w.model, seed=w.seed, kernel="auto")
        for op in ops:
            key = json.dumps(op, sort_keys=True)
            if op["op"] == "mutate":
                seen.clear()
            elif key in seen:
                expected.append(seen[key])
                continue
            params = {k: v for k, v in op.items() if k != "op"}
            try:
                answer = service.wire_result(service.call(op["op"], **params))
                seen[key] = json.loads(json.dumps(to_jsonable(answer)))
            except (ServiceError, ValueError) as exc:
                seen[key] = {"error": type(exc).__name__}
            expected.append(seen[key])
    return expected


def check_serve(ops, results, expected, n: int) -> set:
    """Indices of ops whose wire answer is missing, differs from the
    replay's (wall-clock field aside) or, for ``maximize``, is invalid."""
    failed = set()
    for i, (op, r, want) in enumerate(zip(ops, results, expected)):
        answer = r["answer"] if r else None
        if answer is None or _comparable(answer) != _comparable(want):
            failed.add(i)
        elif op["op"] == "maximize" and not _valid_answer(answer["seeds"], op["k"], n):
            failed.add(i)
    return failed


def _segment(w, tmp: Path, priming, ops, *, traced: bool = False) -> dict:
    """One server's share: launch and prime it (the set-up), run ``ops``
    as a closed loop, read its peak RSS, shut it down."""
    server, primed, setup_s = _start_primed(w, tmp, priming, traced=traced)
    try:
        with server.client() as client:
            kernel = client.call("sessions")["default"]["kernel"]
        run = closed_loop(server, ops, w.connections)
        run["rss_kib"] = server.peak_rss_kib()
    finally:
        stdout = server.stop()
    run.update(ops=ops, primed=primed, setup_s=setup_s, kernel=kernel, stdout=stdout)
    return run


def _segment_metrics(seg) -> dict:
    def latencies(kind):
        return [r["t1"] - r["t0"] for op, r in zip(seg["ops"], seg["results"])
                if op["op"] == kind and r is not None]

    maximize = latencies("maximize")
    return {
        "query_p50_ms": _ms(_p50(maximize)),
        "query_p90_ms": _ms(_p90(maximize)),
        "throughput_qps": len(seg["ops"]) / seg["wall_s"],
        "estimate_p50_ms": _ms(_p50(latencies("estimate"))),
        "write_p50_ms": _ms(_p50(latencies("mutate"))),
        "peak_rss_mb": seg["rss_kib"] / 1024.0,
    }


def run_serve(w, args, tmp: Path) -> dict:
    """Three fresh servers each run a third of the blocks (median of their
    figures, so one server's placement on the box cannot move a metric);
    a traced run puts all blocks on one untraced and one traced server."""
    import repro

    graph = repro.load_dataset(w.dataset, scale=w.scale)
    oplist = workloads.serve_ops(w, args.seed, args.seconds, graph)
    ops, priming = oplist["ops"], oplist["priming"]
    blocks = [ops[i:i + w.block_len] for i in range(0, len(ops), w.block_len)]
    parts = 1 if args.trace else workloads.SETUP_REPS
    cut = [round(j * len(blocks) / parts) for j in range(parts + 1)]
    segments = [
        _segment(w, tmp, priming, [op for b in blocks[cut[j]:cut[j + 1]] for op in b])
        for j in range(parts)
    ]

    # Correctness gate: every answer, priming included, byte-identical to
    # an in-process sequential replay of the same server's op list.
    attempted = failed = 0
    for seg in segments:
        expected = _replay(repro, graph, w, priming + seg["ops"])
        got = [{"answer": a} for a in seg["primed"]] + seg["results"]
        wrong = check_serve(priming + seg["ops"], got, expected, graph.n)
        if wrong:
            i = min(wrong)
            print(f"gate: {len(wrong)} wrong answers; first, op {i}: got {got[i]}, "
                  f"replay gave {expected[i]}", file=sys.stderr)
        attempted += len(expected)
        failed += len(wrong)

    layers = None
    if args.trace:
        traced = _segment(w, tmp, priming, ops, traced=True)
        # Tracing must not change an answer.  With one server, `expected`
        # already replays the priming plus every op.
        failed += len(check_serve(ops, traced["results"], expected[len(priming):], graph.n))
        layers = tracing.layer_metrics(
            _last_json_line(traced["stdout"])["spans"], window=traced["window"],
            ops=len(ops), mutates=sum(1 for op in ops if op["op"] == "mutate"),
            client_seconds=sum(r["t1"] - r["t0"] for r in traced["results"]),
        )

        def maximize_s(seg):
            return [r["t1"] - r["t0"] for op, r in zip(ops, seg["results"])
                    if op["op"] == "maximize"]

        layers.update(tracing.overhead(
            untraced=maximize_s(segments[0]), untraced_wall=segments[0]["wall_s"],
            traced=maximize_s(traced), traced_wall=traced["wall_s"],
        ))

    answers = [r["answer"] for seg in segments for op, r in zip(seg["ops"], seg["results"])
               if op["op"] == "maximize" and r and r["answer"]]
    distinct = sorted({tuple(a["seeds"]) for a in answers})
    scores = dict(zip(distinct, _holdout_spreads(repro, graph, w.model,
                                                 [list(s) for s in distinct],
                                                 w.holdout_sets)))
    per_segment = [_segment_metrics(seg) for seg in segments]
    metrics = {name: _p50([m[name] for m in per_segment]) for name in per_segment[0]}
    metrics.update({
        "setup_s": _p50([seg["setup_s"] for seg in segments]),
        "success_rate": (attempted - failed) / attempted,
        "rr_sets_per_query": statistics.fmean(a["samples"] for a in answers),
        "spread_mean": statistics.fmean(scores[tuple(a["seeds"])] for a in answers),
    })
    counts = collections.Counter(op["op"] for op in ops)
    diagnostics = {
        "op_list_digest": workloads.digest(oplist),
        "kernels": sorted({seg["kernel"] for seg in segments}),
        "iterations": dict(sorted(collections.Counter(a["iterations"] for a in answers).items())),
        "ops": dict(sorted(counts.items())),
        "servers": len(segments),
        "distinct_answers": len(distinct),
    }
    result = {"attempted": attempted, "failed": failed, "metrics": metrics,
              "diagnostics": diagnostics}
    if layers is not None:
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _report_layers(layers: dict) -> dict:
    print("per-layer metrics (traced run), grouped by layer with the "
          "end-to-end metric each layer should move:")
    current = None
    for name, unit, what in tracing.LAYER_METRICS:
        layer = name.split(".")[0]
        if layer != current:
            current = layer
            print(f"[{layer}] moves {MOVES[layer]}")
        print(f"  {name:30s} {layers[name]:>14.6g} {unit:6s} {what}")
    return {name: {"value": layers[name], "unit": unit}
            for name, unit, _what in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        result = (run_cold if w.kind == "cold" else run_serve)(w, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import numpy

    diagnostics = {
        "workload": w.name,
        "seed": args.seed,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **result["diagnostics"],
    }
    print("diagnostics: " + json.dumps(diagnostics))
    correct = result["failed"] == 0
    if args.trace:
        metrics = _report_layers(result["layers"])
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": result["metrics"][name], "unit": units[name]}
                   for name in units}
        for name, entry in metrics.items():
            print(f"  {name:18s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
