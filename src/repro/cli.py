"""Command-line interface: ``repro-im`` / ``python -m repro``.

Subcommands
-----------
``datasets``
    List catalogued datasets with paper and stand-in statistics.
``algorithms``
    Print the algorithm registry's capability table.
``run``
    Run one algorithm on one dataset and print the result summary.
``compare``
    Run several algorithms at one k and print the comparison table.
``query``
    Answer many maximize/sweep/estimate queries against a warm
    :class:`~repro.service.service.InfluenceService` — in-process by
    default, or against a remote ``repro serve`` via ``--connect``.
``serve``
    Run an :class:`~repro.service.server.InfluenceServer`: concurrent
    multi-client query serving over TCP (newline-delimited JSON) with a
    pool byte budget and optional cross-restart pool persistence.
``worker``
    Join a network sampling fleet as one worker host: connect to a
    ``--backend network`` coordinator and serve RR batches for every
    stream of its session (graphs arrive as content-addressed blobs,
    cached by hash) under a heartbeat lease until the session closes.
``tvm``
    Run the TVM experiment (Fig. 8 style) on a topic group.
``lint``
    Run reprolint, the project-specific invariant linter (seed-purity,
    lock-discipline, provenance-stamp, resource-lifecycle) — see
    ``docs/INVARIANTS.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.lint import cli as lint_cli
from repro.datasets.catalog import DATASETS
from repro.datasets.synthetic import load_dataset
from repro.engine import registry_table
from repro.exceptions import ReproError
from repro.experiments.figures import tvm_runtime_vs_k
from repro.experiments.report import render_comparison
from repro.experiments.runner import ALGORITHMS, evaluate_quality, run_algorithm
from repro.graph.statistics import compute_stats
from repro.sampling.backends import (
    BACKENDS,
    parse_hosts_spec,
    run_worker,
    set_network_defaults,
)
from repro.sampling.kernels import KERNEL_NAMES
from repro.service import (
    InfluenceServer,
    InfluenceService,
    ServiceClient,
    ServiceError,
    summarize_result,
)
from repro.utils.tables import format_table


def _cmd_datasets(_: argparse.Namespace) -> int:
    headers = ["name", "paper nodes", "paper edges", "avg deg", "stand-in nodes", "scale"]
    rows = []
    for spec in DATASETS.values():
        rows.append(
            [
                spec.name,
                spec.paper_nodes,
                spec.paper_edges,
                spec.paper_avg_degree,
                spec.standin_nodes,
                round(spec.scale_factor, 1),
            ]
        )
    print(format_table(headers, rows, title="Datasets (Table 2 + stand-ins)"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    stats = compute_stats(graph)
    print(f"{args.dataset}: n={stats.nodes} m={stats.edges} avg_deg={stats.avg_degree:.2f}")
    print(f"  max in-degree={stats.max_in_degree} max out-degree={stats.max_out_degree}")
    print(f"  weights in [{stats.weight_min:.4f}, {stats.weight_max:.4f}], LT admissible={stats.lt_admissible}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    record = run_algorithm(
        args.algorithm,
        graph,
        args.k,
        model=args.model,
        epsilon=args.epsilon,
        seed=args.seed,
        dataset=args.dataset,
        backend=args.backend,
        workers=args.workers,
        kernel=args.kernel,
    )
    if args.quality:
        evaluate_quality(record, graph, simulations=args.quality_sims, seed=args.seed)
    print(render_comparison([record], title=f"{args.algorithm} on {args.dataset}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    records = []
    for algo in args.algorithms:
        record = run_algorithm(
            algo,
            graph,
            args.k,
            model=args.model,
            epsilon=args.epsilon,
            seed=args.seed,
            dataset=args.dataset,
            backend=args.backend,
            workers=args.workers,
            kernel=args.kernel,
        )
        if args.quality:
            evaluate_quality(record, graph, simulations=args.quality_sims, seed=args.seed)
        records.append(record)
    print(render_comparison(records, title=f"Comparison on {args.dataset} (k={args.k}, {args.model})"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.extensions.sweep import influence_sweep

    graph = load_dataset(args.dataset, scale=args.scale)
    sweep = influence_sweep(
        graph,
        args.k_values,
        epsilon=args.epsilon,
        model=args.model,
        seed=args.seed,
    )
    rows = [[k, round(sweep.influence_at[k], 1)] for k in sorted(sweep.influence_at)]
    print(
        format_table(
            ["k", "estimated influence"],
            rows,
            title=(
                f"Influence sweep on {args.dataset} ({args.model}), one D-SSA run "
                f"at k={sweep.k_max}, {sweep.samples} RR sets total"
            ),
        )
    )
    return 0


def _cmd_algorithms(_: argparse.Namespace) -> int:
    print(registry_table())
    return 0


def _parse_query_options(tokens: "list[str]") -> dict:
    """``key=value`` tokens -> dict (values stay strings)."""
    options = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        options[key.strip()] = value.strip()
    return options


def _parse_bytes(text: str | None) -> int | None:
    """``"64M"``/``"1.5G"``/``"800K"``/plain int -> bytes."""
    if text is None:
        return None
    raw = str(text).strip().upper().removesuffix("B")
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    factor = units.get(raw[-1:] or "", 1)
    digits = raw[:-1] if factor != 1 else raw
    try:
        value = int(float(digits) * factor)
    except ValueError as exc:
        raise ValueError(f"cannot parse byte size {text!r} (try 800K, 64M, 1G)") from exc
    if value <= 0:
        raise ValueError(f"byte size must be positive, got {text!r}")
    return value


def _render_algorithm_rows(rows: "list[dict]") -> str:
    table_rows = [
        [
            r["name"],
            "yes" if r["engine"] else "one-shot only",
            "yes" if r["needs_rr_sets"] else "no",
            "yes" if r["supports_backend"] else "-",
            "yes" if r["supports_horizon"] else "-",
            "yes" if r.get("supports_kernel") else "-",
            r["concurrency"],
            r["description"],
        ]
        for r in rows
    ]
    return format_table(
        ["algorithm", "engine reuse", "RR sets", "backends", "horizon", "kernels", "concurrency", "description"],
        table_rows,
        title="Registered influence-maximization algorithms",
    )


def _parse_edge_groups(text, name: str, *, weighted: bool) -> "list[list]":
    """Parse REPL edge shorthand (``u:v:w,...``) into structured rows.

    The REPL keeps the compact command syntax but puts the structured
    ``GraphDelta.as_dict()`` form on the wire, the only form the server
    accepts.
    """
    if text is None:
        return []
    arity = 3 if weighted else 2
    rows = []
    for group in str(text).split(","):
        if not group.strip():
            continue
        fields = group.split(":")
        if len(fields) != arity:
            raise ValueError(
                f"{name} groups need {arity} colon-separated fields, got {group!r}"
            )
        try:
            row = [int(fields[0]), int(fields[1])]
            if weighted:
                row.append(float(fields[2]))
        except ValueError as exc:
            raise ValueError(f"{name} group {group!r} is not numeric") from exc
        rows.append(row)
    return rows


def _query_execute(call, line: str) -> bool:
    """Run one REPL command through a service ``call``; False on quit.

    ``call(op, **params)`` is either the in-process service or a remote
    client — both return wire-level (JSON-able) results, so rendering is
    transport-agnostic.
    """
    tokens = line.split()
    if not tokens:
        return True
    command, opts = tokens[0].lower(), _parse_query_options(tokens[1:])
    if command in ("quit", "exit"):
        return False
    if command == "help":
        print(
            "commands:\n"
            "  maximize k=10 [epsilon=0.1] [algorithm=D-SSA] [horizon=T] [workers=W]\n"
            "  sweep ks=1,5,10 [epsilon=0.1] [algorithm=D-SSA]\n"
            "  estimate seeds=1,2,3 [samples=N]\n"
            "  resize workers=W   (elastic worker count; stream unchanged)\n"
            "  mutate [add=u:v:w,...] [remove=u:v,...] [reweight=u:v:w,...]\n"
            "         (edge churn; warm pools repaired incrementally)\n"
            "  quota [quota_bytes=N]   (show or set the session byte quota)\n"
            "  algorithms | stats | metrics | ping | help | quit\n"
            "  shutdown   (stop a remote server)"
        )
    elif command == "algorithms":
        print(_render_algorithm_rows(call("algorithms")))
    elif command == "ping":
        print("pong" if call("ping").get("pong") else "no answer")
    elif command == "shutdown":
        call("shutdown")
        print("server stopping")
        return False
    elif command == "stats":
        stats = call("stats")
        print(
            f"session seed={stats['seed']} workers={stats.get('workers') or 1} "
            f"graph_version={stats.get('graph_version', 0)} "
            f"queries={stats['queries']} "
            f"rr_requested={stats['rr_requested']} rr_sampled={stats['rr_sampled']} "
            f"cache_hits={stats['cache_hits']} hit_rate={stats['hit_rate']:.1%} "
            f"pool_bytes={stats['pool_bytes']} evictions={stats['evictions']} "
            f"truncations={stats.get('pool_truncations', 0)} "
            f"reattached_sets={stats['reattached_sets']} "
            f"mutations={stats.get('mutations', 0)} "
            f"repairs={stats.get('repairs', 0)}"
        )
        for key, size in stats["pools"].items():
            print(f"  pool {key}: {size} RR sets")
        metrics = call("metrics")
        for op, hist in metrics.items():
            if hist["count"]:
                print(
                    f"  latency {op}: n={hist['count']} "
                    f"p50={hist['p50_seconds'] * 1000:.1f}ms "
                    f"p99={hist['p99_seconds'] * 1000:.1f}ms "
                    f"max={hist['max_seconds'] * 1000:.1f}ms"
                )
    elif command == "metrics":
        metrics = call("metrics")
        rows = [
            [
                op,
                hist["count"],
                f"{hist['mean_seconds'] * 1000:.1f}",
                f"{hist['p50_seconds'] * 1000:.1f}",
                f"{hist['p90_seconds'] * 1000:.1f}",
                f"{hist['p99_seconds'] * 1000:.1f}",
                f"{hist['max_seconds'] * 1000:.1f}",
            ]
            for op, hist in metrics.items()
        ]
        print(
            format_table(
                ["op", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms"],
                rows,
                title="Per-operation latency (bucketed histogram estimates)",
            )
        )
    elif command == "resize":
        if "workers" not in opts:
            raise ValueError("resize needs workers=<int>")
        outcome = call("resize", **opts)
        print(
            f"session {outcome['session']!r} now at workers={outcome['workers']} "
            f"({outcome['pools_resized']} warm pool(s) on its fleet; stream unchanged)"
        )
    elif command == "quota":
        outcome = call("quota", **opts)
        quota = outcome.get("quota_bytes")
        print(
            f"session {outcome['session']!r} quota="
            f"{quota if quota is not None else 'unlimited'} "
            f"pool_bytes={outcome['pool_bytes']} "
            f"reserved_bytes={outcome['reserved_bytes']}"
        )
    elif command == "mutate":
        known = {"add", "remove", "reweight"}
        unknown = sorted(set(opts) - known)
        if unknown:
            raise ValueError(f"mutate got unknown option(s) {unknown}")
        delta = {
            key: _parse_edge_groups(
                opts.get(key), key, weighted=(key != "remove")
            )
            for key in known
            if opts.get(key) is not None
        }
        if not any(delta.values()):
            raise ValueError(
                "mutate needs at least one of add=u:v:w,... remove=u:v,... "
                "reweight=u:v:w,..."
            )
        report = call("mutate", delta=delta)
        print(
            f"graph now v{report['graph_version']} "
            f"(hash {report['content_hash']}, n={report['n']} m={report['m']}); "
            f"repaired {report['repaired']}/{report['sets_total']} pooled RR sets "
            f"(repair_fraction={report['repair_fraction']:.1%}, "
            f"{report['pools_retired']} pool(s) retired)"
        )
    elif command == "maximize":
        if "k" not in opts:
            raise ValueError("maximize needs k=<int>")
        result = call("maximize", **opts)
        print(summarize_result(result))
        print(f"  seeds: {result['seeds']}")
    elif command == "sweep":
        if "ks" not in opts:
            raise ValueError("sweep needs ks=<k1,k2,...>")
        results = call("sweep", **opts)
        rows = [[r["k"], round(r["influence"], 1), r["samples"], r["iterations"]] for r in results]
        print(format_table(["k", "influence", "RR demand", "iterations"], rows))
    elif command == "estimate":
        if "seeds" not in opts:
            raise ValueError("estimate needs seeds=<v1,v2,...>")
        estimate = call("estimate", **opts)
        print(f"estimated influence: {estimate:.2f}")
    else:
        raise ValueError(f"unknown command {command!r} (try: help)")
    return True


def _query_repl(call, lines, *, interactive: bool) -> int:
    """Drive the REPL loop; returns a process exit code.

    Interactive sessions keep going after a bad command; scripted input
    (piped stdin or ``--command``) fails fast with a clean one-line
    error on stderr and a non-zero exit — malformed scripts and dropped
    server connections must not look like success (or a traceback).
    """
    while True:
        if interactive:
            print("query> ", end="", flush=True)
        try:
            line = next(lines, None)
        except KeyboardInterrupt:
            print()
            break
        if line is None:
            break
        try:
            if not _query_execute(call, line):
                break
        except (ReproError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if not interactive:
                return 1
    try:
        _query_execute(call, "stats")
    except (ReproError, ValueError, KeyError):
        pass  # server already gone (e.g. after shutdown) — stats are best-effort
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    interactive = args.command is None and sys.stdin.isatty()
    lines = iter(args.command) if args.command is not None else iter(sys.stdin)

    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: --connect expects HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 2
        try:
            with ServiceClient(host, int(port)) as client:
                print(f"connected to influence service at {host}:{port}")

                def call(op, **params):
                    return client.call(op, session=args.session, **params)

                return _query_repl(call, lines, interactive=interactive)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    graph = load_dataset(args.dataset, scale=args.scale)
    try:
        budget = _parse_bytes(args.pool_budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with InfluenceService(pool_budget=budget, spill_dir=args.spill_dir) as service:
        engine = service.open_session(
            args.session,
            graph,
            model=args.model,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            kernel=args.kernel,
        )
        print(
            f"engine session: {args.dataset} (n={graph.n}, m={graph.m}), "
            f"model={args.model}, seed={engine.seed}, backend={args.backend}, "
            f"kernel={engine.kernel.name}"
        )

        def call(op, **params):
            return service.wire_result(service.call(op, session=args.session, **params))

        return _query_repl(call, lines, interactive=interactive)


def _cmd_serve(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    try:
        budget = _parse_bytes(args.pool_budget)
        quota = _parse_bytes(args.session_quota)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = InfluenceService(
        pool_budget=budget, spill_dir=args.spill_dir, max_workers=args.max_workers
    )
    try:
        engine = service.open_session(
            args.session,
            graph,
            model=args.model,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            kernel=args.kernel,
            quota_bytes=quota,
        )
        server = InfluenceServer(
            service, host=args.host, port=args.port, metrics_port=args.metrics_port
        )
        host, port = server.address
        budget_str = f"{budget} bytes" if budget is not None else "unbounded"
        print(
            f"serving {args.dataset} (n={graph.n}, m={graph.m}) "
            f"model={args.model} seed={engine.seed} backend={args.backend} "
            f"session={args.session!r}",
            flush=True,
        )
        print(
            f"listening on {host}:{port}  (pool budget: {budget_str}, "
            f"spill dir: {args.spill_dir or 'none'})",
            flush=True,
        )
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(
                f"metrics on http://{mhost}:{mport}/metrics "
                "(Prometheus text exposition)",
                flush=True,
            )
        if quota is not None:
            print(
                f"session quota: {quota} bytes (admission control active)",
                flush=True,
            )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down", flush=True)
            server.shutdown()
        return 0
    finally:
        # Spills every warm pool when a spill dir is configured, so the
        # next `repro serve` starts with yesterday's warmup.
        service.close()


def _cmd_worker(args: argparse.Namespace) -> int:
    try:
        return run_worker(
            args.connect,
            cache_dir=args.cache_dir,
            label=args.label,
            retry_for=args.retry,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_tvm(args: argparse.Namespace) -> int:
    graph = load_dataset("twitter", scale=args.scale)
    records = tvm_runtime_vs_k(
        graph, args.topic, args.k_values, model=args.model, epsilon=args.epsilon
    )
    print(render_comparison(records, title=f"TVM topic {args.topic}"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return lint_cli.run(args)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-im",
        description="Stop-and-Stare influence maximization (SIGMOD 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list catalogued datasets").set_defaults(fn=_cmd_datasets)

    sub.add_parser(
        "algorithms", help="print the algorithm registry's capability table"
    ).set_defaults(fn=_cmd_algorithms)

    p_stats = sub.add_parser("stats", help="show a dataset stand-in's statistics")
    p_stats.add_argument("dataset", choices=list(DATASETS))
    p_stats.add_argument("--scale", type=float, default=1.0)
    p_stats.set_defaults(fn=_cmd_stats)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="nethept", choices=list(DATASETS))
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("-k", type=int, default=10)
        p.add_argument("--model", default="LT", choices=["LT", "IC"])
        p.add_argument("--epsilon", type=float, default=0.2)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--quality", action="store_true", help="Monte Carlo-evaluate the seeds")
        p.add_argument("--quality-sims", type=int, default=200)
        p.add_argument(
            "--backend",
            default="serial",
            choices=sorted(BACKENDS),
            help="RR-sampling execution backend (RIS algorithms only)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="parallel sampling workers — a pure throughput knob: the "
            "RR stream is byte-identical at any count (defaults to the "
            "CPU count when a parallel backend is chosen)",
        )
        p.add_argument(
            "--kernel",
            default=None,
            choices=KERNEL_NAMES,
            help="accepted for compatibility and reported back, but selects "
            "nothing: every name samples the same RR stream on the same "
            "engine",
        )
        add_hosts(p)

    def add_hosts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--hosts",
            default=None,
            metavar="SPEC",
            help="network-backend fleet config (with --backend network): an "
            "integer N spawns N loopback worker processes; HOST:PORT "
            "listens there for external 'repro-im worker' hosts; extras: "
            "min=K (hosts to wait for), ttl=SECONDS (heartbeat lease), "
            "cache=DIR (worker blob cache) — e.g. "
            "--hosts 0.0.0.0:8700,min=2,ttl=15",
        )

    p_run = sub.add_parser("run", help="run one algorithm")
    p_run.add_argument("algorithm", choices=list(ALGORITHMS))
    add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several algorithms")
    p_cmp.add_argument("--algorithms", nargs="+", default=["D-SSA", "SSA", "IMM"], choices=list(ALGORITHMS))
    add_common(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_query = sub.add_parser(
        "query",
        help="answer many maximize/sweep/estimate queries against a warm service",
        description=(
            "REPL-style session over a warm InfluenceService: the execution "
            "backend stays up and RR sets are cached across queries.  Reads "
            "commands from stdin (or --command), e.g. 'maximize k=10 "
            "epsilon=0.2 algorithm=D-SSA'; 'help' lists the rest.  With "
            "--connect HOST:PORT the commands run against a remote "
            "'repro-im serve' instead of an in-process engine."
        ),
    )
    p_query.add_argument("--dataset", default="nethept", choices=list(DATASETS))
    p_query.add_argument("--scale", type=float, default=1.0)
    p_query.add_argument("--model", default="LT", choices=["LT", "IC"])
    p_query.add_argument("--seed", type=int, default=7)
    p_query.add_argument("--backend", default="serial", choices=sorted(BACKENDS))
    p_query.add_argument("--workers", type=int, default=None)
    p_query.add_argument("--kernel", default=None, choices=KERNEL_NAMES)
    add_hosts(p_query)
    p_query.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="talk to a remote 'repro-im serve' instead of an in-process engine "
        "(--dataset/--seed/... are then the server's business)",
    )
    p_query.add_argument(
        "--session",
        default="default",
        help="service session name to query (default: default)",
    )
    p_query.add_argument(
        "--pool-budget",
        default=None,
        metavar="BYTES",
        help="in-process pool byte budget with LRU eviction (e.g. 800K, 64M)",
    )
    p_query.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="persist pools here on close/eviction and reattach on startup",
    )
    p_query.add_argument(
        "-c",
        "--command",
        action="append",
        metavar="CMD",
        help="run this query command instead of reading stdin (repeatable)",
    )
    p_query.set_defaults(fn=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="serve concurrent influence queries over TCP (NDJSON protocol)",
        description=(
            "Run an InfluenceServer: one warm session, many concurrent "
            "clients, newline-delimited JSON over TCP.  Queries are "
            "byte-identical to sequential one-shot runs at the same seed; "
            "the pool budget bounds memory via LRU eviction and --spill-dir "
            "makes warmup survive restarts.  Clients: "
            "'repro-im query --connect HOST:PORT' or repro.ServiceClient."
        ),
    )
    p_serve.add_argument("--dataset", default="nethept", choices=list(DATASETS))
    p_serve.add_argument("--scale", type=float, default=1.0)
    p_serve.add_argument("--model", default="LT", choices=["LT", "IC"])
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--backend", default="serial", choices=sorted(BACKENDS))
    p_serve.add_argument("--workers", type=int, default=None)
    p_serve.add_argument("--kernel", default=None, choices=KERNEL_NAMES)
    add_hosts(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 picks a free one)"
    )
    p_serve.add_argument("--session", default="default", help="name of the served session")
    p_serve.add_argument(
        "--pool-budget", default=None, metavar="BYTES",
        help="global pool byte budget with LRU eviction (e.g. 64M)",
    )
    p_serve.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="persist pools here on eviction/shutdown and reattach on startup",
    )
    p_serve.add_argument(
        "--max-workers", type=int, default=8,
        help="thread pool size for concurrent query execution",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve Prometheus text exposition to HTTP GET /metrics "
        "on this port (0 picks a free one)",
    )
    p_serve.add_argument(
        "--session-quota", default=None, metavar="BYTES",
        help="byte quota for the served session inside the pool budget "
        "(e.g. 400K, 16M): over-quota usage evicts the session's own "
        "pools first, and queries predicted to blow the quota are "
        "rejected with a structured over_budget error",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_sweep = sub.add_parser("sweep", help="influence-vs-k curve from one amortized run")
    p_sweep.add_argument("--dataset", default="nethept", choices=list(DATASETS))
    p_sweep.add_argument("--scale", type=float, default=1.0)
    p_sweep.add_argument("--model", default="LT", choices=["LT", "IC"])
    p_sweep.add_argument("--epsilon", type=float, default=0.2)
    p_sweep.add_argument("--seed", type=int, default=7)
    p_sweep.add_argument("--k-values", type=int, nargs="+", default=[1, 5, 10, 20, 50])
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_worker = sub.add_parser(
        "worker",
        help="join a network sampling fleet as one worker host",
        description=(
            "Connect to a '--backend network' coordinator, register under a "
            "heartbeat lease, and serve RR-set batches for every pool of its "
            "session, across every mutate, until the session closes.  Each "
            "graph snapshot arrives once as a content-addressed blob, cached "
            "by hash in --cache-dir across restarts.  Workers "
            "are stateless: kill one at any time, start one late — the "
            "coordinator splits each batch over the live fleet and the merged "
            "stream is byte-identical either way."
        ),
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="fleet coordinator address",
    )
    p_worker.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed graph blob cache (skips re-transfer on rejoin)",
    )
    p_worker.add_argument(
        "--label", default=None,
        help="host label shown in coordinator fault logs (default: hostname)",
    )
    p_worker.add_argument(
        "--retry", type=float, default=0.0, metavar="SECONDS",
        help="keep retrying the initial connection for this long, so workers "
        "may be launched before the coordinator is up",
    )
    p_worker.set_defaults(fn=_cmd_worker)

    p_tvm = sub.add_parser("tvm", help="targeted viral marketing experiment")
    p_tvm.add_argument("--topic", type=int, default=1, choices=[1, 2])
    p_tvm.add_argument("--scale", type=float, default=1.0)
    p_tvm.add_argument("--model", default="LT", choices=["LT", "IC"])
    p_tvm.add_argument("--epsilon", type=float, default=0.2)
    p_tvm.add_argument("--k-values", type=int, nargs="+", default=[5, 10, 20])
    p_tvm.set_defaults(fn=_cmd_tvm)

    p_lint = sub.add_parser(
        "lint",
        help="run the project invariant linter (reprolint)",
        description="Static analysis enforcing the contracts in "
        "docs/INVARIANTS.md: seed-purity, lock-discipline, "
        "provenance-stamp, resource-lifecycle.",
    )
    lint_cli.add_arguments(p_lint)
    p_lint.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    hosts_spec = getattr(args, "hosts", None)
    if hosts_spec:
        try:
            set_network_defaults(**parse_hosts_spec(hosts_spec))
        except (ReproError, ValueError) as exc:
            print(f"error: bad --hosts spec: {exc}", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
