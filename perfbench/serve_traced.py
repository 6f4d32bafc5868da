"""``repro serve`` with the benchmark's span wrappers installed.

Takes the subset of ``repro serve`` flags the benchmark uses, installs
the wrappers from ``tracing.py``, then serves through
``repro.service.server.serve``.  After a remote ``shutdown`` it prints
every recorded span as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json

import tracing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kernel", default="auto")
    parser.add_argument("--max-workers", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    import repro
    from repro.service.server import serve

    graph = repro.load_dataset(args.dataset, scale=args.scale)
    service = repro.InfluenceService(max_workers=args.max_workers)
    try:
        service.open_session(
            "default", graph, model=args.model, seed=args.seed, kernel=args.kernel
        )
        server = serve(service, host=args.host, port=args.port)
        host, port = server.address
        print(f"listening on {host}:{port}", flush=True)
        server.serve_forever()
    finally:
        service.close()
    print(json.dumps({"spans": tracer.spans}), flush=True)


if __name__ == "__main__":
    main()
