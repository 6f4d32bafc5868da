"""Runtime span tracing for the benchmark's traced run.

Nothing in ``src/`` records spans.  :func:`install` wraps each layer's
public entry points in place (module attributes and class methods), so
every later call records one span: name, start, end, parent span,
request id, and a few counters taken at the call boundary.  Spans are
held in memory and dumped by the caller when the run ends.

The tracer rebinds library attributes, so it is process-wide by
nature: only the traced run and the traced server launcher call
:func:`install`, once, before doing any traced work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time


class Tracer:
    """In-memory span recorder with a parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its attrs.

        A span opened with no parent on its thread starts a new request
        id; nested spans inherit their parent's.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "req": parent["req"] if parent else next(self._requests),
            "attrs": {},
        }
        stack.append(record)
        record["t0"] = time.perf_counter()
        try:
            yield record["attrs"]
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["t1"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)


def _spanned(tracer: Tracer, func, name: str, after=None):
    """``func`` wrapped in a span; ``after(attrs, args, kwargs, result)``
    fills the span's counters once the call has returned."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = func(*args, **kwargs)
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

    return wrapper


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    """Rebind ``owner.attr`` (a function, method or classmethod)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_spanned(tracer, raw.__func__, name, after)))
    else:
        setattr(owner, attr, _spanned(tracer, raw, name, after))


def _wrap_cm(tracer: Tracer, owner, attr: str, name: str, *, enter_name=None,
             enter_probe=None) -> None:
    """Span a ``@contextmanager`` method over its whole ``with`` body.

    With ``enter_name``, entering the original manager — where a query
    may wait, e.g. in the admission queue — gets a child span of its
    own; ``enter_probe(self)`` is read before and after entering and the
    pair lands in that span's attrs.
    """
    original = owner.__dict__[attr]

    @contextlib.contextmanager
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        with tracer.span(name):
            manager = original(self, *args, **kwargs)
            if enter_name is None:
                value = manager.__enter__()
            else:
                with tracer.span(enter_name) as attrs:
                    before = enter_probe(self) if enter_probe else None
                    value = manager.__enter__()
                    if enter_probe:
                        attrs["probe"] = (before, enter_probe(self))
            with contextlib.ExitStack() as stack:
                stack.push(manager)
                yield value

    setattr(owner, attr, wrapper)


def rr_footprint(rr_sets) -> int:
    """Bytes a batch of per-set arrays really retains.

    Array headers and payload, with a payload shared through a common
    base array (``np.split`` views) counted once, plus one list slot per
    set.  Compare with the pool's own ``nbytes`` (4 bytes per entry).
    """
    total = 0
    bases = {}
    for rr in rr_sets:
        total += sys.getsizeof(rr) + 8
        base = rr.base
        if base is not None and hasattr(base, "nbytes"):
            bases[id(base)] = base.nbytes
    return total + sum(bases.values())


def _count_sets(attrs, args, kwargs, result) -> None:
    attrs["sets"] = len(result)
    attrs["entries"] = int(sum(rr.size for rr in result))


def _count_shard_bytes(attrs, args, kwargs, result) -> None:
    attrs["bytes"] = int(sum(rr.nbytes for shard in result for rr in shard))


def _count_respawns(attrs, args, kwargs, result) -> None:
    attrs["respawns"] = int(getattr(args[0], "respawns", 0))


def _count_scan(attrs, args, kwargs, result) -> None:
    collection = args[0]
    flat, _offsets = collection.flat_view(kwargs.get("start", 0), kwargs.get("end"))
    attrs["entries"] = int(flat.size)


def _count_dssa(attrs, args, kwargs, result) -> None:
    attrs["iterations"] = int(result.iterations)
    attrs["demanded"] = int(result.samples)
    attrs["sampled"] = int(getattr(args[0], "sampled", 0))
    attrs["capped"] = int(result.stopped_by == "cap")


def _count_require(attrs, args, kwargs, result) -> None:
    attrs["sets"] = len(result)
    attrs["bytes"] = int(result.nbytes)


def _count_wire_in(attrs, args, kwargs, result) -> None:
    attrs["bytes"] = len(args[0])


def _count_wire_out(attrs, args, kwargs, result) -> None:
    attrs["bytes"] = len(result)


def _count_repair(attrs, args, kwargs, result) -> None:
    attrs["invalidated"] = int(result["invalidated"])


def _queued_total(controller) -> int:
    return sum(c.get("queued", 0) for c in controller.counters().values())


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points."""
    import repro
    # import_module, not "import a.b as m": packages re-export functions
    # under their modules' names (repro.core.dssa is also a function).
    dssa_mod = importlib.import_module("repro.core.dssa")
    synthetic = importlib.import_module("repro.datasets.synthetic")
    repair_mod = importlib.import_module("repro.dynamic.repair")
    sampling_base = importlib.import_module("repro.sampling.base")
    server_mod = importlib.import_module("repro.service.server")
    service_mod = importlib.import_module("repro.service.service")
    from repro.dynamic.index import RRSetIndex
    from repro.dynamic.view import MutableGraphView
    from repro.engine.registry import get_algorithm
    from repro.sampling.backends.base import ExecutionBackend
    from repro.sampling.rr_collection import RRCollection, _CoverageReadOps
    from repro.sampling.sharded import ShardedSampler
    from repro.service.admission import AdmissionController
    from repro.service.pool import PoolManager, QueryView
    from repro.service.service import InfluenceService

    # graph / datasets
    _wrap(tracer, synthetic, "load_dataset", "graph.load_dataset")
    repro.load_dataset = synthetic.load_dataset

    # sampling: the auto pilot and the in-process kernels
    _wrap(tracer, sampling_base, "resolve_kernel", "sampling.resolve_kernel")
    _wrap(tracer, sampling_base.RRSampler, "sample_batch", "sampling.sample_batch", _count_sets)
    _wrap(tracer, sampling_base.RRSampler, "sample_block", "sampling.sample_block", _count_sets)

    # sampling.backends + sharded coordinator
    _wrap(tracer, ShardedSampler, "__init__", "backends.spawn")
    _wrap(tracer, ShardedSampler, "sample_batch", "backends.sample_batch", _count_sets)
    _wrap(tracer, ShardedSampler, "sample_block", "backends.sample_block", _count_sets)
    _wrap(tracer, ExecutionBackend, "sample_shards", "backends.sample_shards",
          _count_shard_bytes)
    _wrap(tracer, ExecutionBackend, "close", "backends.close", _count_respawns)

    # sampling.rr_collection
    original_extend = RRCollection.extend

    def extend(self, rr_sets):
        rr_sets = list(rr_sets)
        with tracer.span("rr_collection.extend") as attrs:
            original_extend(self, rr_sets)
            attrs["bytes_reported"] = 4 * int(sum(rr.size for rr in rr_sets))
            attrs["bytes_traced"] = rr_footprint(rr_sets)

    RRCollection.extend = extend
    _wrap(tracer, RRCollection, "snapshot", "rr_collection.snapshot")
    _wrap(tracer, RRCollection, "flat_view", "rr_collection.flat_view")
    _wrap(tracer, _CoverageReadOps, "coverage", "rr_collection.coverage")

    # core.max_coverage as core.dssa binds it; core.dssa as the registry does
    _wrap(tracer, dssa_mod, "max_coverage", "max_coverage", _count_scan)
    spec = get_algorithm("D-SSA")
    object.__setattr__(
        spec, "engine_func", _spanned(tracer, spec.engine_func, "dssa", _count_dssa)
    )

    # engine + service.pool
    _wrap_cm(tracer, PoolManager, "query", "pool.query")
    _wrap(tracer, QueryView, "require", "pool.require", _count_require)

    # service.admission, as service.service binds it
    _wrap(tracer, service_mod, "estimate_cost", "admission.estimate_cost")
    _wrap_cm(tracer, AdmissionController, "admit", "admission.admit",
             enter_name="admission.admit_wait", enter_probe=_queued_total)

    # service.service
    _wrap(tracer, InfluenceService, "call", "service.call")

    # service.server / protocol: request and response bytes
    _wrap(tracer, server_mod, "decode_line", "wire.decode", _count_wire_in)
    _wrap(tracer, server_mod, "encode_line", "wire.encode", _count_wire_out)

    # dynamic
    _wrap(tracer, MutableGraphView, "apply", "dynamic.apply")
    _wrap(tracer, RRSetIndex, "from_collection", "dynamic.index")
    _wrap(tracer, repair_mod, "repair_context", "dynamic.repair", _count_repair)
    original_replace = RRCollection.replace_many

    def replace_many(self, updates):
        # How many resampled sets came back different from the stored one.
        changed = sum(
            1 for index, rr in updates.items()
            if not _same_set(self[int(index)], rr)
        )
        with tracer.span("rr_collection.replace_many") as attrs:
            attrs["resampled"] = len(updates)
            attrs["changed"] = changed
            return original_replace(self, updates)

    RRCollection.replace_many = replace_many


def _same_set(old, new) -> bool:
    return old.shape == new.shape and bool((old == new).all())


# ----------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ----------------------------------------------------------------------
#: (metric, unit, what it is); "per op" divides by the timed ops (cold
#: workloads: sessions), "per write" by the timed mutates.
LAYER_METRICS = (
    ("graph.build_s", "s", "mean load_dataset call"),
    ("sampling.sets", "count", "RR sets produced per op (in-process and fleet)"),
    ("sampling.entries", "count", "RR entries produced per op"),
    ("sampling.busy_s", "s", "in-process kernel time per op"),
    ("sampling.sets_per_s", "1/s", "sets / (in-process kernel time + shard wait)"),
    ("sampling.pilot_s", "s", "resolve_kernel (auto pilot) time per op"),
    ("backends.spawn_s", "s", "ShardedSampler construction (fleet spawn) per op"),
    ("backends.shard_wait_s", "s", "sample_shards wait per op (worker kernels inside)"),
    ("backends.merge_s", "s", "coordinator self time around sample_shards per op"),
    ("backends.close_s", "s", "fleet teardown per op"),
    ("backends.bytes_computed", "B", "RR payload bytes returned by shards per op"),
    ("backends.respawns", "count", "workers respawned after a crash (total)"),
    ("rr_collection.append_s", "s", "extend per op"),
    ("rr_collection.compile_s", "s", "snapshot/flat_view compile per op"),
    ("rr_collection.coverage_s", "s", "coverage queries per op"),
    ("rr_collection.bytes_reported", "B", "appended bytes as nbytes reports them, per op"),
    ("rr_collection.bytes_traced", "B", "appended bytes really retained, per op"),
    ("max_coverage.calls", "count", "greedy calls per op"),
    ("max_coverage.busy_s", "s", "greedy time per op"),
    ("max_coverage.entries_scanned", "count", "entries greedy scanned per op"),
    ("max_coverage.rescan_ratio", "ratio", "scanned / final find-half entries"),
    ("dssa.iterations", "count", "mean D-SSA iterations"),
    ("dssa.sets_demanded", "count", "mean D-SSA demand"),
    ("dssa.sets_sampled", "count", "mean sets a D-SSA call sampled"),
    ("dssa.cache_hit_ratio", "ratio", "1 - sampled / demanded"),
    ("dssa.capped", "count", "D-SSA calls stopped by the sample cap (total)"),
    ("pool.query_s", "s", "PoolManager.query body per op"),
    ("pool.wait_s", "s", "require minus the sampling, append and compile in it, per op"),
    ("pool.sets", "count", "mean sets in a require snapshot"),
    ("pool.bytes", "B", "mean bytes in a require snapshot"),
    ("admission.estimate_s", "s", "estimate_cost per op"),
    ("admission.wait_s", "s", "admission entry (queueing) per op"),
    ("admission.accepted", "count", "admitted calls (total)"),
    ("admission.queued", "count", "calls that queued (total)"),
    ("admission.rejected", "count", "calls rejected (total)"),
    ("service.call_s", "s", "mean InfluenceService.call"),
    ("service.errors", "count", "calls that raised (total)"),
    ("wire.overhead_ms", "ms", "client-observed minus server call time, per request"),
    ("wire.bytes_in", "B", "request bytes per op"),
    ("wire.bytes_out", "B", "response bytes per op"),
    ("dynamic.apply_s", "s", "MutableGraphView.apply per write"),
    ("dynamic.index_s", "s", "RRSetIndex.from_collection per write"),
    ("dynamic.repair_s", "s", "repair_context per write"),
    ("dynamic.invalidated", "count", "sets invalidated per write"),
    ("dynamic.changed_ratio", "ratio", "resampled sets whose bytes changed / resampled"),
    ("tracing.overhead_p50_ms", "ms", "traced minus untraced query_p50"),
    ("tracing.overhead_pct", "%", "traced minus untraced timed-phase wall, in %"),
)

_SAMPLING = ("sampling.sample_batch", "sampling.sample_block")
_COORDINATOR = ("backends.sample_batch", "backends.sample_block")
_COMPILE = ("rr_collection.snapshot", "rr_collection.flat_view")


def _dur(span) -> float:
    return span["t1"] - span["t0"]


def layer_metrics(spans, *, window, ops: int, mutates: int = 0,
                  client_seconds: "float | None" = None) -> dict:
    """Per-layer metrics over the spans that started inside ``window``.

    ``graph.build_s`` reads every ``load_dataset`` span instead (builds
    are set-up work).  ``client_seconds`` is the summed client-observed
    latency of the timed requests, for ``wire.overhead_ms``.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    lo, hi = window
    timed = [s for s in spans if lo <= s["t0"] <= hi]
    named: dict = {}
    for s in timed:
        named.setdefault(s["name"], []).append(s)

    def of(*names):
        return [s for name in names for s in named.get(name, [])]

    def total(items, key=None) -> float:
        return float(sum(_dur(s) if key is None else s["attrs"].get(key, 0) for s in items))

    def self_time(span) -> float:
        return _dur(span) - sum(_dur(c) for c in children.get(span["id"], []))

    def parent_name(span):
        parent = by_id.get(span["parent"])
        return parent["name"] if parent else None

    def per_op(value) -> float:
        return value / ops if ops else 0.0

    def per_write(value) -> float:
        return value / mutates if mutates else 0.0

    def mean(items, key) -> float:
        return total(items, key) / len(items) if items else 0.0

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    builds = [s for s in spans if s["name"] == "graph.load_dataset"]
    kernel_spans = [s for s in of(*_SAMPLING) if parent_name(s) not in _SAMPLING]
    produced = kernel_spans + of(*_COORDINATOR)
    busy = total(kernel_spans)
    shard_wait = total(of("backends.sample_shards"))
    coverage_calls = of("max_coverage")
    final_scans = 0
    for d in of("dssa"):
        greedy = [c for c in children.get(d["id"], []) if c["name"] == "max_coverage"]
        if greedy:
            final_scans += max(greedy, key=lambda c: c["t0"])["attrs"].get("entries", 0)
    dssa_calls = of("dssa")
    requires = of("pool.require")
    waits = of("admission.admit_wait")
    calls = of("service.call")
    resampled = of("rr_collection.replace_many")

    metrics = {
        "graph.build_s": total(builds) / len(builds) if builds else 0.0,
        "sampling.sets": per_op(total(produced, "sets")),
        "sampling.entries": per_op(total(produced, "entries")),
        "sampling.busy_s": per_op(busy),
        "sampling.sets_per_s": ratio(total(produced, "sets"), busy + shard_wait),
        "sampling.pilot_s": per_op(total(of("sampling.resolve_kernel"))),
        "backends.spawn_s": per_op(total(of("backends.spawn"))),
        "backends.shard_wait_s": per_op(shard_wait),
        "backends.merge_s": per_op(sum(self_time(s) for s in of(*_COORDINATOR))),
        "backends.close_s": per_op(total(of("backends.close"))),
        "backends.bytes_computed": per_op(total(of("backends.sample_shards"), "bytes")),
        "backends.respawns": total(of("backends.close"), "respawns"),
        "rr_collection.append_s": per_op(total(of("rr_collection.extend"))),
        "rr_collection.compile_s": per_op(
            total([s for s in of(*_COMPILE) if parent_name(s) not in _COMPILE])
        ),
        "rr_collection.coverage_s": per_op(total(of("rr_collection.coverage"))),
        "rr_collection.bytes_reported": per_op(
            total(of("rr_collection.extend"), "bytes_reported")
        ),
        "rr_collection.bytes_traced": per_op(total(of("rr_collection.extend"), "bytes_traced")),
        "max_coverage.calls": per_op(len(coverage_calls)),
        "max_coverage.busy_s": per_op(total(coverage_calls)),
        "max_coverage.entries_scanned": per_op(total(coverage_calls, "entries")),
        "max_coverage.rescan_ratio": ratio(total(coverage_calls, "entries"), final_scans),
        "dssa.iterations": mean(dssa_calls, "iterations"),
        "dssa.sets_demanded": mean(dssa_calls, "demanded"),
        "dssa.sets_sampled": mean(dssa_calls, "sampled"),
        "dssa.cache_hit_ratio": (
            1.0 - ratio(total(dssa_calls, "sampled"), total(dssa_calls, "demanded"))
            if dssa_calls else 0.0
        ),
        "dssa.capped": total(dssa_calls, "capped"),
        "pool.query_s": per_op(total(of("pool.query"))),
        "pool.wait_s": per_op(sum(self_time(s) for s in requires)),
        "pool.sets": mean(requires, "sets"),
        "pool.bytes": mean(requires, "bytes"),
        "admission.estimate_s": per_op(total(of("admission.estimate_cost"))),
        "admission.wait_s": per_op(total(waits)),
        "admission.accepted": float(sum(1 for s in waits if "error" not in s["attrs"])),
        "admission.queued": float(
            sum(1 for s in waits if s["attrs"].get("probe", (0, 0))[1]
                > s["attrs"].get("probe", (0, 0))[0])
        ),
        "admission.rejected": float(sum(1 for s in waits if "error" in s["attrs"])),
        "service.call_s": mean(calls, None) if calls else 0.0,
        "service.errors": float(sum(1 for s in calls if "error" in s["attrs"])),
        "wire.overhead_ms": (
            per_op(client_seconds - total(calls)) * 1e3
            if client_seconds is not None else 0.0
        ),
        "wire.bytes_in": per_op(total(of("wire.decode"), "bytes")),
        "wire.bytes_out": per_op(total(of("wire.encode"), "bytes")),
        "dynamic.apply_s": per_write(total(of("dynamic.apply"))),
        "dynamic.index_s": per_write(total(of("dynamic.index"))),
        "dynamic.repair_s": per_write(total(of("dynamic.repair"))),
        "dynamic.invalidated": per_write(total(of("dynamic.repair"), "invalidated")),
        "dynamic.changed_ratio": ratio(total(resampled, "changed"), total(resampled, "resampled")),
    }
    return metrics


def overhead(*, untraced, untraced_wall, traced, traced_wall) -> dict:
    """Tracing overhead: the traced pass's numbers minus the untraced's."""
    return {
        "tracing.overhead_p50_ms": (statistics.median(traced) - statistics.median(untraced)) * 1e3,
        "tracing.overhead_pct": (traced_wall - untraced_wall) / untraced_wall * 100.0,
    }
