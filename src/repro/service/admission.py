"""Admission control: predict a query's RR-set bill before running it.

The serving tier's scarce resource is pooled RR-set bytes.  A query's
bill is estimable *before any sampling happens* from quantities the
engine already tracks — the RIS theta bounds give the set count, the
pool gives the observed mean set size, and current occupancy says how
much of the demand is already cached:

* **Set count** — D-SSA (and the other stop-and-stare RIS algorithms)
  consume the stream in doubling rungs ``2·Λ·2^(t-1)`` up to the
  theta cap ``N_max`` (:func:`repro.core.thresholds.sample_cap`).  The
  admission estimate is the first rung the pool does not already cover
  — the *cheapest outcome that samples at all*.  The true bill may
  double a few more times before the stopping conditions fire; the cap
  rides along as the worst case (``cap_sets``).  Only a query's first
  stream is billed: SSA's verification pool is not.
* **Bytes per set** — the pool's observed mean (``nbytes / len``) when
  it holds anything, else a conservative prior
  (:data:`DEFAULT_SET_BYTES`).
* **Occupancy** — cached sets are free (the pool layer serves them
  byte-identically without sampling), so only the deficit is billed.

The :class:`AdmissionController` turns estimates into decisions against
the session's byte quota:

* bill alone exceeds the quota → **reject** immediately with a
  structured ``over_budget`` error carrying the estimate;
* bill fits the quota but concurrent in-flight queries hold too many
  reserved bytes → **queue** (bounded wait for reservations to drain,
  then reject);
* otherwise → **admit**, reserving the bill until the query finishes.

Accept/reject/queue counters per session feed the Prometheus exposition
(:func:`repro.service.metrics.prometheus_text`).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.thresholds import max_iterations, sample_cap
from repro.exceptions import ReproError
from repro.service.errors import OverBudgetError
from repro.utils.mathstats import upsilon

#: bytes-per-RR-set prior used before a pool has observed anything.
#: RR sets are int32 node arrays; 16 nodes/set is generous for the
#: sparse weighted-cascade regime and safely conservative for admission.
DEFAULT_SET_BYTES = 64

#: pool floor the ``estimate`` op tops an empty session up to (mirrors
#: ``repro.engine.engine._DEFAULT_ESTIMATE_SAMPLES``).
_ESTIMATE_FLOOR = 4096

#: operations the controller gates; everything else (ping, stats,
#: metrics, resize, mutate, ...) has no RR-set bill.
ADMITTED_OPS = ("maximize", "sweep", "estimate")


@dataclass(frozen=True)
class CostEstimate:
    """One query's predicted RR-set bill, computed before admission.

    ``demand_sets`` is the predicted total stream prefix the query will
    require; ``sets_to_sample``/``bytes_to_sample`` is the deficit after
    cache (the actual bill); ``cap_sets`` is the theta worst case.
    """

    op: str
    session: str
    algorithm: "str | None"
    k: "int | None"
    epsilon: "float | None"
    occupancy_sets: int
    pooled_bytes: int
    mean_set_bytes: float
    demand_sets: int
    sets_to_sample: int
    bytes_to_sample: int
    cap_sets: int
    quota_bytes: "int | None"

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "session": self.session,
            "algorithm": self.algorithm,
            "k": self.k,
            "epsilon": self.epsilon,
            "occupancy_sets": self.occupancy_sets,
            "pooled_bytes": self.pooled_bytes,
            "mean_set_bytes": round(self.mean_set_bytes, 2),
            "demand_sets": self.demand_sets,
            "sets_to_sample": self.sets_to_sample,
            "bytes_to_sample": self.bytes_to_sample,
            "cap_sets": self.cap_sets,
            "quota_bytes": self.quota_bytes,
        }


def predict_demand(
    n: int,
    k: int,
    epsilon: float,
    delta: float,
    *,
    occupancy: int = 0,
    max_samples: "int | None" = None,
) -> "tuple[int, int]":
    """Predicted stream demand of one stop-and-stare query.

    Returns ``(demand_sets, cap_sets)``: the first doubling rung
    ``2·Λ·2^(t-1)`` beyond what the pool already holds (clamped to the
    theta cap), and the cap itself.  A pool at or past the cap predicts
    zero sampling (``demand == occupancy``).
    """
    cap = sample_cap(n, k, epsilon, delta)
    if max_samples is not None:
        cap = min(cap, float(max_samples))
    cap_sets = int(math.ceil(cap))
    t_max = max_iterations(n, k, epsilon, delta)
    lambda_base = int(math.ceil(upsilon(epsilon, delta / (3.0 * t_max))))
    demand = occupancy
    for t in range(1, t_max + 1):
        rung = min(2 * lambda_base * (2 ** (t - 1)), cap_sets)
        if rung > occupancy:
            demand = rung
            break
        if rung >= cap_sets:
            break
    return demand, cap_sets


def _opt_num(params: dict, name: str, cast, default=None):
    value = params.get(name)
    if value is None:
        return default
    return cast(value)


def estimate_cost(
    engine,
    *,
    op: str,
    session: str,
    params: dict,
    quota_bytes: "int | None" = None,
) -> "CostEstimate | None":
    """Estimate one operation's RR-set bill against a session engine.

    Returns ``None`` when the operation carries no pool bill (one-shot
    algorithms sample outside the pools) or when the parameters are
    malformed — admission never masks the handler's real
    ``bad_request`` error with a cost-model failure.
    """
    if op not in ADMITTED_OPS:
        return None
    try:
        return _estimate_cost(
            engine, op=op, session=session, params=params, quota_bytes=quota_bytes
        )
    except (ReproError, ValueError, TypeError, KeyError, OverflowError):
        return None


def _estimate_cost(engine, *, op, session, params, quota_bytes):
    from repro.engine.registry import get_algorithm

    n = engine.graph.n
    algorithm = None
    k = None
    epsilon = None
    horizon = _opt_num(params, "horizon", int)
    model = params.get("model")

    if op == "estimate":
        occupancy, pooled_bytes = engine.pool_occupancy(
            stream="direct", model=model, horizon=horizon
        )
        samples = _opt_num(params, "samples", int)
        demand = samples if samples is not None else max(occupancy, _ESTIMATE_FLOOR)
        cap = demand
    else:
        algorithm = str(params.get("algorithm", "D-SSA"))
        spec = get_algorithm(algorithm)
        if spec.engine_func is None or not spec.needs_rr_sets:
            return None  # one-shot algorithms never touch the pools
        if op == "sweep":
            ks = params.get("ks") or ()
            if isinstance(ks, str):
                ks = [tok for tok in ks.replace(",", " ").split() if tok]
            k = max(int(v) for v in ks)
        else:
            k = int(params["k"])
        epsilon = _opt_num(params, "epsilon", float, 0.1)
        delta = _opt_num(params, "delta", float, 1.0 / max(n, 2))
        max_samples = _opt_num(params, "max_samples", int)
        occupancy, pooled_bytes = engine.pool_occupancy(
            stream=spec.streams[0], model=model, horizon=horizon
        )
        demand, cap = predict_demand(
            n, k, epsilon, delta, occupancy=occupancy, max_samples=max_samples
        )

    mean_set_bytes = (
        pooled_bytes / occupancy if occupancy else float(DEFAULT_SET_BYTES)
    )
    sets_to_sample = max(0, demand - occupancy)
    return CostEstimate(
        op=op,
        session=session,
        algorithm=algorithm,
        k=k,
        epsilon=epsilon,
        occupancy_sets=occupancy,
        pooled_bytes=pooled_bytes,
        mean_set_bytes=mean_set_bytes,
        demand_sets=demand,
        sets_to_sample=sets_to_sample,
        bytes_to_sample=int(math.ceil(sets_to_sample * mean_set_bytes)),
        cap_sets=cap,
        quota_bytes=quota_bytes,
    )


class AdmissionController:
    """Reservation-based admission against per-session byte quotas.

    Admitted queries *reserve* their estimated bill until completion, so
    a burst of concurrent queries on one session cannot collectively
    blow its quota by each fitting individually.  Quota-less sessions
    are always admitted (counters still tick).

    Parameters
    ----------
    queue_timeout:
        How long an over-reserved (but individually affordable) query
        waits for in-flight reservations to drain before being rejected.
        ``0`` disables queueing — reject immediately.
    """

    def __init__(self, *, queue_timeout: float = 0.5) -> None:
        if queue_timeout < 0:
            raise ValueError(f"queue_timeout must be >= 0, got {queue_timeout}")
        self.queue_timeout = float(queue_timeout)
        self._cond = threading.Condition()
        self._reserved: dict[str, int] = {}
        self._counters: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """``{session: {outcome: count}}`` for every session seen."""
        with self._cond:
            items = list(self._counters.items())
        out: dict = {}
        for (session, outcome), count in items:
            out.setdefault(session, {})[outcome] = count
        return out

    def reserved_for(self, session: str) -> int:
        """Bytes currently reserved by the session's in-flight queries."""
        with self._cond:
            return self._reserved.get(session, 0)

    def _count_locked(self, session: str, outcome: str) -> None:
        key = (session, outcome)
        self._counters[key] = self._counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @contextmanager
    def admit(self, *, session: str, quota: "int | None", estimate: "CostEstimate | None"):
        """Admit, queue, or reject one query; yields inside the reservation.

        Raises :class:`~repro.service.errors.OverBudgetError` (wire code
        ``over_budget``, estimate attached) on rejection.
        """
        bill = estimate.bytes_to_sample if estimate is not None else 0
        if quota is None or bill == 0:
            with self._cond:
                self._count_locked(session, "accepted")
            yield estimate
            return
        if bill > quota:
            with self._cond:
                self._count_locked(session, "rejected")
            raise OverBudgetError(
                f"query on session {session!r} predicts a {bill}-byte RR-set "
                f"bill, over the {quota}-byte session quota",
                estimate=estimate.as_dict(),
            )
        deadline = time.monotonic() + self.queue_timeout
        with self._cond:
            queued = False
            while self._reserved.get(session, 0) + bill > quota:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._count_locked(session, "rejected")
                    raise OverBudgetError(
                        f"query on session {session!r} predicts a {bill}-byte "
                        f"bill; in-flight queries hold "
                        f"{self._reserved.get(session, 0)} of the {quota}-byte "
                        f"quota reserved (queued {self.queue_timeout:.1f}s)",
                        estimate=estimate.as_dict(),
                    )
                if not queued:
                    queued = True
                    self._count_locked(session, "queued")
                self._cond.wait(remaining)
            self._reserved[session] = self._reserved.get(session, 0) + bill
            self._count_locked(session, "accepted")
        try:
            yield estimate
        finally:
            with self._cond:
                left = self._reserved.get(session, 0) - bill
                if left > 0:
                    self._reserved[session] = left
                else:
                    self._reserved.pop(session, None)
                self._cond.notify_all()
