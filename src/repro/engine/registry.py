"""First-class algorithm registry with capability metadata.

Every influence-maximization algorithm in the library registers itself
here with :func:`register_algorithm`, declaring what it *is* (one-shot
entry point, optional engine-aware body) and what it *supports*
(RR-set sampling, execution backends, time-critical horizons, which
keyword arguments its one-shot signature accepts).  The
:class:`~repro.engine.engine.InfluenceEngine`,
:func:`repro.experiments.runner.run_algorithm`, the ``compare``
experiment path, and the CLI all resolve algorithm names through this
table instead of hand-rolled ``if/elif`` chains, so adding an algorithm
is one decorator — no dispatch sites to update.

Names are matched case-insensitively and through declared aliases
(``"dssa"`` resolves to ``"D-SSA"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ParameterError

#: keyword arguments the experiment runner can supply; specs declare the
#: subset their one-shot signature accepts via ``accepts``.
KNOWN_OPTIONS = (
    "epsilon",
    "delta",
    "model",
    "seed",
    "roots",
    "max_samples",
    "horizon",
    "backend",
    "workers",
    "kernel",
    "simulations",
    "split",
)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: entry points plus capability metadata.

    Attributes
    ----------
    name / aliases:
        Canonical display name (the paper's legend label) and extra
        case-insensitive lookup keys.
    func:
        The one-shot entry point ``func(graph, k, **kwargs)``.
    engine_func:
        Engine-aware body ``engine_func(*ctxs, k, *, epsilon, delta,
        max_samples, ...)`` run against one warm
        :class:`~repro.engine.context.SamplingContext` per entry of
        ``streams``, in that order; ``None`` for algorithms that do not
        sample RR sets (the engine falls back to the one-shot entry
        point, with no pool reuse).
    streams:
        The stream derivations whose pools the body reads:
        ``("direct",)`` (the session seed's stream, shared by
        D-SSA/IMM/TIM) or SSA's ``("split", "verify")`` (the two
        children of ``spawn_rngs(seed, 2)``: the optimization pool and
        Estimate-Inf's verification pool).
    needs_rr_sets / supports_backend / supports_horizon /
    supports_kernel:
        Capability flags the engine and docs surface.
        ``supports_kernel`` marks algorithms whose RR sampling accepts a
        ``kernel=`` name (``--kernel``; kept for compatibility, every
        name samples the same stream).
    concurrency:
        How concurrent queries for this algorithm interact in a serving
        session: ``"shared-pool"`` (engine-bodied RIS algorithms — all
        in-flight queries read snapshots of the same RR pools, answers
        are correlated but byte-identical to sequential runs; SSA
        answers share their verification sets the same way) or
        ``"isolated"`` (one-shot fallbacks — each query runs on private
        state, concurrency-safe but with no reuse).  The
        :class:`~repro.service.service.InfluenceService` surfaces this
        so clients know which queries share conditioning.
    accepts:
        Keyword names of :data:`KNOWN_OPTIONS` the one-shot signature
        takes; the runner filters its option dict through this set.
    extra_kwargs:
        Fixed keyword arguments bound at registration (e.g. CELF++'s
        ``plus_plus=True``).
    """

    name: str
    func: Callable
    description: str
    engine_func: Callable | None = None
    streams: tuple = ("direct",)
    needs_rr_sets: bool = False
    supports_backend: bool = False
    supports_horizon: bool = False
    supports_kernel: bool = False
    concurrency: str = "isolated"
    accepts: frozenset = frozenset()
    extra_kwargs: tuple = ()
    aliases: tuple = ()

    def one_shot_kwargs(self, options: dict) -> dict:
        """Filter a runner option dict down to what ``func`` accepts."""
        kwargs = {key: val for key, val in options.items() if key in self.accepts}
        kwargs.update(dict(self.extra_kwargs))
        return kwargs

    def run_one_shot(self, graph, k: int, options: dict):
        """Invoke the one-shot entry point with filtered options."""
        return self.func(graph, k, **self.one_shot_kwargs(options))


_REGISTRY: dict[str, AlgorithmSpec] = {}
_LOOKUP: dict[str, str] = {}  # lowercase name/alias -> canonical name
_BUILTINS_LOADED = False


def register_algorithm(
    name: str,
    *,
    description: str,
    engine_func: Callable | None = None,
    streams: tuple = ("direct",),
    needs_rr_sets: bool = False,
    supports_backend: bool = False,
    supports_horizon: bool = False,
    supports_kernel: bool | None = None,
    concurrency: str | None = None,
    accepts: tuple = (),
    extra_kwargs: tuple = (),
    aliases: tuple = (),
):
    """Class-of-one decorator: register ``func`` under ``name``.

    Returns the function unchanged, so registrations stack (CELF and
    CELF++ are two specs over one implementation).  Unknown ``accepts``
    keys and duplicate names are rejected at import time — a misdeclared
    algorithm fails fast, not at query time.  ``concurrency`` defaults
    from the engine body: ``"shared-pool"`` when one exists,
    ``"isolated"`` otherwise; ``supports_kernel`` defaults from the
    declared ``accepts`` (an algorithm that takes ``kernel=`` accepts
    kernel names).
    """
    if supports_kernel is None:
        supports_kernel = "kernel" in accepts
    unknown = set(accepts) - set(KNOWN_OPTIONS)
    if unknown:
        raise ParameterError(f"algorithm {name!r} declares unknown options {sorted(unknown)}")
    streams = tuple(streams)
    if streams not in (("direct",), ("split", "verify")):
        raise ParameterError(
            f"algorithm {name!r}: streams must be ('direct',) or ('split', 'verify')"
        )
    if concurrency is None:
        concurrency = "shared-pool" if engine_func is not None else "isolated"
    if concurrency not in ("shared-pool", "isolated"):
        raise ParameterError(
            f"algorithm {name!r}: concurrency must be 'shared-pool' or 'isolated'"
        )

    def decorator(func: Callable) -> Callable:
        spec = AlgorithmSpec(
            name=name,
            func=func,
            description=description,
            engine_func=engine_func,
            streams=streams,
            needs_rr_sets=needs_rr_sets,
            supports_backend=supports_backend,
            supports_horizon=supports_horizon,
            supports_kernel=supports_kernel,
            concurrency=concurrency,
            accepts=frozenset(accepts),
            extra_kwargs=tuple(extra_kwargs),
            aliases=tuple(aliases),
        )
        _register(spec)
        return func

    return decorator


def _register(spec: AlgorithmSpec) -> None:
    if spec.name in _REGISTRY:
        raise ParameterError(f"algorithm {spec.name!r} is already registered")
    for key in (spec.name, *spec.aliases):
        lower = key.strip().lower()
        if lower in _LOOKUP:
            raise ParameterError(
                f"algorithm name {key!r} collides with registered {_LOOKUP[lower]!r}"
            )
    _REGISTRY[spec.name] = spec
    for key in (spec.name, *spec.aliases):
        _LOOKUP[key.strip().lower()] = spec.name


def _load_builtins() -> None:
    """Import the library's algorithm modules so their decorators run."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.core.dssa  # noqa: F401
    import repro.core.ssa  # noqa: F401
    import repro.baselines.imm  # noqa: F401
    import repro.baselines.tim  # noqa: F401
    import repro.baselines.celf  # noqa: F401
    import repro.baselines.irie  # noqa: F401
    import repro.baselines.degree  # noqa: F401


def get_algorithm(name: str) -> AlgorithmSpec:
    """Resolve a name or alias (case-insensitive) to its spec."""
    _load_builtins()
    canonical = _LOOKUP.get(str(name).strip().lower())
    if canonical is None:
        raise ParameterError(
            f"unknown algorithm {name!r}; known: {tuple(_REGISTRY)}"
        )
    return _REGISTRY[canonical]


def list_algorithms() -> tuple:
    """Canonical algorithm names in registration order."""
    _load_builtins()
    return tuple(_REGISTRY)


def registry_table() -> str:
    """Render the registry as an aligned capability table.

    Auto-generated from the registered metadata — the README and the
    ``repro-im algorithms`` subcommand both print this, so docs cannot
    drift from the code.
    """
    from repro.utils.tables import format_table

    _load_builtins()
    rows = []
    for spec in _REGISTRY.values():
        rows.append(
            [
                spec.name,
                "yes" if spec.engine_func is not None else "one-shot only",
                "yes" if spec.needs_rr_sets else "no",
                "yes" if spec.supports_backend else "-",
                "yes" if spec.supports_horizon else "-",
                "yes" if spec.supports_kernel else "-",
                spec.concurrency,
                spec.description,
            ]
        )
    from repro.sampling.kernels import KERNEL_NAMES

    table = format_table(
        ["algorithm", "engine reuse", "RR sets", "backends", "horizon", "kernels", "concurrency", "description"],
        rows,
        title="Registered influence-maximization algorithms",
    )
    return (
        f"{table}\n"
        f"kernels: {', '.join(KERNEL_NAMES)} (accepted for compatibility; "
        "every name samples the same stream)"
    )
