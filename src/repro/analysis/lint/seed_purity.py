"""seed-purity: no ambient nondeterminism in stream-deriving code.

Scope: ``repro/sampling/`` and ``repro/diffusion/`` — the code that
defines the RR stream.  The contract (PR 5, ``docs/INVARIANTS.md``): the
merged RR stream is a **pure function of the seed alone**.  Anything
that injects entropy from outside the counter-based stream derivation —
the process-global numpy RNG, the stdlib ``random`` module, fresh-
entropy ``default_rng()``, the wall clock, or the iteration order of a
``set`` — silently breaks byte-reproducibility across runs, backends,
and worker counts.

Flagged:

* module-level numpy convenience RNG: ``np.random.rand/choice/...``
  (the hidden global ``RandomState``);
* ``np.random.seed(...)`` — reseeding the global state is ambient
  mutation even with a constant;
* ``default_rng()`` / ``np.random.default_rng()`` **with no argument**
  (fresh OS entropy; with an argument the seed is the caller's
  explicit responsibility);
* any stdlib ``random`` module call;
* wall-clock reads: ``time.time``/``time.time_ns``/``datetime.now``/
  ``utcnow``/``date.today`` (``time.monotonic``/``perf_counter`` are
  fine — they time things, they never derive streams);
* iterating directly over a ``set`` literal, set comprehension, or
  ``set(...)``/``frozenset(...)`` call — set iteration order is not part
  of any reproducibility contract; wrap in ``sorted(...)``.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.core import (
    Checker,
    ModuleSource,
    import_aliases,
    register,
    resolve_call_name,
)

#: numpy.random module-level functions backed by the global RandomState.
_NUMPY_AMBIENT = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "laplace", "logistic", "lognormal", "logseries", "multinomial",
    "multivariate_normal", "negative_binomial", "noncentral_chisquare",
    "noncentral_f", "normal", "pareto", "permutation", "poisson", "power",
    "rand", "randint", "randn", "random", "random_integers",
    "random_sample", "ranf", "rayleigh", "sample", "seed", "shuffle",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_normal", "standard_t", "triangular", "uniform", "vonmises",
    "wald", "weibull", "zipf",
}

_STDLIB_RANDOM = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class SeedPurityChecker(Checker):
    id = "seed-purity"
    description = (
        "stream-deriving code (repro/sampling, repro/diffusion) must not "
        "read ambient RNG state, fresh entropy, the wall clock, or "
        "set-iteration order"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return "repro/sampling/" in module.path or "repro/diffusion/" in module.path

    def check(self, module: ModuleSource) -> list:
        aliases = import_aliases(module.tree)
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node, aliases))
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                if self._is_set_expr(iter_expr, aliases):
                    anchor = node if isinstance(node, ast.For) else iter_expr
                    findings.append(
                        self.finding(
                            module,
                            anchor,
                            "iteration over a set has no guaranteed order in "
                            "stream-deriving code; iterate sorted(...) instead",
                        )
                    )
        return findings

    def _check_call(self, module: ModuleSource, node: ast.Call, aliases) -> list:
        name = resolve_call_name(node, aliases)
        if name is None:
            return []
        out = []
        parts = name.split(".")
        if name.startswith("numpy.random.") and parts[-1] in _NUMPY_AMBIENT:
            out.append(
                self.finding(
                    module,
                    node,
                    f"ambient numpy RNG call {name}() draws from the "
                    "process-global RandomState; derive a generator from the "
                    "stream's SeedSequence instead",
                )
            )
        elif name == "numpy.random.default_rng" and not node.args and not node.keywords:
            out.append(
                self.finding(
                    module,
                    node,
                    "default_rng() with no seed draws fresh OS entropy; feed "
                    "it a SeedSequence derived from the stream seed",
                )
            )
        elif (
            len(parts) == 2
            and parts[0] == "random"
            and aliases.get("random", "random") == "random"
            and parts[1] in _STDLIB_RANDOM
        ):
            out.append(
                self.finding(
                    module,
                    node,
                    f"stdlib random call {name}() uses the hidden global "
                    "Mersenne Twister; use the stream's numpy generator",
                )
            )
        elif name in _WALL_CLOCK:
            out.append(
                self.finding(
                    module,
                    node,
                    f"wall-clock read {name}() in stream-deriving code; "
                    "streams must be a pure function of the seed "
                    "(time.monotonic/perf_counter are fine for timing)",
                )
            )
        return out

    @staticmethod
    def _is_set_expr(node, aliases) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = resolve_call_name(node, aliases)
            return name in ("set", "frozenset")
        return False
