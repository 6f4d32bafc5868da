"""provenance-stamp: stream identity must be threaded, never defaulted.

Replayability rests on every artifact carrying its full stream
provenance: which derivation produced the RR sets (``stream_id``), from
which ``seed``, under which ``model``/``horizon``.  The dataclasses
involved give these fields defaults so old call sites keep importing —
but a *new* call site that silently inherits a default is exactly how a
pool gets keyed to the wrong stream or a results row becomes
unreplayable.  This checker makes the defaults unusable:

* ``PoolKey(...)`` must pass ``stream_id`` and ``graph_version``
  explicitly (or all six positionals) — pools cache RR sets per stream
  *per graph snapshot*, and a defaulted field would alias pools across
  derivations or across mutations;
* ``RunRecord(...)`` must pass every provenance field — ``seed``,
  ``backend``, ``workers``, ``kernel``, ``stream_id``,
  ``graph_version`` — explicitly; ``None`` is fine (it states "not
  replayable" / "pristine graph" on purpose), omission is not;
* ``make_stamp(...)`` must pass ``model``, ``stream``, ``horizon``,
  ``seed``, ``sampler`` and ``graph_version`` — a spill stamp missing
  any of them cannot be verified on reattach (``graph_version=None``
  states "pristine lineage" explicitly; see the stamp's nonzero-only
  embedding in :func:`repro.service.store.make_stamp`);
* a ``state_dict`` method in ``repro/sampling/`` that returns a dict
  literal must include ``"stream_id"`` and ``"graph_version"`` keys —
  resuming a stream without its derivation or graph lineage is how
  cross-derivation and cross-mutation resume bugs are born.

A call made with ``**kwargs`` is skipped: the checker cannot see the
keys, and forcing a rewrite there would be guessing.
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

#: constructor suffix -> (required keyword set, positional count that
#: also satisfies the requirement, human phrasing of why).
_REQUIRED = {
    "PoolKey": (
        {"stream_id", "graph_version"},
        6,
        "pools cache RR sets per stream derivation per graph snapshot; a "
        "defaulted stream_id or graph_version aliases pools across "
        "derivations or across mutations",
    ),
    "RunRecord": (
        {"seed", "backend", "workers", "kernel", "stream_id", "graph_version"},
        None,
        "results rows without execution provenance cannot be replayed; "
        "pass None explicitly where a field is genuinely unknown",
    ),
    "make_stamp": (
        {"model", "stream", "horizon", "seed", "sampler", "graph_version"},
        None,
        "a spill stamp missing stream provenance cannot be verified on "
        "reattach; graph_version=None states pristine lineage explicitly",
    ),
}


@register
class ProvenanceChecker(Checker):
    id = "provenance-stamp"
    description = (
        "PoolKey / RunRecord / make_stamp / sampler state_dict must carry "
        "explicit stream provenance (stream_id, seed, kernel, ...)"
    )

    def check(self, module: ModuleSource) -> list:
        aliases = import_aliases(module.tree)
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node, aliases))
        if "repro/sampling/" in module.path:
            findings.extend(self._check_state_dicts(module))
        return findings

    def _check_call(self, module: ModuleSource, node: ast.Call, aliases) -> list:
        name = resolve_call_name(node, aliases)
        if name is None:
            return []
        suffix = name.rsplit(".", 1)[-1]
        spec = _REQUIRED.get(suffix)
        if spec is None:
            return []
        required, positional_ok, why = spec
        if any(kw.arg is None for kw in node.keywords):
            return []  # **kwargs: keys invisible, give the caller the benefit
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return []
        if positional_ok is not None and len(node.args) >= positional_ok:
            return []  # enough positionals to reach the provenance fields
        passed = {kw.arg for kw in node.keywords}
        missing = sorted(required - passed)
        if not missing:
            return []
        fields = ", ".join(missing)
        return [
            self.finding(
                module,
                node,
                f"{suffix}() call drops provenance field(s) {fields}: {why}",
            )
        ]

    def _check_state_dicts(self, module: ModuleSource) -> list:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) or node.name != "state_dict":
                continue
            for ret in ast.walk(node):
                if not isinstance(ret, ast.Return) or not isinstance(
                    ret.value, ast.Dict
                ):
                    continue
                if any(k is None for k in ret.value.keys):
                    continue  # dict literal with ** expansion: keys invisible
                keys = {
                    k.value
                    for k in ret.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
                for field, what in (
                    ("stream_id", "stream derivation"),
                    ("graph_version", "graph lineage"),
                ):
                    if field not in keys:
                        findings.append(
                            self.finding(
                                module,
                                ret,
                                f"state_dict() payload has no {field!r} key; "
                                f"a resumed stream must carry its {what} "
                                "(see RRSampler.state_dict)",
                            )
                        )
        return findings
