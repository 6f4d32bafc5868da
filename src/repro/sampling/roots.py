"""Root (source) distributions for RR-set generation.

Plain RIS draws the RR-set source uniformly from V (Definition 2).  The
TVM extension (Section 7.3) uses **WRIS**: the source is drawn
proportionally to per-node benefit weights, which makes the coverage
estimator unbiased for the *weighted* influence objective.

RR samplers draw roots through :meth:`pick`, which maps each set's
counter-based root uniform to a node; any root distribution a sampler
is given must provide it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.digraph import CSRGraph


class UniformRoots:
    """Uniform source distribution over all n nodes (plain RIS)."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise SamplingError(f"cannot sample roots from an empty graph (n={n})")
        self.n = int(n)

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in ``[0, 1)`` to roots: ``floor(u * n)``."""
        return np.minimum((u * self.n).astype(np.int64), self.n - 1)

    @property
    def total_benefit(self) -> float:
        """Normalizing constant Γ; for uniform roots this is n."""
        return float(self.n)


class WeightedRoots:
    """WRIS source distribution: P[root = v] ∝ benefit(v).

    ``benefits`` is a non-negative vector over nodes; zero-benefit nodes
    are never chosen as roots (they can still *appear inside* RR sets,
    since they may influence targeted nodes).
    """

    def __init__(self, benefits: np.ndarray) -> None:
        benefits = np.asarray(benefits, dtype=np.float64)
        if benefits.ndim != 1 or benefits.size == 0:
            raise SamplingError("benefits must be a non-empty 1-D vector")
        if np.any(benefits < 0) or not np.all(np.isfinite(benefits)):
            raise SamplingError("benefits must be finite and non-negative")
        total = float(benefits.sum())
        if total <= 0:
            raise SamplingError("benefits must have positive total mass")
        self.benefits = benefits
        self.n = int(benefits.size)
        self._cumulative = np.cumsum(benefits)
        self._total = total

    @classmethod
    def from_graph_targets(cls, graph: CSRGraph, benefits: np.ndarray) -> "WeightedRoots":
        """Validate the benefit vector against a graph's node count."""
        benefits = np.asarray(benefits, dtype=np.float64)
        if benefits.size != graph.n:
            raise SamplingError(
                f"benefit vector has {benefits.size} entries but graph has {graph.n} nodes"
            )
        return cls(benefits)

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in ``[0, 1)`` to roots by inverting the benefit CDF."""
        r = np.asarray(u) * self._total
        return np.searchsorted(self._cumulative, r, side="right").astype(np.int64)

    @property
    def total_benefit(self) -> float:
        """Normalizing constant Γ = Σ_v benefit(v).

        The weighted coverage estimator scales by Γ instead of n.
        """
        return self._total
