"""RR-set generation under the Linear Threshold model.

Under LT, the random sample graph keeps *at most one* incoming edge per
node: edge (u, v) is kept with probability w(u, v), and no edge with
probability 1 - Σ_u w(u, v).  The reverse reachable set from root v is
therefore a random walk: from the current node, either stop (with the
residual probability) or hop to one in-neighbour drawn proportionally to
edge weight; the walk also stops when it would revisit a node (the kept
subgraph is a function, so the walk enters a cycle and nothing new can be
reached).

With weighted-cascade weights (Σ = 1) the walk always hops until a revisit
— matching Fig. 1's example construction.  Hop ``t`` of set ``g`` is a
counter-based draw keyed on ``(g, t)``, so a block of walks advances in
lockstep (:mod:`repro.sampling.kernels`).
"""

from __future__ import annotations

from repro.diffusion.models import DiffusionModel
from repro.sampling.base import RRSampler
from repro.sampling.kernels import lt_sample_block


class LTSampler(RRSampler):
    """Reverse random-walk sampler producing LT RR sets."""

    model = DiffusionModel.LT

    def _sample_keys(self, keys, roots):
        return lt_sample_block(self, keys, roots)
