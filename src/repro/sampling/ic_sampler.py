"""RR-set generation under the Independent Cascade model.

An IC RR set anchored at root v is the set of nodes with a *live* reverse
path to v, where each edge (u, w) is live independently with probability
w(u, w).  Equivalently: run a reverse BFS from v, flipping one coin per
incoming edge the first time its target is expanded (deferred-decision
principle — coins for edges never reached need not be flipped).  Each
coin is a counter-based draw keyed on the set and the edge, so the BFS
may visit edges in any order (:mod:`repro.sampling.kernels`).
"""

from __future__ import annotations

from repro.diffusion.models import DiffusionModel
from repro.sampling.base import RRSampler
from repro.sampling.kernels import ic_sample_block


class ICSampler(RRSampler):
    """Reverse-BFS sampler producing IC RR sets."""

    model = DiffusionModel.IC

    def _sample_keys(self, keys, roots):
        return ic_sample_block(self, keys, roots)
