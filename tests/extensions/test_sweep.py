"""Tests for amortized influence sweeps."""

import numpy as np
import pytest

from repro.core.dssa import dssa
from repro.engine import InfluenceEngine
from repro.exceptions import ParameterError
from repro.extensions.sweep import influence_sweep


class TestSweep:
    def test_monotone_curve(self, medium_wc_graph):
        sweep = influence_sweep(
            medium_wc_graph, [1, 3, 5, 10], epsilon=0.2, model="LT", seed=1
        )
        values = [sweep.influence_at[k] for k in (1, 3, 5, 10)]
        assert values == sorted(values)
        assert sweep.k_max == 10
        assert len(sweep.seeds) == 10

    def test_marginal_gains_diminish(self, medium_wc_graph):
        sweep = influence_sweep(
            medium_wc_graph, list(range(1, 11)), epsilon=0.2, model="LT", seed=2
        )
        gains = sweep.marginal_gains()
        # Submodularity on the same pool: first gain dominates later ones.
        assert gains[0] >= gains[-1]

    def test_prefix_matches_dedicated_runs(self, medium_wc_graph):
        """Prefix estimates agree with per-k D-SSA runs within noise."""
        sweep = influence_sweep(
            medium_wc_graph, [3, 8], epsilon=0.2, model="LT", seed=3
        )
        for k in (3, 8):
            dedicated = dssa(medium_wc_graph, k, epsilon=0.2, model="LT", seed=3)
            assert sweep.influence_at[k] == pytest.approx(dedicated.influence, rel=0.2)

    def test_duplicates_and_order_normalized(self, medium_wc_graph):
        sweep = influence_sweep(
            medium_wc_graph, [5, 2, 5], epsilon=0.2, model="LT", seed=4
        )
        assert sorted(sweep.influence_at) == [2, 5]

    def test_engine_sweep_scores_on_the_session_model(self, medium_wc_graph):
        """An LT session's sweep equals the one-shot LT sweep at the
        session seed."""
        with InfluenceEngine(medium_wc_graph, model="LT", seed=7) as engine:
            warm = influence_sweep(medium_wc_graph, [2, 5], epsilon=0.3, engine=engine)
        cold = influence_sweep(medium_wc_graph, [2, 5], epsilon=0.3, model="LT", seed=7)
        assert warm == cold

    def test_engine_sweep_scores_on_the_session_graph(self, medium_wc_graph):
        """After a mutate the argument graph is stale; the curve is
        scored on the session's current graph."""
        sources = np.repeat(np.arange(medium_wc_graph.n), np.diff(medium_wc_graph.out_indptr))
        edges = list(zip(sources[:40].tolist(), medium_wc_graph.out_indices[:40].tolist()))
        with InfluenceEngine(medium_wc_graph, model="LT", seed=7) as engine:
            engine.mutate(reweight=[(u, v, 0.05) for u, v in edges])
            warm = influence_sweep(medium_wc_graph, [2, 5], epsilon=0.3, engine=engine)
            mutated = engine.graph
        cold = influence_sweep(mutated, [2, 5], epsilon=0.3, model="LT", seed=7)
        stale = influence_sweep(medium_wc_graph, [2, 5], epsilon=0.3, model="LT", seed=7)
        assert warm == cold != stale

    def test_validation(self, medium_wc_graph):
        with pytest.raises(ParameterError):
            influence_sweep(medium_wc_graph, [], epsilon=0.2)
        with pytest.raises(ParameterError):
            influence_sweep(medium_wc_graph, [0, 3], epsilon=0.2)
        with pytest.raises(ParameterError):
            influence_sweep(medium_wc_graph, [medium_wc_graph.n + 1], epsilon=0.2)
