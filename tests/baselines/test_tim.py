"""Tests for TIM and TIM+."""

import numpy as np
import pytest

from repro.baselines.tim import _kpt_estimation, tim, tim_plus
from repro.core.dssa import dssa
from repro.diffusion.spread import estimate_spread
from repro.engine.context import SamplingContext

from tests.oracles import brute_force_opt, reference_kpt_estimation, rr_width


class TestRRWidth:
    def test_counts_in_edges(self, tiny_graph):
        # width({2, 3}) = in-deg(2) + in-deg(3) = 2 + 1.
        assert rr_width(tiny_graph, np.asarray([2, 3])) == 3

    def test_empty(self, tiny_graph):
        assert rr_width(tiny_graph, np.asarray([], dtype=np.int32)) == 0


class TestKptEstimation:
    @pytest.mark.parametrize("model", ["IC", "LT"])
    @pytest.mark.parametrize("k", [1, 5, 40])
    @pytest.mark.parametrize("max_samples", [None, 300])
    def test_matches_the_per_set_loop(self, medium_wc_graph, model, k, max_samples):
        """Block-wise widths give the per-set loop's KPT bit for bit."""
        delta = 1.0 / medium_wc_graph.n
        block_ctx = SamplingContext(medium_wc_graph, model, seed=9)
        per_set_ctx = SamplingContext(medium_wc_graph, model, seed=9)
        try:
            got = _kpt_estimation(block_ctx, k, delta, max_samples=max_samples)
            want = reference_kpt_estimation(per_set_ctx, k, delta, max_samples=max_samples)
        finally:
            block_ctx.close()
            per_set_ctx.close()
        assert got == want


class TestTim:
    def test_returns_k_seeds(self, medium_wc_graph):
        result = tim(medium_wc_graph, 5, epsilon=0.25, model="LT", seed=1, max_samples=50_000)
        assert len(result.seeds) == 5
        assert result.algorithm == "TIM"
        assert result.extras["kpt"] >= 1.0

    def test_finds_hub_on_star(self, star_half):
        result = tim(star_half, 1, epsilon=0.25, model="IC", seed=2, max_samples=50_000)
        assert result.seeds == [0]

    def test_approximation_tiny(self, tiny_graph):
        _, opt_value = brute_force_opt(tiny_graph, 1, "LT")
        result = tim(tiny_graph, 1, epsilon=0.25, delta=0.05, model="LT", seed=3, max_samples=50_000)
        achieved = estimate_spread(
            tiny_graph, result.seeds, "LT", simulations=4000, seed=4
        ).mean
        assert achieved >= (1 - 1 / np.e - 0.25) * opt_value * 0.95


class TestTimPlus:
    def test_refinement_never_hurts_kpt(self, medium_wc_graph):
        result = tim_plus(medium_wc_graph, 5, epsilon=0.25, model="LT", seed=5, max_samples=50_000)
        assert result.algorithm == "TIM+"
        assert result.extras["kpt_refined"] >= result.extras["kpt"]

    def test_refined_theta_at_most_unrefined(self, medium_wc_graph):
        plus = tim_plus(medium_wc_graph, 5, epsilon=0.25, model="LT", seed=6, max_samples=200_000)
        plain = tim(medium_wc_graph, 5, epsilon=0.25, model="LT", seed=6, max_samples=200_000)
        assert plus.extras["theta"] <= plain.extras["theta"]

    def test_deterministic(self, medium_wc_graph):
        a = tim_plus(medium_wc_graph, 4, epsilon=0.25, model="LT", seed=7, max_samples=50_000)
        b = tim_plus(medium_wc_graph, 4, epsilon=0.25, model="LT", seed=7, max_samples=50_000)
        assert a.seeds == b.seeds


class TestOvershootStory:
    def test_tim_overshoots_dssa_badly(self, medium_wc_graph):
        """Shortcoming (1) of prior art: theta = lambda/KPT overshoots
        because KPT underestimates OPT_k with no guarantee how much."""
        t = tim(medium_wc_graph, 8, epsilon=0.2, model="LT", seed=8, max_samples=500_000)
        d = dssa(medium_wc_graph, 8, epsilon=0.2, model="LT", seed=8)
        assert t.samples > 2 * d.samples

    def test_tim_plus_between_tim_and_dssa(self, medium_wc_graph):
        t = tim(medium_wc_graph, 8, epsilon=0.2, model="LT", seed=9, max_samples=500_000)
        tp = tim_plus(medium_wc_graph, 8, epsilon=0.2, model="LT", seed=9, max_samples=500_000)
        assert tp.samples <= t.samples
