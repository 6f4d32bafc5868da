"""Tests for Estimate-Inf (Algorithm 3, stopping-rule estimator)."""

import numpy as np
import pytest

from repro.core.estimate_inf import (
    InfluenceEstimate,
    estimate_influence,
    required_successes,
)
from repro.exceptions import ParameterError
from repro.graph.generators import star_graph
from repro.graph.weights import assign_constant_weights, assign_weighted_cascade
from repro.sampling.base import make_sampler
from repro.utils.mathstats import upsilon

from tests.oracles import exact_ic_spread


class TestRequiredSuccesses:
    def test_formula(self):
        eps, delta = 0.1, 0.01
        assert required_successes(eps, delta) == pytest.approx(
            1 + (1 + eps) * upsilon(eps, delta)
        )

    def test_grows_as_eps_shrinks(self):
        assert required_successes(0.05, 0.1) > required_successes(0.2, 0.1)


class TestEstimation:
    def test_estimates_known_influence(self, star_half):
        # I({hub}) = 1 + 9 * 0.5 = 5.5 on the 10-node star with p = 0.5.
        sampler = make_sampler(star_half, "IC", seed=1)
        result = estimate_influence(sampler, [0], 0.1, 0.05, max_samples=200_000)
        assert not result.capped
        truth = exact_ic_spread(star_half, [0])
        assert result.influence == pytest.approx(truth, rel=0.12)

    def test_one_sided_guarantee(self, star_half):
        # Lemma 3: Pr[Ic > (1 + eps) I] <= delta.  With delta = 0.05 and 40
        # trials, overshoots beyond (1+eps)I should be rare.
        truth = exact_ic_spread(star_half, [0])
        eps, delta = 0.2, 0.05
        overshoots = 0
        rng = np.random.default_rng(2)
        for _ in range(40):
            sampler = make_sampler(star_half, "IC", rng.spawn(1)[0])
            result = estimate_influence(sampler, [0], eps, delta, max_samples=500_000)
            assert not result.capped
            if result.influence > (1 + eps) * truth:
                overshoots += 1
        assert overshoots <= 6  # ~3x the nominal delta as slack

    def test_cap_returns_none(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=3)
        result = estimate_influence(sampler, [0], 0.1, 0.05, max_samples=5)
        assert result.capped
        assert result.influence is None
        assert result.samples_used == 5

    def test_full_coverage_seed_set(self, star_wc):
        # Seeding every node: every RR set is covered; influence ~ n.
        sampler = make_sampler(star_wc, "LT", seed=4)
        result = estimate_influence(
            sampler, list(range(10)), 0.2, 0.05, max_samples=100_000
        )
        assert not result.capped
        assert result.influence == pytest.approx(10.0, rel=0.25)

    def test_samples_used_counted(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=5)
        result = estimate_influence(sampler, [0], 0.2, 0.1, max_samples=100_000)
        assert result.samples_used == sampler.sets_generated

    @pytest.mark.parametrize(
        "seed,max_samples", [(7, 5), (7, 200), (1, 100_000), (6, 100_000), (8, 100_000)]
    )
    def test_stops_where_a_set_by_set_loop_stops(self, star_half, seed, max_samples):
        # Sets drawn in blocks past the stopping point are given back: the
        # same stopping set, stream position and counters as one set per
        # call, so a second verification continues the same stream.  The
        # uncapped seeds stop inside a block (seed 8 after a run of
        # small tail blocks).
        lambda_2 = required_successes(0.2, 0.1)
        ref = make_sampler(star_half, "IC", seed=seed)
        successes = t = 0
        while t < max_samples and successes < lambda_2:
            t += 1
            successes += int(bool((ref.sample() == 0).any()))
        sampler = make_sampler(star_half, "IC", seed=seed)
        result = estimate_influence(sampler, [0], 0.2, 0.1, max_samples=max_samples)
        assert (result.samples_used, result.successes) == (t, successes)
        assert result.capped == (successes < lambda_2)
        assert sampler.sets_generated == ref.sets_generated
        assert sampler.entries_generated == ref.entries_generated
        np.testing.assert_array_equal(sampler.sample(), ref.sample())


class TestValidation:
    def test_bad_epsilon(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=6)
        with pytest.raises(ParameterError):
            estimate_influence(sampler, [0], 0.0, 0.1, max_samples=10)

    def test_bad_delta(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=6)
        with pytest.raises(ParameterError):
            estimate_influence(sampler, [0], 0.1, 1.5, max_samples=10)

    def test_empty_seed_set(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=6)
        with pytest.raises(ParameterError):
            estimate_influence(sampler, [], 0.1, 0.1, max_samples=10)

    def test_out_of_range_seed(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=6)
        with pytest.raises(ParameterError):
            estimate_influence(sampler, [99], 0.1, 0.1, max_samples=10)

    def test_zero_max_samples(self, star_half):
        sampler = make_sampler(star_half, "IC", seed=6)
        with pytest.raises(ParameterError):
            estimate_influence(sampler, [0], 0.1, 0.1, max_samples=0)
