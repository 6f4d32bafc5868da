"""Tests for Estimate-Inf (Algorithm 3, stopping-rule estimator)."""

import numpy as np
import pytest

from repro.core.estimate_inf import (
    InfluenceEstimate,
    estimate_influence,
    required_successes,
)
from repro.engine.context import SamplingContext
from repro.exceptions import ParameterError
from repro.sampling.base import make_sampler
from repro.sampling.kernels import reference_block
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


def _set_by_set(graph, seed, lambda_2, max_samples, start=0):
    """Reference stop of Estimate-Inf for the hub of ``graph``: one
    ``sample_at`` per set from ``start`` on.  Returns ``(t, successes)``."""
    ref = make_sampler(graph, "IC", seed=seed)
    successes = t = 0
    while t < max_samples and successes < lambda_2:
        successes += int(bool((ref.sample_at(start + t) == 0).any()))
        t += 1
    return t, successes


class TestEstimation:
    def test_estimates_known_influence(self, star_half):
        # I({hub}) = 1 + 9 * 0.5 = 5.5 on the 10-node star with p = 0.5.
        with SamplingContext(star_half, "IC", seed=1) as ctx:
            result = estimate_influence(ctx, [0], 0.1, 0.05, max_samples=200_000)
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
            with SamplingContext(star_half, "IC", seed=rng.spawn(1)[0]) as ctx:
                result = estimate_influence(ctx, [0], eps, delta, max_samples=500_000)
            assert not result.capped
            if result.influence > (1 + eps) * truth:
                overshoots += 1
        assert overshoots <= 6  # ~3x the nominal delta as slack

    def test_cap_returns_none(self, star_half):
        with SamplingContext(star_half, "IC", seed=3) as ctx:
            result = estimate_influence(ctx, [0], 0.1, 0.05, max_samples=5)
            assert len(ctx.pool) == 5  # a capped call reads no further
        assert result.capped
        assert result.influence is None
        assert result.samples_used == 5

    def test_full_coverage_seed_set(self, star_wc):
        # Seeding every node: every RR set is covered; influence ~ n.
        with SamplingContext(star_wc, "LT", seed=4) as ctx:
            result = estimate_influence(ctx, list(range(10)), 0.2, 0.05, max_samples=100_000)
        assert not result.capped
        assert result.influence == pytest.approx(10.0, rel=0.25)

    def test_samples_used_are_pooled(self, star_half):
        with SamplingContext(star_half, "IC", seed=5) as ctx:
            result = estimate_influence(ctx, [0], 0.2, 0.1, max_samples=100_000)
            assert ctx.sampled == len(ctx.pool) >= result.samples_used

    @pytest.mark.parametrize(
        "seed,max_samples", [(7, 5), (7, 200), (1, 100_000), (6, 100_000), (8, 100_000)]
    )
    def test_stops_where_a_set_by_set_loop_stops(self, star_half, seed, max_samples):
        # Reading in blocks stops at the set a set-by-set loop over the
        # same stream stops at.  The uncapped seeds stop inside a block
        # (seed 8 after a run of small tail blocks); the pool holds the
        # stream's prefix either way.
        lambda_2 = required_successes(0.2, 0.1)
        t, successes = _set_by_set(star_half, seed, lambda_2, max_samples)
        with SamplingContext(star_half, "IC", seed=seed) as ctx:
            result = estimate_influence(ctx, [0], 0.2, 0.1, max_samples=max_samples)
            pooled = ctx.pool.block
        assert (result.samples_used, result.successes) == (t, successes)
        assert result.capped == (successes < lambda_2)
        want = reference_block(make_sampler(star_half, "IC", seed=seed), np.arange(len(pooled)))
        assert pooled.flat.tobytes() == want.flat.tobytes()
        assert pooled.offsets.tobytes() == want.offsets.tobytes()

    @pytest.mark.parametrize("seed", [1, 6, 8])
    def test_a_second_call_continues_where_the_first_stopped(self, star_half, seed):
        """SSA's verification: a check at ``start=first.samples_used``
        stops where one set-by-set loop continuing the first one does."""
        lambda_2 = required_successes(0.2, 0.1)
        t1, _ = _set_by_set(star_half, seed, lambda_2, 100_000)
        t2, successes = _set_by_set(star_half, seed, lambda_2, 100_000, start=t1)
        with SamplingContext(star_half, "IC", seed=seed) as ctx:
            first = estimate_influence(ctx, [0], 0.2, 0.1, max_samples=100_000)
            second = estimate_influence(
                ctx, [0], 0.2, 0.1, max_samples=100_000, start=first.samples_used
            )
        assert first.samples_used == t1
        assert (second.samples_used, second.successes) == (t2, successes)

    @pytest.mark.parametrize("seed", [1, 6, 8])
    def test_sets_read_past_the_stop_stay_pooled(self, star_half, seed):
        """The sets a call read past its stopping point are the pool's,
        so a repeat call, or one that stops inside them, samples nothing."""
        with SamplingContext(star_half, "IC", seed=seed) as ctx:
            first = estimate_influence(ctx, [0], 0.2, 0.1, max_samples=100_000)
            pooled, sampled = len(ctx.pool), ctx.sampled
            assert pooled > first.samples_used  # it stopped inside a block
            again = estimate_influence(ctx, [0], 0.2, 0.1, max_samples=100_000)
            ahead = estimate_influence(
                ctx, [0], 0.2, 0.1, max_samples=pooled - first.samples_used,
                start=first.samples_used,
            )
            assert (len(ctx.pool), ctx.sampled) == (pooled, sampled)
        assert again == first
        assert ahead.samples_used <= pooled - first.samples_used


class TestValidation:
    @pytest.fixture
    def ctx(self, star_half):
        with SamplingContext(star_half, "IC", seed=6) as ctx:
            yield ctx

    def test_bad_epsilon(self, ctx):
        with pytest.raises(ParameterError):
            estimate_influence(ctx, [0], 0.0, 0.1, max_samples=10)

    def test_bad_delta(self, ctx):
        with pytest.raises(ParameterError):
            estimate_influence(ctx, [0], 0.1, 1.5, max_samples=10)

    def test_empty_seed_set(self, ctx):
        with pytest.raises(ParameterError):
            estimate_influence(ctx, [], 0.1, 0.1, max_samples=10)

    def test_out_of_range_seed(self, ctx):
        with pytest.raises(ParameterError):
            estimate_influence(ctx, [99], 0.1, 0.1, max_samples=10)

    def test_zero_max_samples(self, ctx):
        with pytest.raises(ParameterError):
            estimate_influence(ctx, [0], 0.1, 0.1, max_samples=0)
