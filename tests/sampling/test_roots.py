"""Tests for root distributions (RIS vs WRIS)."""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.sampling.roots import UniformRoots, WeightedRoots


class TestUniformRoots:
    def test_range(self):
        roots = UniformRoots(10)
        rng = np.random.default_rng(1)
        draws = roots.pick(rng.random(1000))
        assert draws.min() >= 0
        assert draws.max() < 10

    def test_approximately_uniform(self):
        roots = UniformRoots(5)
        rng = np.random.default_rng(2)
        counts = np.bincount(roots.pick(rng.random(20_000)), minlength=5)
        assert counts.min() > 0.8 * 4000
        assert counts.max() < 1.2 * 4000

    def test_total_benefit_is_n(self):
        assert UniformRoots(7).total_benefit == 7.0

    def test_empty_rejected(self):
        with pytest.raises(SamplingError):
            UniformRoots(0)

    def test_single_sample(self):
        # floor(u * n), with the top of [0, 1) still inside the range.
        roots = UniformRoots(3)
        assert roots.pick(np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])).tolist() == [0, 1, 2]


class TestWeightedRoots:
    def test_proportional_sampling(self):
        benefits = np.array([1.0, 0.0, 3.0])
        roots = WeightedRoots(benefits)
        rng = np.random.default_rng(4)
        draws = roots.pick(rng.random(40_000))
        counts = np.bincount(draws, minlength=3)
        assert counts[1] == 0
        assert counts[2] / counts[0] == pytest.approx(3.0, rel=0.1)

    def test_zero_benefit_never_root(self):
        benefits = np.array([0.0, 1.0, 0.0, 1.0])
        roots = WeightedRoots(benefits)
        rng = np.random.default_rng(5)
        draws = roots.pick(rng.random(5000))
        assert set(np.unique(draws)) <= {1, 3}

    def test_total_benefit(self):
        assert WeightedRoots(np.array([1.0, 2.5])).total_benefit == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(SamplingError):
            WeightedRoots(np.array([1.0, -0.1]))

    def test_rejects_all_zero(self):
        with pytest.raises(SamplingError):
            WeightedRoots(np.zeros(4))

    def test_rejects_nan(self):
        with pytest.raises(SamplingError):
            WeightedRoots(np.array([1.0, float("nan")]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(SamplingError):
            WeightedRoots(np.zeros((2, 2)))
        with pytest.raises(SamplingError):
            WeightedRoots(np.array([]))

    def test_from_graph_targets_size_check(self, tiny_graph):
        with pytest.raises(SamplingError):
            WeightedRoots.from_graph_targets(tiny_graph, np.ones(7))
        roots = WeightedRoots.from_graph_targets(tiny_graph, np.ones(4))
        assert roots.n == 4

    def test_single_sample_in_support(self):
        roots = WeightedRoots(np.array([0.0, 5.0]))
        assert roots.pick(np.array([0.0, np.nextafter(1.0, 0.0)])).tolist() == [1, 1]
