"""Tests for targeted groups."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.tvm.targets import TargetedGroup


class TestConstruction:
    def test_from_members_uniform(self):
        group = TargetedGroup.from_members("g", 10, [1, 3, 5])
        assert group.size == 3
        assert group.total_benefit == 3.0
        assert group.members().tolist() == [1, 3, 5]

    def test_from_members_weighted(self):
        group = TargetedGroup.from_members("g", 5, [0, 4], weights=[2.0, 0.5])
        assert group.total_benefit == pytest.approx(2.5)
        assert group.benefits[0] == 2.0

    def test_keywords_stored(self):
        group = TargetedGroup.from_members("g", 5, [0], keywords=("a", "b"))
        assert group.keywords == ("a", "b")

    def test_direct_vector(self):
        group = TargetedGroup("g", np.array([0.0, 1.0, 2.0]))
        assert group.size == 2


class TestValidation:
    def test_empty_members(self):
        with pytest.raises(ParameterError):
            TargetedGroup.from_members("g", 5, [])

    def test_out_of_range_member(self):
        with pytest.raises(ParameterError):
            TargetedGroup.from_members("g", 5, [7])

    def test_weight_shape_mismatch(self):
        with pytest.raises(ParameterError):
            TargetedGroup.from_members("g", 5, [0, 1], weights=[1.0])

    def test_negative_benefit(self):
        with pytest.raises(ParameterError):
            TargetedGroup("g", np.array([1.0, -1.0]))

    def test_zero_total(self):
        with pytest.raises(ParameterError):
            TargetedGroup("g", np.zeros(3))

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            TargetedGroup("g", np.ones((2, 2)))


class TestRootsIntegration:
    def test_roots_for_graph(self, tiny_graph):
        group = TargetedGroup.from_members("g", 4, [1, 2], weights=[1.0, 3.0])
        roots = group.roots_for(tiny_graph)
        assert roots.total_benefit == pytest.approx(4.0)
        rng = np.random.default_rng(1)
        draws = roots.pick(rng.random(8000))
        counts = np.bincount(draws, minlength=4)
        assert counts[0] == 0 and counts[3] == 0
        assert counts[2] / counts[1] == pytest.approx(3.0, rel=0.15)

    def test_size_mismatch_caught(self, tiny_graph):
        group = TargetedGroup.from_members("g", 7, [1])
        with pytest.raises(Exception):
            group.roots_for(tiny_graph)
