"""Tests for the two-step RIS framework skeleton."""

import numpy as np
import pytest

from repro.core.framework import ris_two_step, static_ris
from repro.exceptions import ParameterError
from repro.sampling.base import make_sampler
from repro.sampling.kernels import reference_block
from repro.sampling.rr_collection import RRCollection


def _assert_stream_prefix(collection, sampler, count):
    want = reference_block(sampler, np.arange(count))
    assert collection.block.flat.tobytes() == want.flat.tobytes()
    assert collection.block.offsets.tobytes() == want.offsets.tobytes()


class TestRisTwoStep:
    def test_generates_exactly_theta(self, medium_wc_graph):
        sampler = make_sampler(medium_wc_graph, "LT", seed=1)
        cover, coll = ris_two_step(sampler, 5, 500)
        assert len(coll) == 500
        assert cover.num_sets == 500
        assert len(cover.seeds) == 5

    def test_tops_up_existing_collection(self, medium_wc_graph):
        sampler = make_sampler(medium_wc_graph, "LT", seed=2)
        coll = RRCollection(medium_wc_graph.n)
        coll.extend(sampler.sample_batch(100))
        _, coll2 = ris_two_step(sampler, 3, 250, collection=coll)
        assert coll2 is coll
        assert len(coll) == 250
        _assert_stream_prefix(coll, sampler, 250)

    def test_tops_up_by_position_not_by_cursor(self, medium_wc_graph):
        """A collection filled by another sampler on the same stream is
        continued with sets [100, 250), not sets [0, 150) again."""
        coll = RRCollection(medium_wc_graph.n)
        coll.extend(make_sampler(medium_wc_graph, "LT", seed=2).sample_block(np.arange(100)))
        sampler = make_sampler(medium_wc_graph, "LT", seed=2)
        ris_two_step(sampler, 3, 250, collection=coll)
        _assert_stream_prefix(coll, sampler, 250)

    def test_no_regeneration_when_enough(self, medium_wc_graph):
        sampler = make_sampler(medium_wc_graph, "LT", seed=3)
        coll = RRCollection(medium_wc_graph.n)
        coll.extend(sampler.sample_batch(300))
        ris_two_step(sampler, 3, 200, collection=coll)
        assert len(coll) == 300  # nothing extra generated
        _assert_stream_prefix(coll, sampler, 300)

    def test_invalid_theta(self, medium_wc_graph):
        sampler = make_sampler(medium_wc_graph, "LT", seed=4)
        with pytest.raises(ParameterError):
            ris_two_step(sampler, 3, 0)


class TestStaticRis:
    def test_result_fields(self, medium_wc_graph):
        sampler = make_sampler(medium_wc_graph, "LT", seed=5)
        result = static_ris(sampler, 4, 400)
        assert result.algorithm == "static-RIS"
        assert result.samples == 400
        assert result.stopped_by == "theta"
        assert len(result.seeds) == 4
        assert result.influence > 0

    def test_more_samples_stabler_estimates(self, medium_wc_graph):
        small = static_ris(make_sampler(medium_wc_graph, "LT", seed=6), 4, 50)
        large = static_ris(make_sampler(medium_wc_graph, "LT", seed=6), 4, 5000)
        # Estimates should be in the same ballpark; the large run is the
        # reference.  (Loose sanity bound, not a statistical assertion.)
        assert small.influence == pytest.approx(large.influence, rel=0.6)
