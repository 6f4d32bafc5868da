"""The counter-based generator itself: F, its coins, its roots, its keys.

Every RR-set draw is ``F(key_g, counter)`` (see
:mod:`repro.sampling.seedstream`).  These tests pin ``F`` to SplitMix64's
published output, then check the statistics the RR stream relies on:
coin frequencies at the weights workloads use, independence of coins
for neighbouring set indices and neighbouring edge keys, and root
draws that follow their distributions.  Bounds are two-sided 99.9%.
"""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.graph.builder import from_edges
from repro.sampling.base import make_sampler
from repro.sampling.roots import UniformRoots, WeightedRoots
from repro.sampling.seedstream import (
    SeedStream,
    coin_thresholds,
    counter_salts,
    draw,
    mix64,
    top53,
)

#: two-sided 99.9% normal quantile.
Z_999 = 3.2905
#: chi-square 99.9% critical values by degrees of freedom.
CHI2_999 = {1: 10.828, 4: 18.467, 9: 27.877}


def coins(stream, sets, counters, weight) -> np.ndarray:
    """``(len(sets), len(counters))`` live flags of coin ``counters`` in
    sets ``sets`` at edge weight ``weight``."""
    keys = stream.keys(sets)[:, None]
    h = keys + counter_salts(counters)[None, :]
    return top53(mix64(h)) < coin_thresholds([weight])[0]


def chi2_2x2(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson chi-square of independence for two boolean samples."""
    table = np.array(
        [[np.sum(~a & ~b), np.sum(~a & b)], [np.sum(a & ~b), np.sum(a & b)]],
        dtype=np.float64,
    )
    expected = table.sum(1, keepdims=True) * table.sum(0, keepdims=True) / table.sum()
    return float(((table - expected) ** 2 / expected).sum())


class TestGenerator:
    def test_draw_is_splitmix64(self):
        """F(key, c) is output c of SplitMix64 seeded at key — pinned to
        the generator's published test vector for seed 1234567."""
        assert [draw(1234567, c) for c in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_vectorized_mix_equals_scalar_draw(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**63, 50, dtype=np.int64).astype(np.uint64) * np.uint64(2)
        counters = rng.integers(0, 2**40, 50, dtype=np.int64)
        got = mix64(keys + counter_salts(counters))
        want = [draw(int(k), int(c)) for k, c in zip(keys, counters)]
        assert got.tolist() == want

    def test_set_keys_are_draws_of_the_stream_key(self):
        stream = SeedStream(2016)
        keys = stream.keys([0, 1, 7, 2**40])
        assert keys.tolist() == [draw(int(stream.key), g) for g in (0, 1, 7, 2**40)]

    @pytest.mark.parametrize("weight", [0.0, 0.025, 0.3, 1.0])
    def test_coin_frequency_within_binomial_bounds(self, weight):
        live = coins(SeedStream(11), np.arange(2000), np.arange(0, 200 * 977, 977), weight)
        n, hits = live.size, int(live.sum())
        if weight in (0.0, 1.0):
            assert hits == n * weight  # exact: never / always live
            return
        mean = n * weight
        spread = Z_999 * np.sqrt(n * weight * (1 - weight))
        assert mean - spread <= hits <= mean + spread, (hits, mean, spread)

    def test_adjacent_set_indices_are_independent(self):
        live = coins(SeedStream(12), np.arange(40_000), np.asarray([5 * 1000 + 17]), 0.3)[:, 0]
        assert chi2_2x2(live[0::2], live[1::2]) < CHI2_999[1]

    def test_adjacent_edge_keys_are_independent(self):
        # Edge keys u * n + v: neighbouring v, then neighbouring u.
        stream = SeedStream(13)
        n = 1000
        for step in (1, n):
            base = 3 * n + 40
            live = coins(stream, np.arange(40_000), np.asarray([base, base + step]), 0.3)
            assert chi2_2x2(live[:, 0], live[:, 1]) < CHI2_999[1], step

    def test_uniform_roots_match_their_distribution(self):
        graph = from_edges([(i, (i + 1) % 10) for i in range(10)])
        sampler = make_sampler(graph, "IC", 14, roots=UniformRoots(10), max_hops=0)
        roots = np.asarray([rr[0] for rr in sampler.sample_batch(30_000)])
        observed = np.bincount(roots, minlength=10)
        expected = np.full(10, roots.size / 10)
        assert ((observed - expected) ** 2 / expected).sum() < CHI2_999[9]

    def test_weighted_roots_match_their_distribution(self):
        benefits = np.asarray([1.0, 2.0, 0.0, 3.0, 4.0, 5.0])
        graph = from_edges([(i, (i + 1) % 6) for i in range(6)])
        sampler = make_sampler(graph, "LT", 15, roots=WeightedRoots(benefits), max_hops=0)
        roots = np.asarray([rr[0] for rr in sampler.sample_batch(30_000)])
        observed = np.bincount(roots, minlength=6)
        assert observed[2] == 0  # zero benefit: never a root
        keep = benefits > 0
        expected = roots.size * benefits[keep] / benefits.sum()
        assert ((observed[keep] - expected) ** 2 / expected).sum() < CHI2_999[4]


class TestIdentityResolution:
    def test_generator_contributes_its_seed_sequence(self):
        gen = np.random.default_rng(99)
        gen.random(1000)  # advancing the generator must not matter
        stream = SeedStream(gen)
        assert stream.entropy == 99 and stream.spawn_key == ()
        assert np.array_equal(stream.keys([4]), SeedStream(99).keys([4]))

    def test_spawned_generator_keeps_its_key(self):
        child = np.random.default_rng(7).spawn(2)[1]
        stream = SeedStream(child)
        assert stream.entropy == 7 and stream.spawn_key == (1,)

    def test_seed_sequence_and_stream_inputs(self):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(2,))
        stream = SeedStream(ss)
        assert SeedStream(stream).spawn_key == (2,)
        assert stream.seed_sequence.entropy == 5
        assert SeedStream(stream).key == stream.key

    def test_none_resolves_to_fresh_entropy(self):
        a, b = SeedStream(None), SeedStream(None)
        assert a.entropy != b.entropy  # vanishing collision probability

    def test_index_bounds(self):
        with pytest.raises(SamplingError):
            SeedStream(1).keys([3, -1])

    def test_sibling_streams_do_not_collide(self):
        """Distinct spawn-key prefixes (e.g. SSA's main vs verification
        derivation) give distinct stream keys."""
        main = SeedStream(np.random.default_rng(7).spawn(2)[0])
        verify = SeedStream(np.random.default_rng(7).spawn(2)[1])
        assert main.spawn_key != verify.spawn_key
        assert main.key != verify.key
        assert not np.array_equal(main.keys(range(4)), verify.keys(range(4)))
