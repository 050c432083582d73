"""Tests for RNG stream derivation."""

import numpy as np
import pytest

from repro.util.rng import derive_rng, spawn_streams


class TestDeriveRng:
    def test_int_seed_reproducible(self):
        a = derive_rng(42).random(5)
        b = derive_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_path_separates_streams(self):
        a = derive_rng(42, 1).random(5)
        b = derive_rng(42, 2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert derive_rng(g) is g

    def test_generator_with_path_derives_child(self):
        g = np.random.default_rng(0)
        child = derive_rng(g, 3)
        assert child is not g

    def test_none_gives_entropy(self):
        a = derive_rng(None).random(5)
        b = derive_rng(None).random(5)
        assert not np.array_equal(a, b)


class TestSpawnStreams:
    def test_count_and_independence(self):
        streams = spawn_streams(7, 5)
        assert len(streams) == 5
        draws = [s.random(4).tolist() for s in streams]
        assert len({tuple(d) for d in draws}) == 5

    def test_reproducible(self):
        a = [s.random(3).tolist() for s in spawn_streams(9, 3)]
        b = [s.random(3).tolist() for s in spawn_streams(9, 3)]
        assert a == b

    def test_prefix_stability(self):
        # The first streams are the same regardless of the total count.
        a = spawn_streams(1, 2)[0].random(4)
        b = spawn_streams(1, 10)[0].random(4)
        assert np.array_equal(a, b)

    def test_zero(self):
        assert spawn_streams(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_streams(0, -1)

