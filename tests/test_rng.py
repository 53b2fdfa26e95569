"""Tests for the portable counter-based generator."""

import numpy as np
import pytest

from ctfuse.rng import SeededRng

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_word(seed: int, index: int) -> int:
    """Independent scalar mix: word i finalizes seed + (i+1)*golden."""
    z = (seed + (index + 1) * GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class TestWordStream:
    def test_first_word_seed_zero(self):
        """Seed 0's first word is the published avalanche of the golden ratio."""
        assert reference_word(0, 0) == 0xE220A8397B1DCDAF

    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1):
            rng = SeededRng(seed)
            got = rng._words(5)
            want = [reference_word(seed, i) for i in range(5)]
            assert [int(v) for v in got] == want

    def test_stream_continues_across_calls(self):
        a = SeededRng(9)
        b = SeededRng(9)
        chunked = list(a._words(3)) + list(a._words(4))
        assert chunked == list(b._words(7))


class TestUniform:
    def test_range(self):
        rng = SeededRng(5)
        u = rng.uniform(-2.0, 3.0, (1000,))
        assert np.all(u >= -2.0) and np.all(u < 3.0)

    def test_scalar_shape(self):
        v = SeededRng(5).uniform(0.0, 1.0)
        assert isinstance(v, float)

    def test_deterministic(self):
        a = SeededRng(123).uniform(0, 1, (64,))
        b = SeededRng(123).uniform(0, 1, (64,))
        assert np.array_equal(a, b)

    def test_roughly_uniform(self):
        u = SeededRng(7).uniform(0, 1, (20000,))
        assert abs(u.mean() - 0.5) < 0.02
        assert abs(np.mean(u < 0.25) - 0.25) < 0.02


class TestNormal:
    def test_moments(self):
        z = SeededRng(11).normal((20000,))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_finite(self):
        z = SeededRng(0).normal((4096,))
        assert np.all(np.isfinite(z))


class TestFork:
    def test_fork_independent_of_consumption(self):
        """A fork's stream depends on the construction seed, not on how much
        of the parent was consumed before forking."""
        a = SeededRng(77)
        a.uniform(0, 1, (100,))
        b = SeededRng(77)
        assert np.array_equal(a.fork(3).uniform(0, 1, (8,)),
                              b.fork(3).uniform(0, 1, (8,)))

    def test_distinct_tags_distinct_streams(self):
        root = SeededRng(1)
        x = root.fork(0).uniform(0, 1, (16,))
        y = root.fork(1).uniform(0, 1, (16,))
        assert not np.array_equal(x, y)

    def test_nested_forks(self):
        r = SeededRng(2)
        assert np.array_equal(r.fork(1, 2).uniform(0, 1, (4,)),
                              SeededRng(2).fork(1).fork(2).uniform(0, 1, (4,)))


class TestPermutation:
    def test_is_permutation(self):
        for seed in range(5):
            p = SeededRng(seed).permutation(50)
            assert sorted(p.tolist()) == list(range(50))

    def test_deterministic(self):
        assert np.array_equal(SeededRng(4).permutation(30), SeededRng(4).permutation(30))

class TestValidation:
    def test_bad_seed_masked(self):
        assert SeededRng(1 << 70).seed == 0

    def test_empty_uniform(self):
        u = SeededRng(0).uniform(0, 1, (0,))
        assert u.shape == (0,)

    def test_permutation_zero(self):
        assert SeededRng(0).permutation(0).shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(0).permutation(-1)
