"""Portable deterministic random number generation.

The generator is SplitMix64: a 64-bit counter advanced by a fixed odd
constant, with an avalanche finalizer producing each output word.  It is
trivially seedable, cheap to fork into independent substreams, and emits
the same stream on every platform regardless of numpy version, which is
what the artifact's reproducibility (weight init, task generation,
training) rests on.
"""

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)


def _finalize(words: np.ndarray) -> np.ndarray:
    """SplitMix64 avalanche on an array of uint64 counter states."""
    z = words.copy()
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _finalize_int(word: int) -> int:
    z = word & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class SeededRng:
    """Deterministic stream of uniforms; identical for identical seeds.

    The i-th raw word (1-indexed) is finalize(seed + i * golden), so the
    stream is a pure function of (seed, position) and batched draws match
    one-at-a-time draws exactly.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, *tags: int) -> "SeededRng":
        """Derive an independent generator from the construction seed.

        Forking does not consume or depend on the parent's position, so
        substreams are stable no matter how much the parent has been used.
        """
        s = self._seed
        for t in tags:
            s = _finalize_int(s + (int(t) + 1) * _GOLDEN)
        return SeededRng(s)

    def _words(self, n: int) -> np.ndarray:
        start = self._count + 1
        idx = np.arange(start, start + n, dtype=np.uint64)
        idx *= np.uint64(_GOLDEN & 0xFFFFFFFFFFFFFFFF)
        idx += np.uint64(self._seed)
        self._count += n
        return _finalize(idx)

    def uniform(self, low: float, high: float, shape=None):
        """Uniform draw(s) on [low, high); float for shape=None."""
        n = 1 if shape is None else int(np.prod(shape))
        u = (self._words(n) >> np.uint64(11)).astype(np.float64) / _TWO53
        out = low + (high - low) * u
        if shape is None:
            return float(out[0])
        return out.reshape(shape)

    def normal(self, shape=None):
        """Standard normal draw(s) via Box-Muller; two words per value."""
        n = 1 if shape is None else int(np.prod(shape))
        u1 = (self._words(n) >> np.uint64(11)).astype(np.float64) / _TWO53
        u2 = (self._words(n) >> np.uint64(11)).astype(np.float64) / _TWO53
        z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        if shape is None:
            return float(z[0])
        return z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic uniform permutation of range(n)."""
        if n < 0:
            raise ValueError(f"permutation size must be >= 0, got {n}")
        return np.argsort(self._words(n), kind="stable")
