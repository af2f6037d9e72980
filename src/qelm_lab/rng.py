"""Deterministic random streams built on SplitMix64.

Sampled results must be bit-reproducible across platforms and library
versions, so nothing here delegates to ``random`` or to NumPy generator
internals. Every stream is the classic SplitMix64 sequence:

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15)  mod 2^64
    output_k    = mix(state_{k+1})

    mix(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   (mod 2^64)
            z ^= z >> 27;  z *= 0x94D049BB133111EB   (mod 2^64)
            z ^= z >> 31

Uniform doubles take the top 53 bits of an output word, so they lie in
[0, 1). Normal deviates come from the Box-Muller transform. Child seeds are
derived by folding integer or string labels into the parent seed with the
same mix function, which keeps independent streams from colliding without
any global state.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _mix_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive a child seed from ``seed`` and a list of labels.

    Strings are folded as little-endian 8-byte chunks of their UTF-8 bytes.
    The derivation is pure, so the same (seed, labels) pair always yields
    the same child seed.
    """
    h = _mix((seed & _MASK) ^ 0x5851F42D4C957F2D)
    for label in labels:
        if isinstance(label, str):
            data = label.encode("utf-8")
            tokens = [
                int.from_bytes(data[i : i + 8], "little") ^ (len(data) << 1 | 1)
                for i in range(0, max(len(data), 1), 8)
            ]
        else:
            tokens = [int(label) & _MASK]
        for token in tokens:
            h = _mix(h ^ _mix(token))
    return h


def _words(states: np.ndarray, n: int) -> np.ndarray:
    """The next n output words of the streams at ``states``, one row each."""
    with np.errstate(over="ignore"):
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix_array(states[:, None] + steps)


def _span(low: int, high: int) -> int:
    if high <= low:
        raise ValueError("empty integer range")
    return high - low


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of output words."""
    return ((words >> np.uint64(11)).astype(np.float64)) * _INV_2_53


def _scaled(words: np.ndarray, low: int, span: int) -> np.ndarray:
    """Integers uniform on [low, low + span) from output words."""
    return low + np.floor(_unit(words) * span).astype(np.int64)


def integers_per_seed(seeds, n: int, low: int, high: int) -> np.ndarray:
    """Rng(seeds[k]).integers(n, low, high) as row k, every stream drawn in
    one step: shape (len(seeds), n)."""
    span = _span(low, high)
    states = np.array([seed & _MASK for seed in seeds], dtype=np.uint64).reshape(-1)
    return _scaled(_words(states, n), low, span)


class Rng:
    """A seedable SplitMix64 stream with vectorised draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def _next_words(self, n: int) -> np.ndarray:
        words = _words(np.array([self._state], dtype=np.uint64), n)[0]
        self._state = (self._state + n * _GAMMA) & _MASK
        return words

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); identical to n calls of uniform()."""
        return _unit(self._next_words(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal deviates via Box-Muller on uniform pairs."""
        half = (n + 1) // 2
        # u1 is shifted into (0, 1] so the log never sees zero.
        u1 = ((self._next_words(half) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = self.uniforms(half)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n integers uniform on [low, high). Range must fit comfortably in 53 bits."""
        span = _span(low, high)
        return _scaled(self._next_words(n), low, span)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n)."""
        out = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = int(self.uniform() * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out

    def multinomial(self, probs: np.ndarray, shots: int) -> np.ndarray:
        """Counts of ``shots`` draws from the categorical ``probs``.

        Uses inverse-CDF sampling on the cumulative vector, so the result
        depends only on the stream state and the probabilities.
        """
        p = np.asarray(probs, dtype=np.float64)
        cum = np.cumsum(p / p.sum())
        cum[-1] = 1.0
        idx = np.searchsorted(cum, self.uniforms(shots), side="right")
        return np.bincount(idx, minlength=len(p))
