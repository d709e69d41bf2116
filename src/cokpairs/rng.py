"""Deterministic 64-bit random streams.

The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-ratio constant, finalized by the standard two-round
mixer.  Streams are split by hashing, so per-trial substreams are
independent of scheduling order:

    stream(master, i1, i2, ...) seeds with
        mix(... mix(mix(master) ^ (i1 + 1) * PHI) ^ (i2 + 1) * PHI ...)

The k-th output of a stream with state s is mix(s + k * PHI), so a block
of k outputs is one vectorized expression over uint64 (`u64_array`), equal
bit for bit to k calls of `u64` and leaving the same state.  Uniform
residues (`below`, `below_array`) are exact integer rejection sampling: a
block takes every draw up to the first rejected one, and from that draw on
continues with the scalar `below`, so it returns the values of k scalar
calls.  Results are reproducible across platforms and Python and numpy
versions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class Stream:
    """A splitmix64 stream with exact integer sampling helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def u64(self) -> int:
        self._state = (self._state + _PHI) & _MASK
        return _mix(self._state)

    def u64_array(self, k: int) -> np.ndarray:
        """The next k outputs as a uint64 array (k calls of u64, at once)."""
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_PHI)  # uint64 arrays wrap mod 2^64
        z += np.uint64(self._state)
        self._state = (self._state + k * _PHI) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection."""
        # past 2^64 no draw is accepted: 2^64 - 2^64 % n is 0
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() needs 1 <= n <= 2^64, got {n}")
        if n == 1:
            return 0
        limit = (1 << 64) - (1 << 64) % n
        while True:
            r = self.u64()
            if r < limit:
                return r % n

    def below_array(self, n: int, k: int) -> np.ndarray:
        """The values of k calls of below(n), leaving the same state.

        int64 while n <= 2^63, else an object array of Python ints.
        """
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() needs 1 <= n <= 2^64, got {n}")
        if n == 1:
            return np.zeros(k, dtype=np.int64)
        start = self._state
        raw = self.u64_array(k)
        tail = []
        limit = (1 << 64) - (1 << 64) % n
        if limit < 1 << 64:
            rejected = raw >= np.uint64(limit)
            if rejected.any():
                first = int(rejected.argmax())
                self._state = (start + first * _PHI) & _MASK
                tail = [self.below(n) for _ in range(k - first)]
                raw = raw[:first]
        if n < 1 << 64:
            raw = raw % np.uint64(n)
        dtype = np.int64 if n <= 1 << 63 else object
        out = raw.astype(dtype)
        if tail:
            out = np.concatenate([out, np.array(tail, dtype=dtype)])
        return out


def probability_threshold(q: float) -> int:
    """Integer t with t / 2**64 equal to q rounded to 64 fractional bits."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    return min(1 << 64, round(q * (1 << 64)))


def stream(master_seed: int, *indices: int) -> Stream:
    """Derive a substream of the master seed, keyed by an index path."""
    state = _mix(master_seed)
    for ix in indices:
        state = _mix(state ^ ((ix + 1) * _PHI & _MASK))
    return Stream(state)
