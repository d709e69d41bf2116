"""Deterministic 64-bit random streams.

The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-ratio constant, finalized by the standard two-round
mixer.  Streams are split by hashing, so per-trial substreams are
independent of scheduling order:

    stream(master, i1, i2, ...) seeds with
        mix(... mix(mix(master) ^ (i1 + 1) * PHI) ^ (i2 + 1) * PHI ...)

All derived quantities (uniform residues, weighted picks) are produced by
exact integer rejection sampling, so results are reproducible across
platforms and Python versions.
"""

from __future__ import annotations

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

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n == 1:
            return 0
        limit = (1 << 64) - (1 << 64) % n
        while True:
            r = self.u64()
            if r < limit:
                return r % n

    def chance(self, threshold: int) -> bool:
        """True with probability threshold / 2**64."""
        return self.u64() < threshold


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
