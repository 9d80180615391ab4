"""Seedable pseudo-random primitives shared by the whole package.

Everything downstream (traces, samplers, experiments) draws from SplitMix64
streams, so every run is reproducible from a single 64-bit seed and the
generator is trivial to port to other languages. Bounded draws all run
through one loop, ``SplitMix64.below_each``, which inlines the generator
step and the rejection test so a streamed draw costs no Python call;
``below`` takes one draw from it. The constants below are fixed for all
releases; the test suite pins a golden table of derived seeds and one of
raw outputs, rejection-path draws and trace digests.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MASK64 = (1 << 64) - 1

# SplitMix64 increment and finalizer multipliers.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: two multiply-xor-shift rounds, bijective on 64 bits."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX_MUL_1) & MASK64
    z ^= z >> 27
    z = (z * _MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential generator: state steps by GOLDEN_GAMMA, output is mix64(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exactly unbiased (rejection sampling)."""
        return next(self.below_each((bound,)))

    def below_each(self, bounds: Iterable[int]) -> Iterator[int]:
        """Yield below(b) for each b in bounds, in order, from this stream.

        The one draw loop: the SplitMix64 step, mix64 and the rejection test
        are inlined, so a draw costs no Python call. A 64-bit output z gives
        r = z % bound and is accepted iff the whole block of bound values
        holding z fits below 2^64 (z - r <= 2^64 - bound); power-of-two
        bounds always accept. The state is read before and written back
        after every draw, so other draws on this generator may interleave.
        """
        for bound in bounds:
            if not 0 < bound <= 1 << 64:
                raise ValueError(f"bound must be in [1, 2^64], got {bound}")
            ceiling = (1 << 64) - bound
            state = self._state
            while True:
                state = (state + GOLDEN_GAMMA) & MASK64
                z = ((state ^ (state >> 30)) * _MIX_MUL_1) & MASK64
                z = ((z ^ (z >> 27)) * _MIX_MUL_2) & MASK64
                z ^= z >> 31
                r = z % bound
                if z - r <= ceiling:
                    break
            self._state = state
            yield r

    def unit(self) -> float:
        """Float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def unit_positive(self) -> float:
        """Float in (0, 1]; safe as a log() argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def sample_distinct(self, population: int, k: int) -> list[int]:
        """k distinct integers from [0, population), uniform over k-subsets.

        Partial Fisher-Yates on a sparse map, so memory is O(k) even for
        large populations.
        """
        if not 0 <= k <= population:
            raise ValueError(f"need 0 <= k <= population, got k={k}, population={population}")
        swapped: dict[int, int] = {}
        out = []
        for i, r in enumerate(self.below_each(range(population, population - k, -1))):
            j = i + r
            vj = swapped.get(j, j)
            swapped[j] = swapped.pop(i, i)
            out.append(vj)
        return out


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: two mix64 rounds over master_seed + (index+1)*GOLDEN_GAMMA.

    Deterministic, stable across releases, and collision-free in practice
    (mix64 is a bijection and the gamma multiples are distinct per index).
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    z = (master_seed + (trial_index + 1) * GOLDEN_GAMMA) & MASK64
    return mix64(mix64(z))


def derive_stream_seed(seed: int, tag: int) -> int:
    """Independent substream seed for one purpose (edge order, colours, ...)."""
    return mix64((seed & MASK64) ^ mix64(tag))


# Fixed substream tags. New tags may be appended, never renumbered.
EDGE_STREAM = 1
COLOUR_STREAM = 2
PRESENCE_STREAM = 3
MAPPING_STREAM = 4
INFECTION_STREAM = 5
