"""Seedable pseudo-random primitives shared by the whole package.

Everything downstream (traces, samplers, experiments) draws from SplitMix64
streams, so every run is reproducible from a single 64-bit seed and the
generator is trivial to port to other languages. Bounded draws all run
through one loop, ``SplitMix64.below_each``; ``below`` takes one draw from
it. That loop takes its outputs from ``_block``, which computes the next k
states and their ``mix64`` outputs at once: the states sit in k 128-bit
lanes of one int, each finaliser step runs on the whole int, and every
lane is masked back to 64 bits after each step, so a 64 x 64-bit product
never carries into the next lane. ``mix64`` and ``next_u64`` are scalar:
they define the stream, and the tests check the block kernel against
them. The constants below are fixed for all releases; the test suite pins
a golden table of derived seeds and one of raw outputs, rejection-path
draws and trace digests.
"""

from __future__ import annotations

from itertools import chain
from sys import byteorder
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


# Lanes per block: _blocks doubles from 1 up to this, so a short stream
# computes few unused outputs and a long one amortises the big-int work.
_MAX_LANES = 1024
# k -> (sum 2^(128i), sum (i+1)*GOLDEN_GAMMA*2^(128i), sum MASK64*2^(128i))
# over lanes i < k; filled the first time a block of k lanes is computed,
# never at import
_LANE_CONSTANTS: dict[int, tuple[int, int, int]] = {}


def _lane_constants(k: int) -> tuple[int, int, int]:
    consts = _LANE_CONSTANTS.get(k)
    if consts is None:
        ones = int.from_bytes((b"\1" + bytes(15)) * k, "little")
        ramp = int.from_bytes(b"".join((i * GOLDEN_GAMMA).to_bytes(16, "little")
                                       for i in range(1, k + 1)), "little")
        consts = _LANE_CONSTANTS[k] = (ones, ramp, ones * MASK64)
    return consts


def _block(state: int, k: int) -> list[int]:
    """The next k outputs and states after ``state``, interleaved.

    Returns [mix64(s_1), s_1, ..., mix64(s_k), s_k] with
    s_i = state + i*GOLDEN_GAMMA mod 2^64: the same values as k calls of
    ``next_u64``, computed on one int of k 128-bit lanes.
    """
    ones, ramp, low = _lane_constants(k)
    states = (state * ones + ramp) & low
    z = ((states ^ (states >> 30)) & low) * _MIX_MUL_1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX_MUL_2 & low
    # each lane's output in its low half, its state in the high half; the
    # words of a big-endian cast come out last lane first, state first
    z = (z ^ (z >> 31)) & low | states << 64
    words = memoryview(z.to_bytes(16 * k, byteorder)).cast("Q").tolist()
    if byteorder == "big":
        words.reverse()
    return words


def _blocks(state: int) -> Iterator[Iterator[tuple[int, int]]]:
    """(output, state) pairs after ``state``, forever, in blocks of 1, 2, 4, ... lanes."""
    k = 1
    while True:
        words = _block(state, k)
        state = words[-1]
        it = iter(words)
        yield zip(it, it)
        k = min(2 * k, _MAX_LANES)


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

        The one draw loop. A 64-bit output z gives r = z % bound and is
        accepted iff the whole block of bound values holding z fits below
        2^64 (z - r <= 2^64 - bound); power-of-two bounds always accept.
        Outputs come from a buffer that ``_block`` fills 1, 2, 4, ... up to
        1,024 at a time. The state is written back after every draw, and
        the buffer is dropped when the state changed between two draws, so
        other draws on this generator may interleave.
        """
        state = self._state
        pairs = chain.from_iterable(_blocks(state))
        for bound in bounds:
            if not 0 < bound <= 1 << 64:
                raise ValueError(f"bound must be in [1, 2^64], got {bound}")
            ceiling = (1 << 64) - bound
            if state != self._state:
                state = self._state
                pairs = chain.from_iterable(_blocks(state))
            for z, state in pairs:
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
