"""Seedable pseudo-random primitives shared by the whole package.

Everything downstream (traces, samplers, experiments) draws from SplitMix64
streams, so every run is reproducible from a single 64-bit seed and the
generator is trivial to port to other languages. Bounded draws all run
through one kernel, ``_draws``, the one home of the rejection rule, which
draws a whole list of bounds per call and reads the bounds of a ``range``
from its two ends. ``SplitMix64.below_list`` is that kernel on the
generator's state, and every bounded stream draws from it in chunks of 1,
2, 4, ... up to ``CHUNK_CAP`` = 128 (``chunk_sizes``): ``below_stream``
for draws that share one bound, and the Fisher-Yates loops of
``sample_distinct`` and trace prefixes over ``range`` chunks of falling
bounds. ``below`` takes one draw.
``_block`` computes k ``mix64`` outputs at once: the states sit in k
128-bit lanes of one int, each finaliser step runs on the whole int, and
every lane is masked back to 64 bits after each step, so a 64 x 64-bit
product never carries into the next lane. ``mix64`` and ``next_u64`` are
scalar: they define the stream, and the tests check the kernels against
them. The constants below are fixed for all releases; the test suite pins
a golden table of derived seeds and one of raw outputs, rejection-path
draws, sampler outputs and trace digests.
"""

from __future__ import annotations

from itertools import chain
from operator import mod
from sys import byteorder
from typing import Iterator, Sequence

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


# Lanes per block and draws per chunk: both double from 1 up to this, so a
# stream read only a little way computes few unused outputs and a long one
# amortises the per-block work. A larger cap makes readers that stop early
# (``hitting_times`` reads a prefix until m_Z) compute more draws they
# never use.
CHUNK_CAP = 128
# k -> (sum 2^(128i), sum (i+1)*GOLDEN_GAMMA*2^(128i), sum MASK64*2^(128i))
# over lanes i < k; filled the first time a block of k <= CHUNK_CAP lanes
# is computed, never at import, so it stays small whatever lists
# ``below_list`` is given
_LANE_CONSTANTS: dict[int, tuple[int, int, int]] = {}


def chunk_sizes(count: int | None = None) -> Iterator[int]:
    """1, 2, 4, ... up to CHUNK_CAP, then CHUNK_CAP on; cut to sum to count if given."""
    size = 1
    while count is None or count > 0:
        if count is not None:
            size = min(size, count)
            count -= size
        yield size
        size = min(2 * size, CHUNK_CAP)


def _lane_constants(k: int) -> tuple[int, int, int]:
    consts = _LANE_CONSTANTS.get(k)
    if consts is None:
        ones = int.from_bytes((b"\1" + bytes(15)) * k, "little")
        ramp = int.from_bytes(b"".join((i * GOLDEN_GAMMA).to_bytes(16, "little")
                                       for i in range(1, k + 1)), "little")
        consts = (ones, ramp, ones * MASK64)
        if k <= CHUNK_CAP:
            _LANE_CONSTANTS[k] = consts
    return consts


def _block(state: int, k: int) -> list[int]:
    """The next k outputs after ``state``.

    Returns [mix64(s_1), ..., mix64(s_k)] with s_i = state + i*GOLDEN_GAMMA
    mod 2^64: the same values as k calls of ``next_u64``, computed on one
    int of k 128-bit lanes. The state after them is s_k.
    """
    ones, ramp, low = _lane_constants(k)
    states = (state * ones + ramp) & low
    z = ((states ^ (states >> 30)) & low) * _MIX_MUL_1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX_MUL_2 & low
    z = (z ^ (z >> 31)) & low
    # each lane's output in its low word; a big-endian cast gives the
    # words last lane first, high (zero) word first
    words = memoryview(z.to_bytes(16 * k, byteorder)).cast("Q")
    if byteorder == "big":
        return words[::-2].tolist()
    return words[::2].tolist()


def _stream(state: int) -> Iterator[int]:
    """The outputs after ``state``, forever, from blocks of growing size."""
    for k in chunk_sizes():
        yield from _block(state, k)
        state = (state + k * GOLDEN_GAMMA) & MASK64


def _draws(state: int, bounds: Sequence[int]) -> tuple[list[int], Sequence[int]]:
    """below(b) for each b in bounds, drawn from ``state``.

    Returns the values and, for each draw, how many 64-bit outputs the
    draws up to and including it used. The one home of the rejection rule:
    an output z is accepted for bound b iff it lies below
    2^64 - (2^64 mod b), so that the whole block of b values holding it
    fits in 64 bits, and the draw is then z mod b; power-of-two bounds
    always accept. The outputs come from one ``_block`` of len(bounds)
    lanes. If all of them lie below a threshold that no bound's limit is
    below (that limit itself when the bounds are equal, else
    2^64 - max(bounds) + 1), no draw is rejected and draw i takes output
    i. Otherwise the draws take the rule one at a time, reading further
    blocks as rejections need them. A bound outside [1, 2^64] raises
    ValueError before anything is drawn, naming the smallest bound if it
    is below 1, else the largest. The least and greatest bounds of a
    ``range`` are its two ends, read without walking it.
    """
    if not bounds:
        return [], []
    if isinstance(bounds, range):
        low, top = sorted((bounds[0], bounds[-1]))
    else:
        low, top = min(bounds), max(bounds)
    if low < 1 or top > 1 << 64:
        raise ValueError(f"bound must be in [1, 2^64], got {low if low < 1 else top}")
    k = len(bounds)
    outputs = _block(state, k)
    if max(outputs) < (1 << 64) - ((1 << 64) % top if low == top else top - 1):
        return list(map(mod, outputs, bounds)), range(1, k + 1)
    values, used = [], []
    outputs = chain(outputs, _stream((state + k * GOLDEN_GAMMA) & MASK64))
    count = 0
    for bound in bounds:
        limit = (1 << 64) - (1 << 64) % bound
        for z in outputs:
            count += 1
            if z < limit:
                break
        values.append(z % bound)
        used.append(count)
    return values, used


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
        return self.below_list((bound,))[0]

    def below_list(self, bounds: Sequence[int]) -> list[int]:
        """[below(b) for b in bounds], drawn in one call of the kernel ``_draws``.

        The state is written once, after the last draw; a bad bound raises
        ValueError having drawn nothing.
        """
        values, used = _draws(self._state, bounds)
        if values:
            self._state = (self._state + used[-1] * GOLDEN_GAMMA) & MASK64
        return values

    def unit(self) -> float:
        """Float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def unit_positive(self) -> float:
        """Float in (0, 1]; safe as a log() argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def sample_distinct(self, population: int, k: int) -> list[int]:
        """k distinct integers from [0, population), uniform over k-subsets.

        Partial Fisher-Yates on a sparse map, so memory is O(k) even for
        large populations, run over ``below_list`` chunks of draws
        (``chunk_sizes``): step i swaps slot i with slot i + below(population - i).
        """
        if not 0 <= k <= population:
            raise ValueError(f"need 0 <= k <= population, got k={k}, population={population}")
        swapped: dict[int, int] = {}
        out = []
        start = 0
        for size in chunk_sizes(k):
            draws = self.below_list(range(population - start, population - start - size, -1))
            for i, r in zip(range(start, start + size), draws):
                j = i + r
                vj = swapped.get(j, j)
                swapped[j] = swapped.pop(i, i)
                out.append(vj)
            start += size
        return out


def below_stream(seed: int, bound: int, count: int | None = None) -> Iterator[int]:
    """count draws below(bound) (unending for None) from SplitMix64(seed), in chunks."""
    rng = SplitMix64(seed)
    bounds = [bound]
    return chain.from_iterable(rng.below_list(bounds * size) for size in chunk_sizes(count))


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
LOCAL_SEARCH_STREAM = 6
