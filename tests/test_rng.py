import json
import pathlib
from itertools import islice, repeat

import pytest

from arborsim.rng import GOLDEN_GAMMA, MASK64, SplitMix64, _block, derive_trial_seed, mix64

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_mix64_is_64_bit_and_deterministic():
    xs = [mix64(z) for z in (0, 1, 2**63, MASK64)]
    assert all(0 <= x <= MASK64 for x in xs)
    assert xs == [mix64(z) for z in (0, 1, 2**63, MASK64)]
    assert len(set(xs)) == len(xs)


def test_raw_streams_match_golden_table():
    # SplitMix64(0) opens with the published reference outputs; the below
    # draws at 2^63 + 1 reject about half their tries, and next_u64_after
    # pins how many 64-bit outputs those 50 draws consumed
    table = json.loads((GOLDEN / "streams.json").read_text())
    ref = table["next_u64"]
    rng = SplitMix64(ref["seed"])
    assert [f"0x{rng.next_u64():016x}" for _ in ref["values"]] == ref["values"]
    ref = table["below"]
    rng = SplitMix64(ref["seed"])
    assert [rng.below(ref["bound"]) for _ in ref["values"]] == ref["values"]
    assert f"0x{rng.next_u64():016x}" == ref["next_u64_after"]


def test_stream_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_below_range_and_coverage():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(2000):
        x = rng.below(6)
        assert 0 <= x < 6
        seen.add(x)
    assert seen == set(range(6))
    with pytest.raises(ValueError):
        rng.below(0)


def test_below_bound_is_at_most_2_64():
    # one 64-bit draw per try cannot cover a wider range, so larger bounds
    # are rejected instead of sampled forever
    assert SplitMix64(7).below(2**64) == SplitMix64(7).next_u64()
    for bound in (2**64 + 1, 2**65):
        with pytest.raises(ValueError):
            SplitMix64(7).below(bound)


def below_reference(rng, bound):
    # the rejection rule as first written: mask a power of two, else reject
    # outputs at or above the largest multiple of bound that fits in 64 bits
    if bound & (bound - 1) == 0:
        return rng.next_u64() & (bound - 1)
    limit = (1 << 64) - ((1 << 64) % bound)
    while True:
        u = rng.next_u64()
        if u < limit:
            return u % bound


MIXED_BOUNDS = [1, 2, 3, 5, 2**10, 3 * 2**62, 2**63 + 1, 2**64 - 1, 2**64]


def test_below_each_equals_below_draw_by_draw():
    bounds = MIXED_BOUNDS * 40
    for seed in (0, 7, 2718):
        each = list(SplitMix64(seed).below_each(bounds))
        one = SplitMix64(seed)
        assert each == [one.below(b) for b in bounds]
        ref = SplitMix64(seed)
        assert each == [below_reference(ref, b) for b in bounds]
        assert one.next_u64() == ref.next_u64()
    # below_list on every length from 0 to past 2,048, and for single
    # bounds on lengths at chunk and block edges: 1000 and 2^64 take the
    # bulk path (2^64 only because equal bounds are tested against their
    # own limit), and 2^63 + 1 rejects about half its tries, as mixed
    # bounds do on most lists
    edges = [*range(260), 383, 384, 385, 1023, 1024, 1025, 2047, 2048, 2049, 2100]
    for bounds, lengths in ((MIXED_BOUNDS * 230, range(2071)), ([1000] * 2100, edges),
                            ([2**64] * 2100, edges), ([2**63 + 1] * 2100, edges)):
        ref = SplitMix64(MASK64)
        expected, states = [], [ref._state]
        for b in bounds:
            expected.append(below_reference(ref, b))
            states.append(ref._state)
        for length in lengths:
            rng = SplitMix64(MASK64)
            assert rng.below_list(bounds[:length]) == expected[:length], (bounds[0], length)
            assert rng._state == states[length], (bounds[0], length)


@pytest.mark.parametrize("bad", [0, -1, 2**64 + 1])
def test_below_each_rejects_a_bad_bound_at_its_draw(bad):
    rng = SplitMix64(5)
    it = rng.below_each([6, 2**63 + 1, bad, 6])
    ref = SplitMix64(5)
    assert [next(it), next(it)] == [ref.below(6), ref.below(2**63 + 1)]
    with pytest.raises(ValueError):
        next(it)
    # the bad draw consumed nothing
    assert rng.next_u64() == ref.next_u64()


def test_below_after_partial_below_each_continues_the_stream():
    expected = list(SplitMix64(9).below_each(repeat(1000, 7)))
    rng = SplitMix64(9)
    it = rng.below_each(repeat(1000, 6))
    assert list(islice(it, 2)) == expected[:2]
    assert rng.below(1000) == expected[2]
    # resuming the iterator picks up after the interleaved draw: its last
    # four draws are the stream's fourth to seventh
    assert list(it) == expected[3:]


# states at and next to the 2^64 wrap-around: from the last three, the
# first, third or 1,024th lane of a block steps onto state 0
WRAP_STATES = [0, 1, 2**63, MASK64, -GOLDEN_GAMMA & MASK64, -3 * GOLDEN_GAMMA & MASK64,
               -1024 * GOLDEN_GAMMA & MASK64]


def test_block_equals_scalar_steps():
    for k in [2**i for i in range(11)] + [3, 1000]:
        for state in WRAP_STATES + [0x0123456789ABCDEF]:
            rng = SplitMix64(state)
            assert _block(state, k) == [rng.next_u64() for _ in range(k)], (k, state)


def test_abandoned_below_each_leaves_the_drawn_state():
    # the buffer runs ahead of the draws, but the generator's state must
    # stand after the last draw taken, wherever the iterator is dropped
    bounds = MIXED_BOUNDS * 240
    for seed in (3, MASK64):
        ref = SplitMix64(seed)
        states = [ref._state]
        for b in bounds[:2100]:
            below_reference(ref, b)
            states.append(ref._state)
        for taken, state in enumerate(states):
            rng = SplitMix64(seed)
            it = rng.below_each(bounds)
            assert len(list(islice(it, taken))) == taken
            del it
            assert rng._state == state, (seed, taken)


@pytest.mark.parametrize("at", [1, 2, 3, 1023, 1024, 1025, 2047, 2048])
def test_draws_interleaved_at_block_boundaries(at):
    bounds = MIXED_BOUNDS * 250
    for seed in (11, -GOLDEN_GAMMA & MASK64):
        rng = SplitMix64(seed)
        it = rng.below_each(bounds)
        got = list(islice(it, at))
        got += [rng.below(1000), rng.next_u64(), rng.below(2**63 + 1), rng.next_u64()]
        got += list(islice(it, 1100)) + [rng.next_u64()]
        ref = SplitMix64(seed)
        expected = [below_reference(ref, b) for b in bounds[:at]]
        expected += [below_reference(ref, 1000), ref.next_u64(),
                     below_reference(ref, 2**63 + 1), ref.next_u64()]
        expected += [below_reference(ref, b) for b in bounds[at:at + 1100]] + [ref.next_u64()]
        assert got == expected, (seed, at)


def test_below_is_roughly_uniform():
    rng = SplitMix64(11)
    counts = [0] * 5
    trials = 50000
    for _ in range(trials):
        counts[rng.below(5)] += 1
    expected = trials / 5
    for c in counts:
        assert abs(c - expected) < 5 * (expected * 0.8) ** 0.5


def test_sample_distinct():
    rng = SplitMix64(3)
    for _ in range(200):
        k = rng.below(10)
        out = rng.sample_distinct(20, k)
        assert len(out) == len(set(out)) == k
        assert all(0 <= v < 20 for v in out)
    assert sorted(rng.sample_distinct(5, 5)) == list(range(5))


def test_derive_trial_seed_deterministic_and_collision_free():
    assert derive_trial_seed(99, 5) == derive_trial_seed(99, 5)
    rng = SplitMix64(1)
    for _ in range(10000):
        s = rng.next_u64()
        assert derive_trial_seed(s, 0) != derive_trial_seed(s, 1)
    with pytest.raises(ValueError):
        derive_trial_seed(0, -1)


def test_derive_trial_seed_matches_golden_table():
    table = json.loads((GOLDEN / "trial_seeds.json").read_text())
    for master, row in table.items():
        for index, expected in row.items():
            assert derive_trial_seed(int(master), int(index)) == expected
