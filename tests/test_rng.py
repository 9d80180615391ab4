import hashlib
import json
import pathlib

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


def test_below_list_equals_below_draw_by_draw():
    bounds = MIXED_BOUNDS * 40
    for seed in (0, 7, 2718):
        one = SplitMix64(seed)
        ref = SplitMix64(seed)
        assert [one.below(b) for b in bounds] == [below_reference(ref, b) for b in bounds]
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


# 0 to 4, and each side of the block sizes 8, 64, 128 (CHUNK_CAP) and 256
RANGE_LENGTHS = [0, 1, 2, 3, 4, 7, 8, 63, 64, 65, 127, 128, 129, 255, 256, 257]


def test_below_list_reads_a_range_as_its_list():
    # a range's least and greatest bounds come from its ends, so the draws
    # and the state after must equal those of the same bounds as a list.
    # Bounds just above 2^63 reject about half their tries, small ones and
    # those near 2^64 almost never; in the last two ranges one bound just
    # above 2^63 sits among bounds that rarely reject, so taking the wrong
    # end for the greatest would skip its rejections
    starts = {-1: [2**64, 2**63 + 300, 1000], 1: [1, 2**63 + 1, 2**64 - 300],
              -3: [2**64, 2**63 + 900, 1000]}
    ranges = [range(first, first + step * length, step)
              for step, firsts in starts.items() for first in firsts for length in RANGE_LENGTHS]
    ranges += [range(1, 2**64, 2**61), range(2**63 + 1, 0, -2**61)]
    for bounds in ranges:
        for seed in (5, MASK64):
            a, b = SplitMix64(seed), SplitMix64(seed)
            assert a.below_list(bounds) == b.below_list(list(bounds)), (bounds, seed)
            assert a._state == b._state, (bounds, seed)
    for bound in MIXED_BOUNDS:
        for single in (range(bound, bound + 1), range(bound, bound - 1, -1)):
            a, b = SplitMix64(3), SplitMix64(3)
            assert a.below_list(single) == [b.below(bound)] and a._state == b._state, single


@pytest.mark.parametrize("bounds, bad", [
    (range(0, 5), 0),
    (range(2**64 + 1, 2**64 - 3, -1), 2**64 + 1),
    # 2^64 + 1 bounds: walking them for the least would not finish
    (range(1, 2**64 + 2), 2**64 + 1),
    ([6, 2**63 + 1, 0, 6], 0),
    ([6, 2**63 + 1, -1, 6], -1),
    ([6, 2**63 + 1, 2**64 + 1, 6], 2**64 + 1),
], ids=["range-from-0", "range-from-2^64+1", "range-to-2^64+1",
        "list-0", "list--1", "list-2^64+1"])
def test_below_list_rejects_a_bad_bound_having_drawn_nothing(bounds, bad):
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match=f"got {bad}$"):
        rng.below_list(bounds)
    assert rng.next_u64() == SplitMix64(5).next_u64()


# states at and next to the 2^64 wrap-around: from the last three, the
# first, third or 1,024th lane of a block steps onto state 0
WRAP_STATES = [0, 1, 2**63, MASK64, -GOLDEN_GAMMA & MASK64, -3 * GOLDEN_GAMMA & MASK64,
               -1024 * GOLDEN_GAMMA & MASK64]


def test_block_equals_scalar_steps():
    for k in [2**i for i in range(11)] + [3, 1000]:
        for state in WRAP_STATES + [0x0123456789ABCDEF]:
            rng = SplitMix64(state)
            assert _block(state, k) == [rng.next_u64() for _ in range(k)], (k, state)


@pytest.mark.parametrize("at", [1, 2, 3, 1023, 1024, 1025, 2047, 2048])
def test_draws_interleaved_at_block_boundaries(at):
    # below_list writes the state once, after its last draw, so scalar
    # draws and a further list continue the stream wherever a list ends
    bounds = MIXED_BOUNDS * 250
    for seed in (11, -GOLDEN_GAMMA & MASK64):
        rng = SplitMix64(seed)
        got = rng.below_list(bounds[:at])
        got += [rng.below(1000), rng.next_u64(), rng.below(2**63 + 1), rng.next_u64()]
        got += rng.below_list(bounds[at:at + 1100]) + [rng.next_u64()]
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


def test_sample_distinct_matches_golden_digests():
    # SHA-256 of the comma-joined sample, and the stream's next output
    # after it; k runs over 0, 1, the population and draw-chunk ends +- 1,
    # and population 2^63 + 1 rejects about half its first draws
    for ref in json.loads((GOLDEN / "streams.json").read_text())["sample_distinct"]:
        rng = SplitMix64(ref["seed"])
        out = rng.sample_distinct(ref["population"], ref["k"])
        assert hashlib.sha256(",".join(map(str, out)).encode()).hexdigest() == ref["sha256"], ref
        assert f"0x{rng.next_u64():016x}" == ref["next_u64_after"], ref


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
