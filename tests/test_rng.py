import json
import pathlib
from itertools import islice, repeat

import pytest

from arborsim.rng import MASK64, SplitMix64, derive_trial_seed, mix64

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
