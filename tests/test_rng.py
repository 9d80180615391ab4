import json
import pathlib

import pytest

from arborsim.rng import MASK64, SplitMix64, derive_trial_seed, mix64

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_mix64_is_64_bit_and_deterministic():
    xs = [mix64(z) for z in (0, 1, 2**63, MASK64)]
    assert all(0 <= x <= MASK64 for x in xs)
    assert xs == [mix64(z) for z in (0, 1, 2**63, MASK64)]
    assert len(set(xs)) == len(xs)


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
