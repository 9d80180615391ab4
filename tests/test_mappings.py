import hashlib
import json
import math
import pathlib

import pytest

from arborsim.mappings import (
    RandomMapping,
    cycle_components,
    epidemic_spread,
    loop_count,
    sample_mapping,
)
from arborsim.rng import SplitMix64

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_sample_mapping_matches_golden_digests():
    # SHA-256 of the comma-joined in-neighbours; n = 129 and 256 end one
    # past and exactly at a draw-chunk boundary (1 + 2 + ... + 128 = 255)
    for ref in json.loads((GOLDEN / "streams.json").read_text())["sample_mapping"]:
        in_nbr = sample_mapping(ref["n"], ref["loopless"], ref["seed"]).in_nbr
        digest = hashlib.sha256(",".join(map(str, in_nbr)).encode()).hexdigest()
        assert digest == ref["sha256"], ref


def assert_valid_decomposition(m, comps):
    all_vertices = [v for comp in comps for v in comp.vertices]
    assert sorted(all_vertices) == list(range(m.n))  # exact partition
    for comp in comps:
        members = set(comp.vertices)
        cycle = comp.cycle
        assert len(cycle) >= 1 and set(cycle) <= members
        # the cycle closes under the in-neighbour map
        for i, v in enumerate(cycle):
            assert m.in_nbr[v] == cycle[(i + 1) % len(cycle)]
        # every member walks into the cycle without leaving the component
        cycle_set = set(cycle)
        for v in comp.vertices:
            u = v
            for _ in range(m.n + 1):
                if u in cycle_set:
                    break
                assert u in members
                u = m.in_nbr[u]
            assert u in cycle_set


def test_n2_loopless_forced():
    m = sample_mapping(2, loopless=True, seed=4)
    assert m.in_nbr == [1, 0]


def test_loopless_requires_n2():
    with pytest.raises(ValueError):
        sample_mapping(1, loopless=True, seed=0)


def test_mean_self_loop_count():
    n, samples = 1000, 2000
    total = sum(loop_count(sample_mapping(n, seed=s)) for s in range(samples))
    assert abs(total / samples - 1.0) < 0.1  # exact mean is 1


def test_p_no_loop_matches_closed_form():
    n, samples = 1000, 3000
    exact = (1 - 1 / n) ** n
    hits = sum(1 for s in range(samples) if loop_count(sample_mapping(n, seed=s)) == 0)
    assert abs(hits / samples - exact) < 0.03
    assert 0.34 < exact < 0.40


def test_loopless_never_fixed_point():
    rng = SplitMix64(10)
    for trial in range(100_000):
        n = 2 + rng.below(63)
        m = sample_mapping(n, loopless=True, seed=trial)
        assert all(m.in_nbr[v] != v for v in range(n))


def test_components_hand_examples():
    two_cycle = RandomMapping(2, [1, 0], True)
    comps = cycle_components(two_cycle)
    assert len(comps) == 1 and comps[0].cycle in ([0, 1], [1, 0])
    assert_valid_decomposition(two_cycle, comps)

    m = RandomMapping(3, [1, 0, 0], False)  # 0 <-> 1 cycle, 2 hangs off 0
    comps = cycle_components(m)
    assert len(comps) == 1
    assert comps[0].vertices == [0, 1, 2]
    assert set(comps[0].cycle) == {0, 1}
    assert_valid_decomposition(m, comps)


def test_every_component_unicyclic():
    rng = SplitMix64(66)
    for trial in range(400):
        n = 2 + rng.below(60)
        m = sample_mapping(n, loopless=bool(trial % 2), seed=trial)
        assert_valid_decomposition(m, cycle_components(m))


def test_mean_cycle_count_band():
    # asymptotic mean is (1/2) log n ~ 3.45 at n=1000
    n, samples = 1000, 1000
    total = sum(len(cycle_components(sample_mapping(n, seed=s))) for s in range(samples))
    assert 2.5 <= total / samples <= 4.5


def test_cycle_edge_removal_leaves_arborescence_forest():
    rng = SplitMix64(19)
    for trial in range(100):
        n = 3 + rng.below(40)
        m = sample_mapping(n, seed=trial)
        comps = cycle_components(m)
        for comp in comps:
            # remove the in-edge of the first cycle vertex: it becomes the
            # unique root; every member then walks up to it acyclically
            root = comp.cycle[0]
            seen_global = set()
            for v in comp.vertices:
                path = []
                u = v
                while u != root:
                    assert u not in path
                    path.append(u)
                    u = m.in_nbr[u]
                seen_global.update(path)
            assert seen_global | {root} == set(comp.vertices)


def test_epidemic_examples():
    m = RandomMapping(3, [2, 0, 1], False)  # 3-cycle
    assert epidemic_spread(m, {0}) == {0, 1, 2}
    assert epidemic_spread(m, set(range(3))) == {0, 1, 2}

    chain = RandomMapping(4, [0, 0, 1, 2], False)  # 0 loop, path 0->1->2->3
    assert epidemic_spread(m=chain, infected={2}) == {2, 3}
    with pytest.raises(ValueError):
        epidemic_spread(chain, set())


def test_burtin_statistic_small_scale():
    n = 2000
    x = round(n ** (2 / 3))
    threshold = n ** (1 / 6)
    below = 0
    samples = 50
    for s in range(samples):
        m = sample_mapping(n, loopless=True, seed=s)
        rng = SplitMix64(s)
        infected = set(rng.sample_distinct(n, x))
        eta = len(epidemic_spread(m, infected))
        if (x / n) ** 2 * (n - eta) < threshold:
            below += 1
    assert below >= 0.9 * samples
