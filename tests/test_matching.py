import pytest

from arborsim.matching import (
    ColourBipartiteGraph,
    KWitness,
    _maximum_matching,
    assignment_roots,
    build_colour_bigraph,
    find_colour_assignment,
    find_k_witness,
    materialize_assignment,
)
from arborsim.rng import SplitMix64
from helpers import graph_from_edges, random_graph


def bigraph(n, adjacency):
    return ColourBipartiteGraph(n, [sorted(a) for a in adjacency])


def brute_force_assignment_exists(b, root):
    vertices = [v for v in range(b.n) if v != root]
    colour_lists = [b.adjacency[v] for v in vertices]
    if any(not cl for cl in colour_lists):
        return False

    def extend(i, used):
        if i == len(vertices):
            return True
        return any(c not in used and extend(i + 1, used | {c}) for c in colour_lists[i])

    return extend(0, frozenset())


def test_build_colour_bigraph_examples():
    g = graph_from_edges(3, 3, [(0, 1, 0), (2, 1, 0)])
    b = build_colour_bigraph(g)
    assert b.adjacency == [[], [0], []]
    g = graph_from_edges(3, 3, [(0, 1, 0), (0, 2, 1), (1, 2, 0)])
    assert build_colour_bigraph(g).adjacency == [[], [0], [0, 1]]
    complete = [(t, h, 0) for t in range(3) for h in range(3) if t != h]
    assert build_colour_bigraph(graph_from_edges(3, 1, complete)).adjacency == [[0], [0], [0]]


def test_assignment_unique_matching():
    b = bigraph(3, [[], [0], [1]])
    a = find_colour_assignment(b, 0)
    assert a is not None and a.mapping == {1: 0, 2: 1}
    assert find_k_witness(b, 0) is None


def test_assignment_hall_violation():
    b = bigraph(3, [[], [0], [0]])
    assert find_colour_assignment(b, 0) is None
    w = find_k_witness(b, 0)
    assert w is not None
    assert w.vertices == [1, 2] and w.colours == [0]


def test_assignment_matches_brute_force():
    rng = SplitMix64(404)
    for _ in range(20):
        g = random_graph(rng, 8, 1 + rng.below(8), rng.below(40))
        b = build_colour_bigraph(g)
        root = rng.below(8)
        found = find_colour_assignment(b, root)
        assert (found is not None) == brute_force_assignment_exists(b, root)


def test_duality_and_witness_validity():
    rng = SplitMix64(555)
    for _ in range(1000):
        n = 2 + rng.below(9)
        w = 1 + rng.below(n + 2)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        b = build_colour_bigraph(g)
        root = rng.below(n)
        assignment = find_colour_assignment(b, root)
        witness = find_k_witness(b, root)
        assert (assignment is None) != (witness is None)
        if assignment is not None:
            mapped = assignment.mapping
            assert set(mapped) == set(range(n)) - {root}
            assert len(set(mapped.values())) == n - 1
            for v, c in mapped.items():
                assert c in b.adjacency[v]
        else:
            s, t = witness.vertices, witness.colours
            assert len(t) == len(s) - 1
            assert root not in s
            neighbourhood = set()
            for v in s:
                neighbourhood.update(b.adjacency[v])
            assert neighbourhood <= set(t)


def test_assignment_roots_equal_per_root_matchings():
    rng = SplitMix64(2024)
    kinds = set()  # no root, some roots, every root
    for _ in range(600):
        n = 1 + rng.below(9)
        w = 1 + rng.below(n + 2)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        b = build_colour_bigraph(g)
        expected = {r for r in range(n) if find_colour_assignment(b, r) is not None}
        assert assignment_roots(b) == expected
        kinds.add("none" if not expected else "all" if len(expected) == n else "some")
    assert kinds == {"none", "some", "all"}


def alternating_reach(b, match_v, seed):
    """Reference: vertices and colours reached from `seed` by alternating paths.

    A vertex steps to each of its colours, a colour to the vertex that
    match_v maps to it.
    """
    owner = {c: v for v, c in match_v.items()}
    vertices, colours = {seed}, set()
    queue = [seed]
    for v in queue:
        for c in b.adjacency[v]:
            if c not in colours:
                colours.add(c)
                if owner[c] not in vertices:
                    vertices.add(owner[c])
                    queue.append(owner[c])
    return vertices, colours


def test_witness_and_roots_equal_a_fresh_alternating_reach():
    rng = SplitMix64(1935)
    seen = set()
    for _ in range(8000):
        n = 1 + rng.below(9)
        w = 1 + rng.below(n + 2)
        # about one row in five has no colours
        b = bigraph(n, [{rng.below(w) for _ in range(rng.below(min(w, 4) + 1))}
                        for _ in range(n)])
        for skip in [None, *range(n)]:
            match_v, _ = _maximum_matching(b, skip)
            unmatched = [v for v in range(n) if v != skip and v not in match_v]
            if unmatched:
                s, t = alternating_reach(b, match_v, unmatched[0])
                seen.add("no colours" if not t else "witness")
            if skip is not None:
                expected = None if not unmatched else KWitness(sorted(s), sorted(t))
                assert find_k_witness(b, skip) == expected
            elif len(unmatched) == 1:
                assert assignment_roots(b) == s
            else:
                assert assignment_roots(b) == (set() if unmatched else set(range(n)))
    assert seen == {"no colours", "witness"}


def test_materialized_assignment_structure():
    rng = SplitMix64(77)
    done = 0
    while done < 50:
        n = 3 + rng.below(6)
        g = random_graph(rng, n, n + 2, rng.below(n * (n - 1) + 1))
        b = build_colour_bigraph(g)
        root = rng.below(n)
        assignment = find_colour_assignment(b, root)
        if assignment is None:
            continue
        chosen = materialize_assignment(g, assignment)
        done += 1
        assert set(chosen) == set(range(n)) - {root}
        colours = [e.colour for e in chosen.values()]
        assert len(set(colours)) == n - 1
        for v, e in chosen.items():
            assert e.head == v and e in g.in_edges[v]
            # earliest in-edge of that colour in process order
            first = next(x for x in g.in_edges[v] if x.colour == e.colour)
            assert first == e


def enumerate_minimal_witnesses(b, root):
    """All minimal Hall violators (S with |N(S)| = |S|-1, no violating subset)."""
    from itertools import combinations

    vertices = [v for v in range(b.n) if v != root]
    violating = []
    for k in range(1, len(vertices) + 1):
        for s in combinations(vertices, k):
            nbhd = set()
            for v in s:
                nbhd.update(b.adjacency[v])
            if len(nbhd) <= k - 1:
                violating.append((frozenset(s), frozenset(nbhd)))
    minimal = []
    for s, t in violating:
        if not any(s2 < s for s2, _ in violating):
            minimal.append((s, t))
    return minimal


def test_minimal_witness_edge_bound():
    # every minimal violator has at least 2(|S|-1) vertex-colour incidences
    rng = SplitMix64(88)
    checked = 0
    for _ in range(300):
        n = 3 + rng.below(4)  # n in [3, 6]
        w = 1 + rng.below(4)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        b = build_colour_bigraph(g)
        root = rng.below(n)
        for s, t in enumerate_minimal_witnesses(b, root):
            checked += 1
            assert len(t) == len(s) - 1
            incidences = sum(1 for v in s for c in b.adjacency[v] if c in t)
            assert incidences >= 2 * (len(s) - 1)
    assert checked > 50


def test_root_validation():
    b = bigraph(3, [[0], [0], [1]])
    with pytest.raises(ValueError):
        find_colour_assignment(b, 3)
    with pytest.raises(ValueError):
        find_k_witness(b, -1)
    cycle = bigraph(3, [[2], [0], [1]])  # a directed 3-cycle has a matching on all of V
    for find in (find_colour_assignment, find_k_witness):
        with pytest.raises(ValueError):
            find(cycle, None)
