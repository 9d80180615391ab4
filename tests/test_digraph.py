from collections import Counter

import pytest

from arborsim.digraph import (
    ColouredDigraph,
    ColouredEdge,
    DuplicateEdgeError,
    has_spanning_arborescence,
    reachable_from,
    spanning_roots,
)
from arborsim.process import ProcessConfig, ProcessTrace
from arborsim.rng import SplitMix64
from helpers import graph_from_edges, random_graph


def test_add_edge_updates_counters():
    g = ColouredDigraph(3, 6)
    assert g.zero_in_count == 3 and g.distinct_colours == 0
    g.add_edge(ColouredEdge(0, 1, 5))
    assert g.zero_in_count == 2 and g.distinct_colours == 1
    g.add_edge(ColouredEdge(0, 2, 5))
    assert g.zero_in_count == 1 and g.distinct_colours == 1
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(ColouredEdge(0, 1, 2))


def test_add_edge_rejects_bad_input():
    g = ColouredDigraph(3, 2)
    with pytest.raises(ValueError):
        g.add_edge(ColouredEdge(0, 3, 0))
    with pytest.raises(ValueError):
        g.add_edge(ColouredEdge(1, 1, 0))
    with pytest.raises(ValueError):
        g.add_edge(ColouredEdge(0, 1, 2))
    g.add_edge(ColouredEdge(1, 2, 1))
    assert g.edge_colour(1, 2) == 1
    # off the vertex range, even where tail * n + head is the key of (1, 2)
    assert g.edge_colour(0, 5) is None and g.edge_colour(2, -1) is None


def test_incremental_counters_match_recompute():
    rng = SplitMix64(2024)
    for _ in range(1000):
        n = 2 + rng.below(7)
        w = 1 + rng.below(6)
        m = rng.below(n * (n - 1) + 1)
        g = random_graph(rng, n, w, m)
        in_deg = [0] * n
        mult = [0] * w
        for e in g.edges:
            in_deg[e.head] += 1
            mult[e.colour] += 1
        assert [len(es) for es in g.in_edges] == in_deg
        assert g.colour_mult == mult
        assert g.zero_in_count == sum(1 for d in in_deg if d == 0)
        assert g.distinct_colours == sum(1 for c in mult if c >= 1)
        assert sum(in_deg) == len(g.edges)


def _slots(g):
    return {name: getattr(g, name) for name in ColouredDigraph.__slots__}


def test_pop_edge_inverts_add_edge():
    rng = SplitMix64(77)
    for _ in range(200):
        n = 2 + rng.below(6)
        w = 1 + rng.below(5)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        edges = list(g.edges)
        original = _slots(graph_from_edges(n, w, edges))
        for k in range(len(edges), -1, -1):
            popped = [g.pop_edge() for _ in range(len(g) - k)]
            assert popped == edges[k:][::-1]
            assert _slots(g) == _slots(graph_from_edges(n, w, edges[:k]))
            for e in popped:
                assert g.edge_colour(e.tail, e.head) is None
            for e in reversed(popped):
                g.add_edge(e)
            assert _slots(g) == original
        for _ in edges:
            g.pop_edge()
        with pytest.raises(IndexError):
            g.pop_edge()
        assert _slots(g) == _slots(ColouredDigraph(n, w))


def test_out_edges_hold_the_in_edges_objects():
    # out_edges[t] files each edge object of in_edges[h] under its tail, in
    # insertion order, and pop_edge leaves the lists of a fresh prefix graph
    rng = SplitMix64(4111)
    for _ in range(200):
        n = 2 + rng.below(6)
        w = 1 + rng.below(5)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        edges = list(g.edges)
        for k in range(len(edges), -1, -1):
            while len(g) > k:
                g.pop_edge()
            assert g.out_edges == graph_from_edges(n, w, edges[:k]).out_edges
            assert sum(map(len, g.out_edges)) == k
            for t, outs in enumerate(g.out_edges):
                assert [e.tail for e in outs] == [t] * len(outs)
                for e in outs:
                    assert any(x is e for x in g.in_edges[e.head])


def test_reachable_from_examples():
    g = graph_from_edges(3, 2, [(0, 1, 0)])
    assert reachable_from(g, range(3)) == {0, 1, 2}
    assert reachable_from(g, {0}) == {0, 1}
    g4 = graph_from_edges(4, 2, [(0, 1, 0), (1, 2, 1)])
    assert reachable_from(g4, {3}) == {3}


def test_arborescence_examples():
    g = graph_from_edges(2, 1, [(0, 1, 0)])
    assert has_spanning_arborescence(g) is True
    assert spanning_roots(g) == [0]
    g = graph_from_edges(3, 1, [(0, 1, 0)])
    assert has_spanning_arborescence(g) is False
    cycle = graph_from_edges(3, 1, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
    assert has_spanning_arborescence(cycle) is True
    assert spanning_roots(cycle) == [0, 1, 2]
    # brute-force cross-check: some root reaches everything
    assert any(len(reachable_from(cycle, {r})) == 3 for r in range(3))


def _check_roots_by_definition(g) -> bool:
    n = g.n
    roots = [r for r in range(n) if len(reachable_from(g, {r})) == n]
    assert spanning_roots(g) == roots
    got = has_spanning_arborescence(g)
    assert got is bool(roots)
    return got


def test_arborescence_matches_reachability_exhaustively():
    rng = SplitMix64(17)
    branches = Counter()
    for _ in range(400):
        n = 1 + rng.below(8)
        m = rng.below(n * (n - 1) + 1)
        g = random_graph(rng, n, 3, m)
        if rng.below(2):
            # no edge joins [0, k) and [k, n), so no vertex reaches across:
            # no root, even when every in-degree is positive
            k = rng.below(n)
            g = graph_from_edges(n, 3, [e for e in g.edges if (e.tail < k) == (e.head < k)])
        # the root rule's branches: n = 1, or zero-in count 0, 1 and >= 2
        branch = "n=1" if n == 1 else min(g.zero_in_count, 2)
        branches[branch, _check_roots_by_definition(g)] += 1
    assert set(branches) == {
        ("n=1", True), (0, True), (0, False), (1, True), (1, False), (2, False)
    }, branches
    # process-scale prefixes: at m_Z one in-degree-zero vertex is left, and
    # 400 edges later none is
    for seed in (1, 2, 3):
        g = ColouredDigraph(200, 1)
        trace = ProcessTrace(ProcessConfig(200, 1, seed))
        edges = trace.prefix(trace.total_edges)
        while g.zero_in_count > 1:
            g.add_edge(next(edges))
        _check_roots_by_definition(g)
        for _ in range(400):
            g.add_edge(next(edges))
        assert g.zero_in_count == 0
        _check_roots_by_definition(g)


def test_arborescence_monotone_under_additions():
    rng = SplitMix64(31)
    for _ in range(100):
        n = 3 + rng.below(5)
        g = random_graph(rng, n, 3, n * (n - 1) // 2)
        if not has_spanning_arborescence(g):
            continue
        for t in range(n):
            for h in range(n):
                if t != h and g.edge_colour(t, h) is None:
                    g.add_edge(ColouredEdge(t, h, 0))
                    assert has_spanning_arborescence(g)
                    break
