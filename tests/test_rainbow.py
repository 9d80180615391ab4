import itertools
import time

import pytest

from arborsim.digraph import ColouredDigraph, ColouredEdge, spanning_roots
from arborsim.rainbow import (
    ArborescenceCertificate,
    BudgetExceededError,
    OracleTooLargeError,
    brute_force_oracle,
    decide,
    decide_exact,
    heuristic_construct,
    _candidate_roots,
    _COLOUR_COMBO_CAP,
    _decide_by_colour_enumeration,
    _search_root,
    verify_certificate,
)
from arborsim.rng import SplitMix64
from helpers import graph_from_edges, random_graph


def test_verify_certificate_examples():
    g = graph_from_edges(2, 2, [(0, 1, 0)])
    cert = ArborescenceCertificate(0, {1: ColouredEdge(0, 1, 0)})
    assert verify_certificate(g, cert)

    missing = graph_from_edges(2, 2, [(1, 0, 0)])
    assert not verify_certificate(missing, cert)

    g3 = graph_from_edges(3, 2, [(0, 1, 0), (0, 2, 0)])
    shared = ArborescenceCertificate(
        0, {1: ColouredEdge(0, 1, 0), 2: ColouredEdge(0, 2, 0)}
    )
    assert not verify_certificate(g3, shared)  # two parents share a colour


def test_verify_certificate_rejects_cycles_and_gaps():
    g = graph_from_edges(3, 3, [(0, 1, 0), (1, 2, 1), (2, 1, 2)])
    cyclic = ArborescenceCertificate(
        0, {1: ColouredEdge(2, 1, 2), 2: ColouredEdge(1, 2, 1)}
    )
    assert not verify_certificate(g, cyclic)
    partial = ArborescenceCertificate(0, {1: ColouredEdge(0, 1, 0)})
    assert not verify_certificate(g, partial)


def test_oracle_examples():
    g = graph_from_edges(3, 2, [(0, 1, 0), (0, 2, 1)])
    cert = brute_force_oracle(g)
    assert cert is not None and cert.root == 0
    assert verify_certificate(g, cert)

    mono = ColouredDigraph(3, 1)
    for t in range(3):
        for h in range(3):
            if t != h:
                mono.add_edge(ColouredEdge(t, h, 0))
    assert brute_force_oracle(mono) is None


def test_oracle_guard():
    g = ColouredDigraph(6, 30)
    c = 0
    for t in range(6):
        for h in range(6):
            if t != h:
                g.add_edge(ColouredEdge(t, h, c % 30))
                c += 1
    with pytest.raises(OracleTooLargeError):
        brute_force_oracle(g, guard=10)


def test_exact_fast_paths():
    g = graph_from_edges(4, 2, [(0, 1, 0), (0, 2, 0), (0, 3, 1)])
    assert g.distinct_colours < 3
    # fewer than n-1 colours present: no root has an injective colour
    # assignment, so _candidate_roots is empty
    assert decide_exact(g) is None
    star = graph_from_edges(4, 4, [(0, 1, 0), (0, 2, 1), (0, 3, 2)])
    cert = decide_exact(star)
    assert cert is not None and cert.root == 0


def test_colour_enumeration_cap_is_inclusive():
    # A path 0 -> 1 -> ... -> 27 in distinct colours spans from 0; every
    # other edge lies in a colliding class. Enumeration applies at
    # 2^11 = 2,048 combinations (and the first one spans) and declines at
    # 3 x 683 = 2,049.
    n = 28
    others = [(t, h) for t in range(n) for h in range(n) if t != h and h != t + 1]

    def graph(class_sizes):
        g = ColouredDigraph(n, n - 1 + len(class_sizes))
        for v in range(n - 1):
            g.add_edge(ColouredEdge(v, v + 1, v))
        pairs = iter(others)
        for c, size in enumerate(class_sizes, start=n - 1):
            for _ in range(size):
                g.add_edge(ColouredEdge(*next(pairs), c))
        return g

    assert _COLOUR_COMBO_CAP == 2048
    g = graph([2] * 11)
    cert = _decide_by_colour_enumeration(g, [0], None)
    assert cert != "inapplicable" and cert.root == 0 and verify_certificate(g, cert)
    assert _decide_by_colour_enumeration(graph([3, 683]), [0], None) == "inapplicable"


def test_single_vertex_graph():
    g = ColouredDigraph(1, 2)
    empty = ArborescenceCertificate(0, {})
    expected_by = {"oracle": "oracle", "exact": "exact",
                   "heuristic": "heuristic", "auto": "heuristic"}
    for mode, decided_by in expected_by.items():
        for root in (None, 0):
            result = decide(g, mode=mode, root=root)
            assert result.outcome == "found"
            assert result.certificate == empty
            assert result.decided_by == decided_by
    assert decide_exact(g) == empty
    assert decide_exact(g, 0) == empty
    out = heuristic_construct(g, 0)
    assert out.success and out.certificate == empty
    assert spanning_roots(g) == [0]


def test_exact_matches_oracle_randomized():
    rng = SplitMix64(314159)
    for _ in range(1000):
        n = 2 + rng.below(5)
        w = 1 + rng.below(5)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        cert_o = brute_force_oracle(g)
        cert_e = decide_exact(g)
        assert (cert_o is None) == (cert_e is None)
        for cert in (cert_o, cert_e):
            if cert is not None:
                assert verify_certificate(g, cert)


def test_backtracking_matches_oracle_every_root():
    # decide_exact reaches the backtracking search only when colour-class
    # enumeration is inapplicable, which small graphs rarely are; call the
    # search directly, for every root, with no root pre-checks.
    rng = SplitMix64(161803)
    outcomes = {"found": 0, "none": 0}
    for _ in range(300):
        n = 2 + rng.below(6)
        w = n - 1 + rng.below(3)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        for r in range(n):
            cert = _search_root(g, r, None)
            expected = brute_force_oracle(g, root=r)
            assert (cert is None) == (expected is None), (n, w, g.edges, r)
            if cert is not None:
                assert cert.root == r and verify_certificate(g, cert)
            outcomes["found" if cert else "none"] += 1
    assert min(outcomes.values()) > 100


def test_exact_matches_oracle_exhaustive_colourings():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]
    for colours in itertools.product(range(2), repeat=len(edges)):
        g = ColouredDigraph(4, 2)
        for (t, h), c in zip(edges, colours):
            g.add_edge(ColouredEdge(t, h, c))
        assert (brute_force_oracle(g) is None) == (decide_exact(g) is None)


def test_exact_respects_root_argument():
    g = graph_from_edges(3, 3, [(0, 1, 0), (1, 2, 1), (2, 0, 2)])
    for r in range(3):
        cert = decide_exact(g, root=r)
        assert cert is not None and cert.root == r
    star = graph_from_edges(3, 3, [(0, 1, 0), (0, 2, 1)])
    assert decide_exact(star, root=1) is None  # vertex 0 unreachable from 1


def test_root_out_of_range_is_value_error():
    cycle = graph_from_edges(3, 3, [(0, 1, 0), (1, 2, 1), (2, 0, 2)])
    two_sources = graph_from_edges(3, 3, [(0, 1, 0)])
    for g in (cycle, two_sources):
        for root in (7, 3, -1):
            for mode in ("oracle", "exact", "heuristic", "auto"):
                with pytest.raises(ValueError, match="out of range"):
                    decide(g, mode=mode, root=root)
            with pytest.raises(ValueError, match="out of range"):
                decide_exact(g, root=root)


def test_exact_budget():
    g = ColouredDigraph(7, 7)
    c = 0
    for t in range(7):
        for h in range(7):
            if t != h:
                g.add_edge(ColouredEdge(t, h, c % 7))
                c += 1
    with pytest.raises(BudgetExceededError):
        decide_exact(g, deadline=time.monotonic() - 1.0)


def test_heuristic_star_one_pass():
    star = graph_from_edges(4, 5, [(0, 1, 0), (0, 2, 1), (0, 3, 2)])
    out = heuristic_construct(star, 0)
    assert out.success
    assert verify_certificate(star, out.certificate)


def test_heuristic_mapping_repair_example():
    # assignment must use colour 0 for vertex 1 and colour 1 or 2 for
    # vertex 2; every materialisation is already acyclic
    g = graph_from_edges(3, 3, [(0, 1, 0), (1, 2, 1), (2, 1, 2)])
    out = heuristic_construct(g, 0)
    assert out.success
    cert = out.certificate
    assert cert.root == 0
    assert verify_certificate(g, cert)
    assert brute_force_oracle(g) is not None


def test_heuristic_reports_missing_assignment():
    g = graph_from_edges(3, 1, [(0, 1, 0), (0, 2, 0)])
    out = heuristic_construct(g, 0)
    assert not out.success
    assert out.failure_reason == "no injective colour assignment"


def test_heuristic_reports_unrepairable_components():
    # V \ {1} has the assignment 0 -> 2, 2 -> 0, but root 1 reaches nothing
    g = graph_from_edges(3, 3, [(2, 0, 2), (0, 2, 0)])
    out = heuristic_construct(g, 1)
    assert not out.success
    assert out.failure_reason == "unrepairable components"
    assert decide_exact(g, root=1) is None


def test_heuristic_one_sided_and_sound():
    rng = SplitMix64(271828)
    statuses = {"true-miss": 0, "true-negative": 0, "success": 0}
    for _ in range(400):
        n = 3 + rng.below(10)  # n in [3, 12]
        w = 2 + rng.below(n + 4)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        root = min(range(n), key=lambda v: (g.in_deg[v], v))
        out = heuristic_construct(g, root)
        if out.success:
            statuses["success"] += 1
            assert verify_certificate(g, out.certificate)
            assert decide_exact(g, root=root) is not None
        else:
            exact = decide_exact(g, root=root)
            statuses["true-miss" if exact is not None else "true-negative"] += 1
    assert statuses["success"] > 0 and statuses["true-negative"] > 0


def test_certificate_monotone_under_additions():
    rng = SplitMix64(42)
    found = 0
    while found < 30:
        n = 3 + rng.below(5)
        g = random_graph(rng, n, n + 2, rng.below(n * (n - 1) + 1))
        cert = decide_exact(g)
        if cert is None:
            continue
        found += 1
        for t in range(n):
            for h in range(n):
                if t != h and not g.has_edge(t, h):
                    g.add_edge(ColouredEdge(t, h, rng.below(n + 2)))
                    assert verify_certificate(g, cert)
                    break


def test_decide_modes_agree():
    rng = SplitMix64(909)
    for _ in range(200):
        n = 2 + rng.below(5)
        g = random_graph(rng, n, 1 + rng.below(6), rng.below(n * (n - 1) + 1))
        oracle = decide(g, mode="oracle")
        exact = decide(g, mode="exact")
        auto = decide(g, mode="auto")
        heur = decide(g, mode="heuristic")
        assert oracle.outcome == exact.outcome == auto.outcome
        if heur.outcome == "found":
            assert exact.outcome == "found"
            assert verify_certificate(g, heur.certificate)


def test_heuristic_starts_from_the_leading_candidate_roots():
    # heuristic and auto try the first three roots the exact search would
    # try, in its order, and answer with the first that succeeds
    rng = SplitMix64(1618)
    certified = 0
    for _ in range(300):
        n = 2 + rng.below(9)  # n in [2, 10]
        w = n - 1 + rng.below(4)
        g = random_graph(rng, n, w, n - 1 + rng.below(n * (n - 2) + 2))
        for root in (None, *range(n)):
            tries = _candidate_roots(g, root)[:3]
            first = next((r for r in tries if heuristic_construct(g, r).success), None)
            for mode in ("heuristic", "auto"):
                result = decide(g, mode=mode, root=root, budget_s=None)
                if result.decided_by == "heuristic" and result.outcome == "found":
                    certified += 1
                    assert result.certificate.root == first  # one of tries
                else:
                    assert first is None
    assert certified > 0


def test_heuristic_reaches_a_candidate_root_past_the_lowest_in_degrees():
    # No in-degree-zero vertex. The three lowest (in-degree, v) vertices
    # are 1, 4 and 0; the heuristic fails from each, and 4 and 0 are no
    # candidate roots. Candidate root 2 carries the heuristic's certificate.
    g = graph_from_edges(5, 5, [
        (1, 4, 0), (4, 2, 2), (4, 3, 0), (4, 0, 2), (2, 0, 0), (2, 3, 3), (2, 1, 2),
        (1, 3, 4), (3, 2, 2), (2, 4, 4), (3, 0, 2), (3, 1, 2), (0, 2, 2)])
    assert g.zero_in_count == 0 and g.in_deg == [3, 2, 3, 3, 2]
    assert _candidate_roots(g, None) == [1, 2]
    assert not any(heuristic_construct(g, r).success for r in (1, 4, 0))
    for mode in ("heuristic", "auto"):
        result = decide(g, mode=mode)
        assert (result.outcome, result.decided_by) == ("found", "heuristic")
        assert result.certificate.root == 2


def test_decide_two_zero_in_degree_vertices():
    g = graph_from_edges(4, 4, [(0, 2, 0), (1, 3, 1)])
    assert g.zero_in_count == 2
    for mode in ("oracle", "exact", "heuristic", "auto"):
        assert decide(g, mode=mode).outcome == "not_found"
