import gc
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from arborsim import rainbow
from arborsim.digraph import ColouredDigraph, ColouredEdge, spanning_roots
from arborsim.rainbow import (
    ArborescenceCertificate,
    BudgetExceededError,
    HeuristicOutcome,
    OracleTooLargeError,
    brute_force_oracle,
    decide,
    decide_exact,
    heuristic_construct,
    _candidate_roots,
    _COLOUR_COMBO_CAP,
    _decide_by_colour_enumeration,
    _local_search,
    _LOCAL_SEARCH_STEPS,
    _search_root,
    verify_certificate,
)
from arborsim.experiments import run_theorem_experiment
from arborsim.matching import build_colour_bigraph, find_colour_assignment
from arborsim.rng import SplitMix64, derive_trial_seed
from helpers import graph_from_edges, prefix_at_m, random_graph, small_cases, theorem_n200_cases


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
    expected_by = {"oracle": "oracle", "exact": "heuristic",
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


def test_every_searched_root_spans(monkeypatch):
    # _search_root takes as given that its root reaches every vertex, so
    # no decision path may hand it any other root. Colour enumeration is
    # switched off so that the search runs on every small graph.
    monkeypatch.setattr(rainbow, "_decide_by_colour_enumeration", lambda g, roots, deadline: "inapplicable")
    search = rainbow._search_root
    searched = []

    def checked_search(g, root, deadline):
        searched.append(root)
        assert root in spanning_roots(g), (g.n, g.edges, root)
        return search(g, root, deadline)

    monkeypatch.setattr(rainbow, "_search_root", checked_search)
    rng = SplitMix64(57721)
    partly_spanning = 0  # graphs searched where some vertex but not every one spans
    for _ in range(1000):
        n = 2 + rng.below(8)
        w = n - 1 + rng.below(4)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        before = len(searched)
        decide_exact(g)
        for r in range(n):
            decide_exact(g, r)
        for mode in ("exact", "auto"):
            decide(g, mode)
        if len(searched) > before and len(spanning_roots(g)) < n:
            partly_spanning += 1
    assert len(searched) > 2000 and partly_spanning > 50


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
            with pytest.raises(ValueError, match="out of range"):
                brute_force_oracle(g, root=root)


def test_candidate_roots_equal_their_definition():
    rng = SplitMix64(3141)
    kinds = set()
    for _ in range(2400):
        n = 2 + rng.below(8)
        w = 1 + rng.below(n + 2)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        b = build_colour_bigraph(g)
        spanning = []
        for r in range(n):
            seen = {r}
            queue = [r]
            for t in queue:
                for e in g.out_edges[t]:
                    if e.head not in seen:
                        seen.add(e.head)
                        queue.append(e.head)
            if len(seen) == n:
                spanning.append(r)
        expected = sorted((r for r in spanning if find_colour_assignment(b, r) is not None),
                          key=lambda v: (len(g.in_edges[v]), v))
        assert _candidate_roots(g, None) == expected
        kinds.add("no span" if not spanning else "none" if not expected else "some")
    assert kinds == {"no span", "none", "some"}
    # a given root is range-checked even when no vertex spans
    no_span = graph_from_edges(3, 3, [(0, 1, 0)])
    assert _candidate_roots(no_span, None) == []
    for root in (3, -1):
        with pytest.raises(ValueError, match="out of range"):
            _candidate_roots(no_span, root)


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


def test_exact_search_deeper_than_the_default_recursion_limit():
    # The prefix at M = max(m_C, m_Z) of an n = 1,200 trace: the search
    # grows a tree of 1,200 vertices, one grow frame per vertex.
    n = 1200
    g = prefix_at_m(n, 5)
    limit = sys.getrecursionlimit()
    assert limit < n
    cert = decide_exact(g)
    assert cert is not None and verify_certificate(g, cert)
    assert sys.getrecursionlimit() == limit


def test_exact_decisions_free_their_state_on_return(monkeypatch):
    # With the cyclic collector off, what only it could free stays behind
    # and gc.collect() counts it. A search whose closures keep its tables
    # alive leaves about 4,200 objects after an n = 200 decision, and a
    # search stopped by its budget leaves its whole memo.
    searches = []
    search = rainbow._search_root

    def counted_search(g, root, deadline):
        searches.append(root)
        return search(g, root, deadline)

    monkeypatch.setattr(rainbow, "_search_root", counted_search)
    # Inputs 0 and 2 of the exact-n200 benchmark at seeds 1 and 4. The
    # constructor certifies both, so the search is reached through
    # decide_exact, and through decide's last stage with the constructor
    # made to fail. Then an n = 50 theorem trial in exact mode whose
    # constructor fails at m_Z = m_A, where R does not yet hold, so the
    # search runs there and at later probes.
    found = prefix_at_m(200, derive_trial_seed(1 * 10**6, 0))
    slow = prefix_at_m(200, derive_trial_seed(4 * 10**6 + 2, 0))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert decide_exact(found, deadline=time.monotonic() + 10.0) is not None
        assert searches and gc.collect() == 0
        with pytest.raises(BudgetExceededError):
            decide_exact(slow, deadline=time.monotonic() + 0.05)
        assert gc.collect() == 0
        with monkeypatch.context() as m:
            m.setattr(rainbow, "heuristic_construct",
                      lambda g, root: HeuristicOutcome(None, "step schedule exhausted"))
            assert decide(slow, mode="exact", budget_s=0.05) == ("unknown", None, "exact")
        assert gc.collect() == 0
        searches.clear()
        report = run_theorem_experiment(n=50, trials=1, seed=1 * 10**6 + 3,
                                        r_mode="exact", threads=1)
        (row,) = report.rows
        assert searches and dict(zip(report.columns, row))["r_decision_mode"] == "exact"
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls heuristic_construct makes to each named rainbow function."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(rainbow, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rainbow, name, counted)
    return calls


def test_heuristic_reports_a_root_that_spans_nothing(monkeypatch):
    # V \ {1} has the assignment 0 -> 2, 2 -> 0, but root 1 reaches nothing;
    # the first local-search run's BFS shows it, with no colour matching
    calls = _count_calls(monkeypatch, "build_colour_bigraph", "_local_search")
    g = graph_from_edges(3, 3, [(2, 0, 2), (0, 2, 0)])
    out = heuristic_construct(g, 1)
    assert out == (None, "root does not span")
    assert calls == {"build_colour_bigraph": 0, "_local_search": 1}
    assert decide_exact(g, root=1) is None


def test_heuristic_tests_hall_once_after_the_first_run(monkeypatch):
    # Every non-root vertex has two in-edges, and n - 1 = 3 colours are
    # present, but only colours 0 and 1 enter {1, 2, 3}: the in-degree
    # pre-check passes, the first run fails, and one matching ends the call
    calls = _count_calls(monkeypatch, "find_colour_assignment", "_local_search")
    g = graph_from_edges(4, 3, [(0, 1, 0), (2, 1, 1), (0, 2, 0), (1, 2, 1),
                                (0, 3, 0), (1, 3, 1), (1, 0, 2)])
    out = heuristic_construct(g, 0)
    assert out == (None, "no injective colour assignment")
    assert calls == {"find_colour_assignment": 1, "_local_search": 1}


def test_heuristic_runs_the_whole_schedule_before_giving_up(monkeypatch):
    # Root 1 is a candidate root (it spans, and 0 -> 0, 2 -> 1 assigns
    # colours) but its only spanning tree 1 -> 2 -> 0 repeats colour 0
    calls = _count_calls(monkeypatch, "find_colour_assignment", "_local_search")
    g = graph_from_edges(3, 2, [(0, 2, 1), (2, 0, 0), (1, 2, 0)])
    assert _candidate_roots(g, 1) == [1] and brute_force_oracle(g, root=1) is None
    out = heuristic_construct(g, 1)
    assert out == (None, "step schedule exhausted")
    assert calls == {"find_colour_assignment": 1, "_local_search": len(_LOCAL_SEARCH_STEPS)}


def test_heuristic_one_sided_and_sound():
    rng = SplitMix64(271828)
    statuses = {"true-miss": 0, "true-negative": 0, "success": 0}
    for _ in range(400):
        n = 3 + rng.below(10)  # n in [3, 12]
        w = 2 + rng.below(n + 4)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        root = min(range(n), key=lambda v: (len(g.in_edges[v]), v))
        out = heuristic_construct(g, root)
        if out.success:
            statuses["success"] += 1
            assert verify_certificate(g, out.certificate)
            assert decide_exact(g, root=root) is not None
        else:
            exact = decide_exact(g, root=root)
            statuses["true-miss" if exact is not None else "true-negative"] += 1
    assert statuses["success"] > 0 and statuses["true-negative"] > 0


def test_constructor_is_sound_deterministic_and_certifies_every_attach_case():
    # Seeded small graphs, every root. A certificate is one the oracle
    # confirms and the same on a rerun. golden/attach_certified.json lists
    # every case that the attach construction, the constructor's former
    # fallback, certified: on these graphs, on helpers.small_cases and on
    # helpers.theorem_n200_cases. It was recorded from that construction
    # and is not regenerated; the constructor must certify each case.
    attach = json.loads((pathlib.Path(__file__).parent / "golden" / "attach_certified.json").read_text())
    rng = SplitMix64(60221)
    certified = set()
    for i in range(300):
        n = 2 + rng.below(8)  # n in [2, 9]
        w = n - 1 + rng.below(4)  # W in [n - 1, n + 2]
        g = random_graph(rng, n, w, min(n * (n - 1), n - 1 + rng.below(2 * n)))
        for root in range(n):
            out = heuristic_construct(g, root)
            assert heuristic_construct(g, root) == out
            assert _local_search(g, root) == _local_search(g, root)
            if out.success:
                certified.add(f"graph {i} root {root}")
                assert verify_certificate(g, out.certificate)
                assert out.certificate.root == root
                assert brute_force_oracle(g, root=root) is not None
    assert certified > set(attach["sound"])
    for section, cases in (("small", small_cases), ("theorem-n200", theorem_n200_cases)):
        certified = {name for name, g, root in cases() if heuristic_construct(g, root).success}
        missed = sorted(set(attach[section]) - certified)
        assert not missed, f"{len(missed)} {section} cases missed, first {missed[:5]}"


def test_local_search_certificate_is_made_of_the_graphs_own_edges():
    graphs = [prefix_at_m(200, derive_trial_seed(1_000_000 + i, 0)) for i in range(4)]
    rng = SplitMix64(8088)
    for _ in range(100):
        n = 2 + rng.below(8)
        graphs.append(random_graph(rng, n, n + rng.below(4), rng.below(n * (n - 1) + 1)))
    certified = 0
    for g in graphs:
        for root in range(min(g.n, 3)):
            out = _local_search(g, root)
            if out is None or not out.success:
                continue
            certified += 1
            for v, e in out.certificate.parent_edge.items():
                assert any(x is e for x in g.in_edges[v])
    assert certified > 4


def test_hall_violations_skip_local_search(monkeypatch):
    def no_local_search(*args, **kwargs):
        raise AssertionError("local search ran")

    monkeypatch.setattr(rainbow, "_local_search", no_local_search)
    for n, w, edges, root in (
        (3, 3, [(0, 1, 0), (1, 0, 1)], 0),  # vertex 2 has no in-edge
        (4, 4, [(0, 1, 2), (0, 2, 2), (1, 3, 0), (2, 3, 1)], 0),  # 1 and 2 share colour 2
    ):
        g = graph_from_edges(n, w, edges)
        out = heuristic_construct(g, root)
        assert out == (None, "no injective colour assignment")
    # the root's own in-edge does not count
    g = graph_from_edges(3, 3, [(1, 0, 2), (0, 1, 2), (0, 2, 1)])
    with pytest.raises(AssertionError, match="local search ran"):
        heuristic_construct(g, 0)


def test_exact_and_auto_list_the_roots_once_and_search_after_the_constructor(monkeypatch):
    # One stage sequence: the candidate roots are listed once, the
    # constructor runs from the leading ones, and the exact search runs
    # only after every constructor attempt has failed.
    calls = []

    def counted(name, solver, succeeded):
        def call(*args):
            answer = solver(*args)
            calls.append((name, succeeded(answer)))
            return answer
        return call

    for name, succeeded in (("_candidate_roots", bool),
                            ("heuristic_construct", lambda outcome: outcome.success),
                            ("_exact_search", lambda cert: cert is not None)):
        monkeypatch.setattr(rainbow, name, counted(name, getattr(rainbow, name), succeeded))
    rng = SplitMix64(1729)
    seen = set()
    searches = 0
    for _ in range(100):
        n = 2 + rng.below(6)
        g = random_graph(rng, n, n - 1 + rng.below(4), min(n * (n - 1), n - 1 + rng.below(2 * n)))
        expected = "found" if brute_force_oracle(g) else "not_found"
        for mode in ("exact", "auto"):
            calls.clear()
            result = decide(g, mode=mode, budget_s=None)
            assert result.outcome == expected
            names = [name for name, _ in calls]
            assert names.count("_candidate_roots") == 1 and names[0] == "_candidate_roots"
            if "_exact_search" in names:
                searches += 1
                assert names[-1] == "_exact_search" and names.count("_exact_search") == 1
                assert calls[0][1] and names[1:-1] and not any(ok for _, ok in calls[1:-1])
            seen.add((result.outcome, result.decided_by))
    assert seen == {("found", "heuristic"), ("not_found", "exact")} and searches > 0


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
                if t != h and g.edge_colour(t, h) is None:
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
    assert g.zero_in_count == 0 and [len(es) for es in g.in_edges] == [3, 2, 3, 3, 2]
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


def test_no_candidate_root_is_a_two_sided_no_without_a_solver(monkeypatch):
    # heuristic, exact and auto answer from the empty candidate-root list
    # alone, with no heuristic attempt and no exact search
    def no_solver(*args, **kwargs):
        raise AssertionError("a solver ran without a candidate root")

    monkeypatch.setattr(rainbow, "heuristic_construct", no_solver)
    monkeypatch.setattr(rainbow, "_exact_search", no_solver)
    graphs = [
        graph_from_edges(4, 4, [(0, 2, 0), (1, 3, 1)]),  # two in-degree-zero vertices
        graph_from_edges(4, 2, [(0, 1, 0), (0, 2, 0), (0, 3, 1)]),  # two colours
        # n - 1 colours and one in-degree-zero vertex, 2, the only possible
        # root, but 1 and 4 take colours 2 and 4, the only ones into 0
        graph_from_edges(6, 5, [(5, 0, 2), (2, 5, 4), (1, 5, 0), (4, 3, 3),
                                (0, 4, 4), (2, 0, 4), (0, 1, 2), (2, 3, 1)]),
    ]
    for g in graphs:
        for root in (None, *range(g.n)):
            assert _candidate_roots(g, root) == []
            for mode in ("heuristic", "exact", "auto"):
                result = decide(g, mode=mode, root=root)
                assert (result.outcome, result.decided_by) == ("not_found", "exact")


def test_oracle_answers_too_few_colours_without_enumerating():
    # Every root of the complete digraph on 10 vertices has 9^9 in-edge
    # selections, beyond the default guard, but 8 colours cannot colour
    # the 9 edges of a spanning tree distinctly.
    g = ColouredDigraph(10, 8)
    for t in range(10):
        for h in range(10):
            if t != h:
                g.add_edge(ColouredEdge(t, h, (t + h) % 8))
    assert g.distinct_colours == 8
    assert brute_force_oracle(g, guard=1) is None
    assert decide(g, mode="oracle").outcome == "not_found"


RECHECK_UNDER_O = """
from arborsim import rainbow
from arborsim.digraph import ColouredDigraph, ColouredEdge

g = ColouredDigraph(3, 2)
g.add_edge(ColouredEdge(0, 1, 0))
g.add_edge(ColouredEdge(1, 2, 1))
rainbow.verify_certificate = lambda g, cert: False  # every check fails
solvers = [
    lambda: rainbow.decide(g, "heuristic"),  # local search
    lambda: rainbow.decide_exact(g),  # colour enumeration
    lambda: rainbow._search_root(g, 0, None),
]
for solve in solvers:
    try:
        print("returned", solve())
    except AssertionError as exc:
        print(exc)
"""


def test_certificates_are_rechecked_under_python_O():
    src = pathlib.Path(rainbow.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-O", "-c", RECHECK_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "local search produced an invalid certificate",
        "tree extraction produced an invalid certificate",
        "exact solver produced an invalid certificate",
    ]
