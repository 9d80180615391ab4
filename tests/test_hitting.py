import json
import pathlib

import pytest

from arborsim import hitting, rainbow
from arborsim.digraph import ColouredDigraph, has_spanning_arborescence
from arborsim.hitting import HittingTimes, event_holds, gallop, hitting_times
from arborsim.process import ProcessConfig, ProcessTrace, generate_trace
from arborsim.rainbow import MODES, brute_force_oracle, decide, heuristic_construct
from arborsim.rng import SplitMix64, derive_trial_seed
from helpers import graph_from_edges

GOLDEN = pathlib.Path(__file__).parent / "golden"


def linear_scan_hitting_times(trace):
    """Reference implementation: recompute every event on every prefix with
    the brute-force rainbow oracle."""
    edges = trace.materialize()
    m_c = m_z = m_a = m_r = None
    g = ColouredDigraph(trace.n, trace.colour_count)
    for m, e in enumerate(edges, start=1):
        g.add_edge(e)
        if m_c is None and g.distinct_colours >= trace.n - 1:
            m_c = m
        if m_z is None and g.zero_in_count <= 1:
            m_z = m
        if m_a is None and has_spanning_arborescence(g):
            m_a = m
        if m_r is None and brute_force_oracle(g) is not None:
            m_r = m
    return m_c, m_z, m_a, m_r


def event_scan_hitting_times(config, mode):
    """Reference implementation: the first prefix on which each event holds,
    found by asking event_holds on every prefix of a fresh trace, and
    whether the heuristic certifies R on the prefix at m_Z."""
    first = dict.fromkeys("CZAR")
    heuristic_at_z = None
    g = ColouredDigraph(config.n, config.resolved_colour_count)
    for m, e in enumerate(ProcessTrace(config).materialize(), start=1):
        g.add_edge(e)
        for event in "CZAR":
            if first[event] is None and event_holds(g, event, mode=mode, budget_s=None):
                first[event] = m
        if heuristic_at_z is None and first["Z"] is not None:
            heuristic_at_z = decide(g, mode="heuristic").outcome == "found"
    return HittingTimes(first["C"], first["Z"], first["A"], first["R"], "exact",
                        heuristic_at_z)


def gallop_first_hitting_times(trace, r_mode, budget_s=None):
    """Reference: m_A galloped first, then the heuristic at m_Z only when
    max(m_A, m_C) = m_Z, each probe on a prefix graph built afresh."""
    n, total = trace.n, trace.total_edges
    m_c = m_z = None
    g = ColouredDigraph(n, trace.colour_count)
    for m, e in enumerate(trace.prefix(total), start=1):
        g.add_edge(e)
        if m_c is None and g.distinct_colours >= n - 1:
            m_c = m
        if m_z is None and g.zero_in_count <= 1:
            m_z = m
        if m_z is not None and (m_c is not None or trace.colour_count < n - 1):
            break
    m_a = gallop(m_z, total, lambda m: has_spanning_arborescence(trace.graph_at(m)))
    if m_c is None:
        return HittingTimes(None, m_z, m_a, None, "exact", False)
    at_z = False
    if max(m_a, m_c) == m_z:
        h = trace.graph_at(m_z)
        at_z = heuristic_construct(h, h.in_edges.index([])).success
    if r_mode == "heuristic":
        if at_z:
            return HittingTimes(m_c, m_z, m_a, m_z, "heuristic-certified", True)
        return HittingTimes(m_c, m_z, m_a, None, "unknown", False)
    if at_z and r_mode != "oracle":
        return HittingTimes(m_c, m_z, m_a, m_z, "exact", True)
    m_r = gallop(max(m_a, m_c), total,
                 lambda m: event_holds(trace.graph_at(m), "R", r_mode, budget_s))
    return HittingTimes(m_c, m_z, m_a, m_r, "exact", at_z)


def test_event_holds_examples():
    g = graph_from_edges(2, 1, [(0, 1, 0)])
    assert all(event_holds(g, ev) for ev in "CZAR")

    g = graph_from_edges(3, 2, [(0, 1, 0), (0, 2, 0)])
    assert not event_holds(g, "C")
    assert event_holds(g, "Z")
    assert event_holds(g, "A")
    assert not event_holds(g, "R")

    g = graph_from_edges(3, 2, [(0, 1, 0), (0, 2, 1)])
    assert all(event_holds(g, ev) for ev in "CZAR")
    assert event_holds(g, "R", mode="oracle")
    with pytest.raises(ValueError):
        event_holds(g, "X")


def test_n2_all_events_at_first_edge():
    for seed in range(10):
        ht = hitting_times(generate_trace(ProcessConfig(2, 3, seed)))
        assert (ht.m_c, ht.m_z, ht.m_a, ht.m_r) == (1, 1, 1, 1)


def test_single_colour_never_enough():
    for seed in range(5):
        ht = hitting_times(generate_trace(ProcessConfig(3, 1, seed)))
        assert ht.m_c is None and ht.m_r is None
        assert ht.m_z is not None and ht.m_a is not None
        assert ht.r_decision_mode == "exact"


def test_bisection_equals_linear_scan():
    rng = SplitMix64(6060)
    for _ in range(60):
        n = 2 + rng.below(7)  # n in [2, 8]
        w = 1 + rng.below(2 * n)
        trace = generate_trace(ProcessConfig(n, w, rng.next_u64()))
        ht = hitting_times(trace, r_mode="oracle")
        assert (ht.m_c, ht.m_z, ht.m_a, ht.m_r) == linear_scan_hitting_times(trace)


def test_search_equals_event_scan_in_every_two_sided_mode():
    rng = SplitMix64(7272)
    configs = []
    for _ in range(80):
        n = 2 + rng.below(6)  # n in [2, 7]
        configs.append(ProcessConfig(n, 1 + rng.below(2 * n), rng.next_u64()))
    # C after Z, with R never happening even on the complete digraph
    configs += [ProcessConfig(4, 3, 1485), ProcessConfig(4, 3, 5555),
                ProcessConfig(4, 3, 2103)]
    for config in configs:
        for mode in ("exact", "auto", "oracle"):
            ht = hitting_times(ProcessTrace(config), r_mode=mode, budget_s=None)
            assert ht == event_scan_hitting_times(config, mode), (config, mode)


def test_constructor_first_equals_gallop_first():
    # the heuristic runs at m_Z before m_A is searched for; the answers are
    # those of galloping for m_A first
    rng = SplitMix64(9191)
    cases = []
    for _ in range(120):
        n = 2 + rng.below(7)  # n in [2, 8], small enough for the oracle
        w = max(1, n - 2 + rng.below(4))  # C never, C late (W = n - 1), or either
        cases.append((ProcessConfig(n, w, rng.next_u64()), MODES))
    # W = n - 1 puts m_C after m_Z; heuristic mode reads m_A and stops
    # before the rainbow search, which an exact solver may not finish here
    cases += [(ProcessConfig(n, n - 1, seed), ("heuristic",))
              for n in (30, 60) for seed in range(4)]
    # theorem-n200 seed-1 input 7: the in-degree-zero vertex at m_Z spans nothing
    cases.append((ProcessConfig(200, "auto", derive_trial_seed(1_000_007, 0)),
                  ("auto", "exact", "heuristic")))
    kinds = set()
    for config, modes in cases:
        for mode in modes:
            ht = hitting_times(ProcessTrace(config), r_mode=mode, budget_s=None)
            assert ht == gallop_first_hitting_times(ProcessTrace(config), mode), (config, mode)
            if ht.heuristic_at_z:
                assert ht.m_a == ht.m_z
            if ht.m_c is None:
                kinds.add("C never")
            elif ht.m_c > ht.m_z:
                kinds.add("C after Z")
            elif ht.m_a > ht.m_z:
                kinds.add("z spans nothing at m_Z")
            else:
                kinds.add("heuristic certifies" if ht.heuristic_at_z else "heuristic fails")
    assert kinds == {"C never", "C after Z", "z spans nothing at m_Z",
                     "heuristic certifies", "heuristic fails"}


def test_constructor_runs_once_at_m_z_where_it_fails(monkeypatch):
    # m_C <= m_Z = m_A, and the constructor fails at m_Z from the one
    # in-degree-zero vertex, so the R gallop probes m_Z. That probe runs
    # the exact search alone, in auto and in exact mode. R fails at m_Z on
    # the first trace and holds there on the second.
    for config, m_z, m_r in ((ProcessConfig(5, 5, 8), 6, 13),
                             (ProcessConfig(6, 5, 3656), 11, 11)):
        for mode in ("auto", "exact"):
            expected = gallop_first_hitting_times(ProcessTrace(config), mode)
            sizes = []

            def counted(g, root):
                sizes.append(len(g))
                return heuristic_construct(g, root)

            with monkeypatch.context() as m:
                for module in (rainbow, hitting):
                    m.setattr(module, "heuristic_construct", counted)
                ht = hitting_times(ProcessTrace(config), r_mode=mode, budget_s=None)
            assert ht == expected, (config, mode)
            assert ht.m_c <= ht.m_z == ht.m_a == m_z and not ht.heuristic_at_z
            assert ht.m_r == m_r
            assert sizes.count(m_z) == 1, (config, mode, sizes)


def test_gallop_finds_least_true_with_few_nearby_probes():
    for lo, hi in ((0, 0), (5, 5), (3, 4), (1, 40), (7, 200)):
        for threshold in range(lo, hi + 2):
            probes = []

            def pred(m):
                probes.append(m)
                return m >= threshold

            expected = threshold if threshold <= hi else None
            assert gallop(lo, hi, pred) == expected
            assert all(lo <= m <= hi for m in probes)
            distance = min(threshold, hi) - lo
            # upward probes stop within twice the distance to the answer
            assert max(probes) <= lo + 2 * distance
            assert len(probes) <= 2 * distance.bit_length() + 2
            if distance == 0:
                assert probes == [lo]


def _reference_gallop(lo, hi, pred):
    """gallop with its bisection written out by hand."""
    last_false, m, step = lo - 1, lo, 1
    while not pred(m):
        if m == hi:
            return None
        last_false, m, step = m, min(hi, m + step), step * 2
    lo, hi = last_false + 1, m
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_gallop_probes_match_a_hand_written_bisection():
    for lo in range(12):
        for hi in range(lo, 80):
            for threshold in range(lo, hi + 2):
                runs = []
                for search in (gallop, _reference_gallop):
                    probes = []

                    def pred(m):
                        probes.append(m)
                        return m >= threshold

                    runs.append((search(lo, hi, pred), probes))
                assert runs[0] == runs[1], (lo, hi, threshold)


class CountingTrace(ProcessTrace):
    """A trace that counts the edges pulled through prefix()."""

    def __init__(self, config):
        super().__init__(config)
        self.streamed = 0

    def prefix(self, m):
        for e in super().prefix(m):
            self.streamed += 1
            yield e


def test_hitting_times_streams_a_short_prefix():
    trace = CountingTrace(ProcessConfig(1000, "auto", derive_trial_seed(3, 0)))
    ht = hitting_times(trace)
    assert ht.m_r is not None and ht.r_decision_mode == "exact"
    assert trace.streamed >= max(ht.m_c, ht.m_z, ht.m_a, ht.m_r)
    assert trace.streamed < trace.total_edges // 50


def test_hitting_times_adds_each_streamed_edge_about_once(monkeypatch):
    # Two trials whose bisections for m_A probe far below the grown graph.
    calls = 0
    add_edge = ColouredDigraph.add_edge

    def counting_add_edge(g, e):
        nonlocal calls
        calls += 1
        add_edge(g, e)

    monkeypatch.setattr(ColouredDigraph, "add_edge", counting_add_edge)
    for master_seed, times in ((1_000_007, (210, 1225, 1619, 1619)),
                               (1_000_091, (203, 1007, 1135, 1135))):
        calls = 0
        trace = CountingTrace(ProcessConfig(200, "auto", derive_trial_seed(master_seed, 0)))
        ht = hitting_times(trace)
        assert (ht.m_c, ht.m_z, ht.m_a, ht.m_r) == times
        assert calls <= 2 * trace.streamed, (calls, trace.streamed)


def test_exact_mode_keeps_the_certificate_found_at_m_z():
    # The backtracking search spends any budget at m_Z on this graph, where
    # the heuristic builds a rainbow arborescence at once.
    trace = ProcessTrace(ProcessConfig(200, "auto", 593811783419356995))
    ht = hitting_times(trace, "exact", budget_s=0.5)
    assert ht.m_r == ht.m_z == 771
    assert ht.r_decision_mode == "exact" and ht.heuristic_at_z


def test_ordering_chain():
    rng = SplitMix64(8181)
    for trial in range(500):
        n = 2 + rng.below(29)
        trace = generate_trace(ProcessConfig(n, "auto", derive_trial_seed(4, trial)))
        ht = hitting_times(trace)
        assert ht.m_z <= ht.m_a
        if ht.m_r is not None:
            assert ht.m_c is not None
            assert ht.m_r >= ht.m_a and ht.m_r >= ht.m_c


def test_exactly_one_or_zero_indegree_zero_at_m_z():
    rng = SplitMix64(123)
    for trial in range(100):
        n = 2 + rng.below(19)
        trace = generate_trace(ProcessConfig(n, "auto", derive_trial_seed(8, trial)))
        ht = hitting_times(trace)
        g = trace.graph_at(ht.m_z)
        assert g.zero_in_count <= 1
        if ht.m_z > 1:
            before = trace.graph_at(ht.m_z - 1)
            assert before.zero_in_count > 1


def test_heuristic_mode_is_one_sided():
    rng = SplitMix64(3131)
    certified = unknown = 0
    for trial in range(100):
        n = 5 + rng.below(20)
        trace = generate_trace(ProcessConfig(n, "auto", derive_trial_seed(12, trial)))
        ht = hitting_times(trace, r_mode="heuristic")
        assert ht.heuristic_at_z == (ht.r_decision_mode == "heuristic-certified")
        if ht.r_decision_mode == "heuristic-certified":
            certified += 1
            assert ht.m_r == ht.m_z
        else:
            assert ht.r_decision_mode == "unknown"
            assert ht.m_r is None
            unknown += 1
    assert certified > 0


def test_heuristic_at_z_is_decide_at_m_z_in_every_mode():
    # hitting_times starts the heuristic at the one in-degree-zero vertex
    # instead of calling decide; at m_Z that is the only candidate root
    rng = SplitMix64(4242)
    verdicts = set()
    for trial in range(80):
        n = 2 + rng.below(6)  # n in [2, 7], small enough for the oracle
        w = n - 1 + rng.below(n + 1)
        trace = ProcessTrace(ProcessConfig(n, w, derive_trial_seed(16, trial)))
        for mode in MODES:
            ht = hitting_times(trace, r_mode=mode, budget_s=None)
            expected = decide(trace.graph_at(ht.m_z), "heuristic").outcome == "found"
            if ht.m_c is not None and max(ht.m_a, ht.m_c) == ht.m_z:
                assert ht.heuristic_at_z == expected, (n, w, trial, mode)
                verdicts.add(expected)
            else:  # C or A fails at m_Z, so R does too
                assert not ht.heuristic_at_z and not expected
    assert verdicts == {True, False}


def test_golden_hitting_times_validated_by_oracle():
    golden = json.loads((GOLDEN / "hitting_n4.json").read_text())
    cfg = ProcessConfig(golden["n"], golden["colour_count"], golden["seed"])
    trace = generate_trace(cfg)
    ht = hitting_times(trace, r_mode="oracle")
    assert (ht.m_c, ht.m_z, ht.m_a, ht.m_r) == (
        golden["m_C"], golden["m_Z"], golden["m_A"], golden["m_R"])
    # independent per-prefix recomputation agrees with the frozen values
    assert linear_scan_hitting_times(trace) == (
        golden["m_C"], golden["m_Z"], golden["m_A"], golden["m_R"])


def test_rejects_unknown_mode():
    trace = generate_trace(ProcessConfig(3, 2, 0))
    with pytest.raises(ValueError):
        hitting_times(trace, r_mode="guess")
