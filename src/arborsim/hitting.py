"""Exact hitting times of the four monitored events along one trace.

Events on the m-edge prefix graph:
  C: at least n-1 distinct colours present,
  Z: at most one vertex of in-degree zero,
  A: a spanning arborescence exists,
  R: a rainbow spanning arborescence exists.

The prefix is streamed lazily, only as far as the search needs. C and Z are
read where the counters of one forward-grown graph cross. A and R are
monotone in m because a witness edge set persists under edge additions, so
their hitting times come from galloping (exponential) search upward on that
graph, then bisection of the last bracket. Every probe moves the one graph:
it pops edges to go down and re-adds them before it streams new ones to go
up, so no prefix edge is drawn twice or built into a second graph. Z and
A always happen; C and R can fail to ever happen, in which case their times
are reported as undefined (None) rather than clamped to the last step. The
constructive heuristic runs once, at m_Z, from the one vertex of in-degree
zero there, which is the only possible root; its success settles m_R = m_Z
in auto and exact modes; in heuristic mode it is the answer.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import NamedTuple

from arborsim.digraph import ColouredDigraph, ColouredEdge, has_spanning_arborescence
from arborsim.process import ProcessTrace
from arborsim.rainbow import MODES, BudgetExceededError, decide, heuristic_construct


class HittingTimes(NamedTuple):
    m_c: int | None
    m_z: int
    m_a: int
    m_r: int | None
    r_decision_mode: str  # "exact" | "heuristic-certified" | "unknown"
    heuristic_at_z: bool  # the constructive heuristic certifies R at m_Z


def event_holds(g: ColouredDigraph, event: str, mode: str = "auto",
                budget_s: float | None = None) -> bool:
    """Whether the event holds on g right now.

    For event R with a one-sided mode (heuristic), True carries a
    certificate but False only means "not found". A budget overrun in an
    exact mode raises BudgetExceededError.
    """
    if event == "C":
        return g.distinct_colours >= g.n - 1
    if event == "Z":
        return g.zero_in_count <= 1
    if event == "A":
        return has_spanning_arborescence(g)
    if event == "R":
        result = decide(g, mode=mode, budget_s=budget_s)
        if result.outcome == "unknown":
            raise BudgetExceededError("rainbow decision budget exhausted")
        return result.outcome == "found"
    raise ValueError(f"unknown event {event!r}, expected one of C, Z, A, R")


def gallop(lo: int, hi: int, pred) -> int | None:
    """Least m in [lo, hi] with pred(m) true, or None if pred(hi) is false.

    pred must be monotone. Exponential search (Bentley and Yao 1976): probe
    lo, lo+1, lo+3, lo+7, ... (capped at hi) in increasing order until pred
    holds, then bisect the last bracket. An answer at distance d above lo
    costs O(log d) probes, and no probe lies beyond twice that distance.
    """
    last_false = lo - 1
    m = lo
    step = 1
    while not pred(m):
        if m == hi:
            return None
        last_false = m
        m = min(hi, m + step)
        step *= 2
    # range(m)[i] == i, so the index bisect_left returns is the answer.
    return bisect_left(range(m), True, last_false + 1, key=pred)


def hitting_times(trace: ProcessTrace, r_mode: str = "auto",
                  budget_s: float | None = 10.0) -> HittingTimes:
    """Hitting times of all four events for one trace.

    The prefix is streamed lazily: one graph grows forward until the Z
    counter and (if it ever can) the C counter cross; m_A and m_R come from
    galloping upward on it, from m_Z and max(m_A, m_C), then bisecting the
    last bracket. Each of those probes is event_holds on that one graph,
    moved to the probed prefix by popping edges or adding them back.

    R needs C and A, so the heuristic runs once, at m_Z, only when
    max(m_A, m_C) = m_Z (on the grown graph itself), from its one vertex
    of in-degree zero, the only possible root; heuristic_at_z is its
    verdict. Heuristic mode stops there (m_r is m_z or unknown), since
    one-sided decisions cannot drive a sound search. Auto and exact stop on
    success, since a verified certificate at the lower bound m_Z is exact;
    else auto, exact and oracle gallop from max(m_A, m_C) with their own
    solver, the budget applying per rainbow decision. Oracle, the
    brute-force reference, always searches.
    """
    if r_mode not in MODES:
        raise ValueError(f"unknown r_mode {r_mode!r}, expected one of {MODES}")
    n = trace.n
    total = trace.total_edges
    need_colours = n - 1
    c_possible = trace.colour_count >= need_colours
    g = ColouredDigraph(n, trace.colour_count)
    edges = trace.prefix(total)

    m_c: int | None = None
    m_z: int | None = None
    for e in edges:
        g.add_edge(e)
        if m_c is None and g.distinct_colours >= need_colours:
            m_c = len(g)
        if m_z is None and g.zero_in_count <= 1:
            m_z = len(g)
        if m_z is not None and (m_c is not None or not c_possible):
            break
    assert m_z is not None  # n-1 distinct heads always occur by step N

    popped: list[ColouredEdge] = []  # the edges just above g, next one last

    def graph(m: int) -> ColouredDigraph:
        """g moved to the prefix graph at m: popped down, or grown back up."""
        while len(g) > m:
            popped.append(g.pop_edge())
        while len(g) < m and popped:
            g.add_edge(popped.pop())
        for e in islice(edges, m - len(g)):
            g.add_edge(e)
        return g

    m_a = gallop(m_z, total, lambda m: event_holds(graph(m), "A"))
    assert m_a is not None  # the complete digraph has a spanning arborescence

    if m_c is None:
        # Fewer than n-1 colours ever appear, so R never happens either.
        return HittingTimes(None, m_z, m_a, None, "exact", False)

    at_z = False
    if max(m_a, m_c) == m_z:
        h = graph(m_z)
        at_z = heuristic_construct(h, h.in_deg.index(0)).success
    if r_mode == "heuristic":
        if at_z:
            return HittingTimes(m_c, m_z, m_a, m_z, "heuristic-certified", True)
        return HittingTimes(m_c, m_z, m_a, None, "unknown", False)
    if at_z and r_mode in ("auto", "exact"):  # a verified certificate at the lower bound
        return HittingTimes(m_c, m_z, m_a, m_z, "exact", True)

    try:
        m_r = gallop(max(m_a, m_c), total,
                     lambda m: event_holds(graph(m), "R", r_mode, budget_s))
    except BudgetExceededError:
        return HittingTimes(m_c, m_z, m_a, None, "unknown", at_z)
    return HittingTimes(m_c, m_z, m_a, m_r, "exact", at_z)
