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
constructive heuristic runs once, at m_Z when C already holds there, from
the one vertex of in-degree zero, which is the only possible root, and
before any search for m_A. Its certificate spans, so its success settles
m_A = m_Z with no reachability pass, and m_R = m_Z in auto and exact
modes; in heuristic mode it is the answer.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from itertools import islice
from typing import NamedTuple

from arborsim.digraph import ColouredDigraph, ColouredEdge, has_spanning_arborescence
from arborsim.process import ProcessTrace
from arborsim.rainbow import MODES, BudgetExceededError, decide, decide_exact, heuristic_construct


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

    R needs C, so the heuristic runs once, at m_Z, only when m_C <= m_Z
    (on the grown graph itself, which then stops at m_Z), from its one
    vertex of in-degree zero, the only possible root; heuristic_at_z is
    its verdict. It runs before m_A is searched for: A needs Z, and a
    verified certificate is a spanning arborescence, so success gives
    m_A = m_Z, and only a failure, or C failing at m_Z, gallops for m_A.
    Heuristic mode stops there (m_r is m_z or unknown), since one-sided
    decisions cannot drive a sound search. Auto and exact stop on
    success, since a verified certificate at the lower bound m_Z is exact;
    else auto, exact and oracle gallop from max(m_A, m_C) with their own
    solver, the budget applying per rainbow decision. A probe at m_Z
    happens only after the constructor has failed there from the only
    possible root, so auto and exact probe it with decide_exact, which
    skips the constructor. Oracle, the brute-force reference, always
    searches.
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

    # R needs C; when m_C <= m_Z, g stopped growing at m_Z.
    at_z = (m_c is not None and m_c <= m_z
            and heuristic_construct(g, g.in_edges.index([])).success)
    # A verified certificate spans and A needs Z, so success settles m_A.
    m_a = m_z if at_z else gallop(m_z, total, lambda m: event_holds(graph(m), "A"))
    assert m_a is not None  # the complete digraph has a spanning arborescence

    if m_c is None:
        # Fewer than n-1 colours ever appear, so R never happens either.
        return HittingTimes(None, m_z, m_a, None, "exact", False)

    if r_mode == "heuristic":
        if at_z:
            return HittingTimes(m_c, m_z, m_a, m_z, "heuristic-certified", True)
        return HittingTimes(m_c, m_z, m_a, None, "unknown", False)
    if at_z and r_mode in ("auto", "exact"):  # a verified certificate at the lower bound
        return HittingTimes(m_c, m_z, m_a, m_z, "exact", True)

    def r_holds(m: int) -> bool:
        if m > m_z or r_mode == "oracle":
            return event_holds(graph(m), "R", r_mode, budget_s)
        # The constructor has just failed here from the only possible root.
        deadline = None if budget_s is None else time.monotonic() + budget_s
        return decide_exact(graph(m), deadline=deadline) is not None

    try:
        m_r = gallop(max(m_a, m_c), total, r_holds)
    except BudgetExceededError:
        return HittingTimes(m_c, m_z, m_a, None, "unknown", at_z)
    return HittingTimes(m_c, m_z, m_a, m_r, "exact", at_z)
