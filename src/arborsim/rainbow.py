"""Rainbow arborescence decisions: oracle, exact search, constructive heuristic.

A rainbow arborescence is a spanning rooted tree, all edges pointing away
from the root, whose n-1 edge colours are pairwise distinct. Deciding
existence mixes three one-per-vertex constraints (one in-edge per non-root
vertex, global acyclicity, distinct colours), so no polynomial algorithm is
known; the exact solver is a pruned backtracking search and the heuristic
is a fast one-sided constructor.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

from arborsim.digraph import ColouredDigraph, ColouredEdge, spanning_roots
from arborsim.matching import (
    assignment_roots,
    build_colour_bigraph,
    find_colour_assignment,
)


class OracleTooLargeError(RuntimeError):
    """The brute-force enumeration guard was exceeded; no answer is implied."""


class BudgetExceededError(RuntimeError):
    """A per-decision time budget ran out; the decision is unknown."""


@dataclass
class ArborescenceCertificate:
    root: int
    parent_edge: dict[int, ColouredEdge]  # v -> its in-edge, for every v != root


@dataclass
class HeuristicOutcome:
    """A heuristic attempt: a verified certificate, or why none was built.

    failure_reason is None on success, else "no injective colour
    assignment" or "unrepairable components" (see heuristic_construct).
    """

    certificate: ArborescenceCertificate | None
    failure_reason: str | None = None

    @property
    def success(self) -> bool:
        return self.certificate is not None


@dataclass
class DecideResult:
    outcome: str  # "found" | "not_found" | "unknown"
    certificate: ArborescenceCertificate | None = None
    decided_by: str = "exact"  # "oracle" | "exact" | "heuristic"


def _check_root(n: int, root: int | None) -> None:
    if root is not None and not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")


def verify_certificate(g: ColouredDigraph, cert: ArborescenceCertificate) -> bool:
    """Full O(n) validity check: edges present in g, spanning, acyclic, rainbow."""
    n = g.n
    root = cert.root
    if not 0 <= root < n:
        return False
    if set(cert.parent_edge) != set(range(n)) - {root}:
        return False
    for v, e in cert.parent_edge.items():
        if e.head != v or g.edge_colour(e.tail, e.head) != e.colour:
            return False
    return _is_rainbow_arborescence(n, root, cert.parent_edge.values())


def _is_rainbow_arborescence(n: int, root: int, choice: Iterable[ColouredEdge]) -> bool:
    """Whether one in-edge per non-root vertex has distinct colours and no cycle."""
    colours = set()
    for e in choice:
        if e.colour in colours:
            return False
        colours.add(e.colour)
    # Walk parent chains with memoisation; every vertex must reach the root.
    parent = {e.head: e.tail for e in choice}
    state = [0] * n  # 0 unvisited, 1 on current walk, 2 reaches root
    state[root] = 2
    for v in range(n):
        path = []
        u = v
        while state[u] == 0:
            state[u] = 1
            path.append(u)
            u = parent[u]
        if state[u] == 1:
            return False  # cycle
        for w in path:
            state[w] = 2
    return True


def brute_force_oracle(
    g: ColouredDigraph, guard: int = 10**7, root: int | None = None
) -> ArborescenceCertificate | None:
    """Exhaustive ground truth: every root, every in-edge selection.

    Raises OracleTooLargeError instead of ever guessing when the search
    space for some root exceeds `guard` and no certificate was found among
    the affordable roots.
    """
    from itertools import product

    n = g.n
    deferred = False
    roots = range(n) if root is None else [root]
    for root in roots:
        others = [v for v in range(n) if v != root]
        if any(not g.in_edges[v] for v in others):
            continue
        size = 1
        for v in others:
            size *= len(g.in_edges[v])
            if size > guard:
                break
        if size > guard:
            deferred = True
            continue
        for choice in product(*(g.in_edges[v] for v in others)):
            if _is_rainbow_arborescence(n, root, choice):
                return ArborescenceCertificate(root, {e.head: e for e in choice})
    if deferred:
        raise OracleTooLargeError(f"enumeration guard {guard} exceeded for some root")
    return None


def _candidate_roots(g: ColouredDigraph, root: int | None) -> list[int]:
    """Roots worth searching from, in increasing (in-degree, v) order.

    A root qualifies when it reaches every vertex (spanning_roots) and
    V \\ {root} has an injective colour assignment (assignment_roots, one
    maximum matching for every root at once). A given root is kept only if
    it qualifies. No other root carries a rainbow arborescence, so colour
    enumeration, backtracking and the heuristic (in decide) all start from
    these roots alone, and an empty list means there is none.
    """
    usable = assignment_roots(build_colour_bigraph(g)).intersection(spanning_roots(g))
    if root is not None:
        usable &= {root}
    return sorted(usable, key=lambda v: (g.in_deg[v], v))


def _search_root(g: ColouredDigraph, root: int, deadline: float | None) -> ArborescenceCertificate | None:
    """Backtracking search for a rainbow arborescence rooted at `root`.

    grow(tree, used, recheck) extends the partial tree (vertex bitmask) whose edges
    consumed the colours in `used`, branching on every frontier edge
    (tail inside, head outside, colour unused): scarcest heads first, by
    (admissible edge count, v), and each head's edges in in-edge order.
    A state fails when fewer unused colours enter the outside than it has
    vertices, or when some outside vertex is unreachable along
    unused-colour edges; the second also covers an outside vertex with no
    unused in-colour. Failed states are memoised by (tree, used), packed
    into one integer.

    The reachability pass is rerun only where it can fail. If a state
    passes it and a branch takes edge (t, v, c), the child loses only the
    colour-c edges. When every colour-c edge (., h) with h still outside
    leaves h a frontier edge (adm[h] > 0), every path survives: reroute it
    through the head of its last colour-c edge, which is inside the tree or
    one frontier edge from it. So the child passes too. take() reports
    whether some such h has adm[h] == 0, and grow's `recheck` flag reruns
    the pass only then (and at the root). The skip replaces a pass whose
    answer is known, so the nodes visited, the memo and the branch order
    are those of a search that reruns it everywhere.

    A node costs O(size of the taken colour class) integer operations when
    it skips the pass and O(n) when it reruns it, not a rescan of every
    edge: the search keeps the following for the current state, updates it
    when a branch takes edge (t, v, c) and undoes that exactly when the
    branch returns, touching only the edges of colour c and the edges at v.

    - heads_of[c], the number of outside vertices colour c enters, and
      `live`, the number of unused colours with heads_of[c] > 0;
    - adm[v], the number of frontier edges into outside v; `front`, the
      bitmask of outside vertices with adm[v] > 0; by_adm[a], the bitmask
      of outside vertices with adm[v] == a, which yields the branch order
      without sorting;
    - reach[t], the bitmask of heads t reaches by an unused colour, so
      reachability is a bitset BFS out of `front`.
    """
    n = g.n
    full = (1 << n) - 1
    # Colours are renumbered densely in order of first appearance, so the
    # memo's colour masks are as wide as the colours present, not as wide
    # as colour_count (3,347 at n = 200 by default).
    colours = list(dict.fromkeys([c for _, _, c in g.edges]))
    index = {c: k for k, c in enumerate(colours)}
    in_lists = [[(t, index[c]) for t, _, c in es] for es in g.in_edges]
    in_colours = [list({k for _, k in es}) for es in in_lists]
    heads_of = [0] * len(colours)
    colour_edges: list[list[tuple[int, int]]] = [[] for _ in colours]
    out_lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    reach = [0] * n
    for v, es in enumerate(in_lists):
        for k in in_colours[v]:
            heads_of[k] += 1
        for t, k in es:
            out_lists[t].append((v, k))
            colour_edges[k].append((t, v))
            reach[t] |= 1 << v
    for c in in_colours[root]:
        heads_of[c] -= 1
    live = len(heads_of) - heads_of.count(0)
    inside = bytearray(n)
    inside[root] = 1
    is_used = bytearray(len(colours))
    adm = [0] * n
    front = 0
    for h, _ in out_lists[root]:
        adm[h] = 1
        front |= 1 << h
    by_adm = [0] * (n + 1)
    by_adm[1] = front
    parent: dict[int, tuple[int, int]] = {}
    failed: set[int] = set()

    def take(v: int, c: int) -> bool:
        nonlocal live, front
        is_used[c] = 1
        live -= 1  # c enters v, which is still outside
        for t, h in colour_edges[c]:
            bit = 1 << h
            reach[t] ^= bit
            if inside[t] and not inside[h]:
                a = adm[h]
                by_adm[a] ^= bit
                adm[h] = a = a - 1
                if a:
                    by_adm[a] ^= bit
                else:
                    front ^= bit
        inside[v] = 1
        for k in in_colours[v]:
            heads_of[k] -= 1
            if not heads_of[k] and not is_used[k]:
                live -= 1
        if adm[v]:
            by_adm[adm[v]] ^= 1 << v
            front ^= 1 << v
        for h, k in out_lists[v]:
            if not inside[h] and not is_used[k]:
                bit = 1 << h
                a = adm[h]
                if a:
                    by_adm[a] ^= bit
                else:
                    front ^= bit
                adm[h] = a = a + 1
                by_adm[a] ^= bit
        for _, h in colour_edges[c]:
            if not (inside[h] or adm[h]):
                return True  # the child must rerun the reachability pass
        return False

    def untake(v: int, c: int) -> None:
        nonlocal live, front
        for h, k in out_lists[v]:
            if not inside[h] and not is_used[k]:
                bit = 1 << h
                a = adm[h]
                by_adm[a] ^= bit
                adm[h] = a = a - 1
                if a:
                    by_adm[a] ^= bit
                else:
                    front ^= bit
        if adm[v]:
            by_adm[adm[v]] ^= 1 << v
            front ^= 1 << v
        for k in in_colours[v]:
            if not heads_of[k] and not is_used[k]:
                live += 1
            heads_of[k] += 1
        inside[v] = 0
        for t, h in colour_edges[c]:
            bit = 1 << h
            reach[t] |= bit
            if inside[t] and not inside[h]:
                a = adm[h]
                if a:
                    by_adm[a] ^= bit
                else:
                    front ^= bit
                adm[h] = a = a + 1
                by_adm[a] ^= bit
        live += 1
        is_used[c] = 0

    def grow(tree: int, used: int, recheck: bool) -> bool:
        if tree == full:
            return True
        key = tree | used << n
        if key in failed:
            return False
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("exact search budget exhausted")
        if live < n - tree.bit_count():
            failed.add(key)
            return False
        if recheck:
            # Bitset BFS: the outside vertices reachable from the tree along
            # unused-colour edges, starting from those one frontier edge away.
            seen = tree | front
            todo = front
            while todo and seen != full:
                nxt = 0
                while todo:
                    low = todo & -todo
                    nxt |= reach[low.bit_length() - 1]
                    todo ^= low
                todo = nxt & ~seen
                seen |= todo
            if seen != full:
                failed.add(key)
                return False
        # Branching over every admissible frontier edge is complete: any
        # extension tree must leave the current vertex set through one of
        # them. Heads come in (adm, v) order, bucket by bucket and each
        # bucket in ascending v; every child restores the state, so a
        # bucket read after earlier children returned is as it was here.
        rest = front
        a = 0
        while rest:
            a += 1
            todo = by_adm[a]
            rest ^= todo
            while todo:
                vbit = todo & -todo
                todo ^= vbit
                v = vbit.bit_length() - 1
                for t, c in in_lists[v]:
                    if not inside[t] or is_used[c]:
                        continue
                    parent[v] = (t, c)
                    if grow(tree | vbit, used | (1 << c), take(v, c)):
                        return True
                    untake(v, c)
        failed.add(key)
        return False

    if not grow(1 << root, 0, True):
        return None
    edges = {v: ColouredEdge(t, v, colours[c]) for v, (t, c) in parent.items()}
    cert = ArborescenceCertificate(root, edges)
    assert verify_certificate(g, cert), "exact solver produced an invalid certificate"
    return cert


_COLOUR_COMBO_CAP = 2048


def _decide_by_colour_enumeration(
    g: ColouredDigraph, roots: list[int], deadline: float | None
) -> ArborescenceCertificate | None | str:
    """Exact decision for the few-collisions regime.

    A rainbow arborescence keeps at most one edge per colour, so fixing
    which single edge survives in every colour class of multiplicity >= 2
    and asking for any spanning arborescence among the surviving edges is
    an exact reduction. Each combination is tried with a BFS out-tree from
    each of `roots` in ascending order; the first that spans is returned.
    The number of combinations is the product of the class sizes; returns
    "inapplicable" when that exceeds the cap, read from the colour
    multiplicities before any edge is grouped.
    """
    from itertools import product

    combos = 1
    for k in g.colour_mult:
        if k > 1:
            combos *= k
            if combos > _COLOUR_COMBO_CAP:
                return "inapplicable"
    by_colour: dict[int, list[ColouredEdge]] = {}
    for e in g.edges:
        by_colour.setdefault(e.colour, []).append(e)
    single = [es[0] for es in by_colour.values() if len(es) == 1]
    multi = [es for es in by_colour.values() if len(es) > 1]
    n = g.n
    roots = sorted(roots)
    for selection in product(*multi):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("exact search budget exhausted")
        adjacency: list[list[ColouredEdge]] = [[] for _ in range(n)]
        for e in single + list(selection):
            adjacency[e.tail].append(e)
        for root in roots:
            parent: dict[int, ColouredEdge] = {}
            queue = [root]
            for t in queue:
                for e in adjacency[t]:
                    if e.head != root and e.head not in parent:
                        parent[e.head] = e
                        queue.append(e.head)
            if len(queue) == n:
                cert = ArborescenceCertificate(root, parent)
                assert verify_certificate(g, cert), "tree extraction produced an invalid certificate"
                return cert
    return None


def decide_exact(
    g: ColouredDigraph, root: int | None = None, deadline: float | None = None
) -> ArborescenceCertificate | None:
    """Sound and complete decision.

    Only candidate roots can carry a rainbow arborescence: those that reach
    every vertex and leave V \\ {root} an injective colour assignment (see
    _candidate_roots); a given root is searched only if it is one. Fewer
    than n - 1 colours leave no candidate root, and n = 1 leaves the root 0,
    whose certificate is empty. The roots are computed once, and both exact
    algorithms search from them alone. When few colours collide, colour
    enumeration fixes one surviving edge per colliding colour class and
    looks for a spanning out-tree from a candidate root among the
    survivors. Otherwise backtracking grows the
    tree outward from each candidate root in increasing (in-degree, v)
    order, branching on every frontier-crossing edge with an unused colour.
    Failed (vertex set, colour set) states are memoised: whether a partial
    tree extends to a spanning one depends only on which vertices it covers
    and which colours it has consumed, never on its internal shape. The
    search keeps per-vertex and per-colour counters and reachability
    bitmasks for the current state and updates them when a branch takes an
    edge, undoing the update when the branch returns. A child reruns the
    reachability pass only when the taken colour leaves some outside vertex
    it entered with no frontier edge; otherwise every path of its parent
    survives through that vertex's frontier edge. So a node costs
    O(size of the taken colour class) integer operations when it skips the
    pass and O(n) when it reruns it (see _search_root).
    """
    _check_root(g.n, root)
    roots = _candidate_roots(g, root)
    if not roots:
        return None
    outcome = _decide_by_colour_enumeration(g, roots, deadline)
    if outcome != "inapplicable":
        return outcome
    for r in roots:
        cert = _search_root(g, r, deadline)
        if cert is not None:
            return cert
    return None


def heuristic_construct(g: ColouredDigraph, root: int) -> HeuristicOutcome:
    """One-sided constructive attempt, fast at process scale.

    Pipeline: (1) find an injective colour assignment f on V \\ {root};
    (2) treat every colour outside the image of f as spare;
    (3) materialise one in-edge per vertex in colour f(v), preferring
    tails already connected to the root, which leaves the root's
    arborescence plus unicyclic leftover components; (4) grow the root
    component by re-pointing outside vertices at it through edges whose
    colour is spare and unconsumed, or is the colour the swap itself frees;
    a re-pointed vertex brings its whole subtree across, and a re-pointed
    cycle vertex brings its whole component (the cycle breaks there);
    (5) iterate to a fixpoint. Success returns a verified certificate;
    failure proves nothing. It fails with "no injective colour assignment"
    when step (1) finds none, and with "unrepairable components" when the
    fixpoint leaves some vertex outside the root component.
    """
    n = g.n
    bigraph = build_colour_bigraph(g)
    assignment = find_colour_assignment(bigraph, root)
    if assignment is None:
        return HeuristicOutcome(None, failure_reason="no injective colour assignment")
    f = assignment.mapping
    image = set(f.values())

    # Materialise: earliest in-edge in colour f(v) whose tail is already
    # connected to the root; repeat passes while the connected set grows.
    candidates: dict[int, list[ColouredEdge]] = {
        v: [e for e in g.in_edges[v] if e.colour == f[v]] for v in f
    }
    chosen: dict[int, ColouredEdge] = {}
    connected = {root}
    pending = set(f)
    progress = True
    while progress and pending:
        progress = False
        for v in sorted(pending):
            for e in candidates[v]:
                if e.tail in connected:
                    chosen[v] = e
                    connected.add(v)
                    pending.discard(v)
                    progress = True
                    break
    for v in pending:
        chosen[v] = candidates[v][0]

    used = {e.colour for e in chosen.values()}
    assert len(used) == n - 1

    children: list[list[int]] = [[] for _ in range(n)]
    for v, e in chosen.items():
        children[e.tail].append(v)

    in_root = set(connected)
    progress = True
    while progress and len(in_root) < n:
        progress = False
        for v in range(n):
            if v == root or v in in_root:
                continue
            own = chosen[v].colour
            taken = None
            for e in g.in_edges[v]:
                if e == chosen[v] or e.tail not in in_root:
                    continue
                c = e.colour
                if c == own or (c not in image and c not in used):
                    taken = e
                    break
            if taken is None:
                continue
            if taken.colour != own:
                used.discard(own)
                used.add(taken.colour)
            children[chosen[v].tail].remove(v)
            chosen[v] = taken
            children[taken.tail].append(v)
            stack = [v]
            while stack:
                u = stack.pop()
                if u in in_root:
                    continue
                in_root.add(u)
                stack.extend(children[u])
            progress = True

    if len(in_root) < n:
        return HeuristicOutcome(None, failure_reason="unrepairable components")
    cert = ArborescenceCertificate(root, dict(chosen))
    assert verify_certificate(g, cert), "heuristic produced an invalid certificate"
    return HeuristicOutcome(cert)


_HEURISTIC_TRIES = 3


def decide(
    g: ColouredDigraph,
    mode: str = "auto",
    root: int | None = None,
    budget_s: float | None = 10.0,
) -> DecideResult:
    """Unified entry point for the three solvers.

    oracle / exact are two-sided; heuristic is one-sided (not_found means
    "no certificate constructed"). heuristic and auto run the heuristic from
    the first _HEURISTIC_TRIES candidate roots, the ones the exact search
    would try first (see _candidate_roots), and skip it when there are
    none. auto uses it as a fast accept path and falls back to the exact
    search, so it stays two-sided.
    """
    if mode not in ("oracle", "exact", "heuristic", "auto"):
        raise ValueError(f"unknown decision mode {mode!r}")
    n = g.n
    _check_root(n, root)
    if g.zero_in_count >= 2:
        return DecideResult("not_found", decided_by="exact")
    if g.distinct_colours < n - 1:
        return DecideResult("not_found", decided_by="exact")

    if mode == "oracle":
        cert = brute_force_oracle(g, root=root)
        return DecideResult(
            "found" if cert else "not_found", cert, decided_by="oracle"
        )

    if mode in ("heuristic", "auto"):
        for r in _candidate_roots(g, root)[:_HEURISTIC_TRIES]:
            outcome = heuristic_construct(g, r)
            if outcome.success:
                return DecideResult("found", outcome.certificate, decided_by="heuristic")
        if mode == "heuristic":
            return DecideResult("not_found", decided_by="heuristic")

    deadline = None if budget_s is None else time.monotonic() + budget_s
    try:
        cert = decide_exact(g, root=root, deadline=deadline)
    except BudgetExceededError:
        return DecideResult("unknown", decided_by="exact")
    return DecideResult("found" if cert else "not_found", cert, decided_by="exact")
