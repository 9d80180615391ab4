"""Rainbow arborescence decisions: oracle, exact search, constructive heuristic.

A rainbow arborescence is a spanning rooted tree, all edges pointing away
from the root, whose n-1 edge colours are pairwise distinct. Deciding
existence mixes three one-per-vertex constraints (one in-edge per non-root
vertex, global acyclicity, distinct colours), so no polynomial algorithm is
known; the exact solver is a pruned backtracking search and the heuristic
is a fast one-sided constructor.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterable
from itertools import product
from typing import NamedTuple

from arborsim.digraph import ColouredDigraph, ColouredEdge, _check_root, forward_closure, spanning_roots
from arborsim.matching import (
    assignment_roots,
    build_colour_bigraph,
    find_colour_assignment,
)
from arborsim.rng import LOCAL_SEARCH_STREAM, below_stream, derive_stream_seed

# The decision modes of decide; hitting_times and the CLI take the same names.
MODES = ("oracle", "exact", "heuristic", "auto")


class OracleTooLargeError(RuntimeError):
    """The brute-force enumeration guard was exceeded; no answer is implied."""


class BudgetExceededError(RuntimeError):
    """A per-decision time budget ran out; the decision is unknown."""


class ArborescenceCertificate(NamedTuple):
    root: int
    parent_edge: dict[int, ColouredEdge]  # v -> its in-edge, for every v != root


class HeuristicOutcome(NamedTuple):
    """A heuristic attempt: a verified certificate, or why none was built.

    failure_reason is None on success, else "no injective colour
    assignment" or "unrepairable components" (see _attach_construct).
    """

    certificate: ArborescenceCertificate | None
    failure_reason: str | None = None

    @property
    def success(self) -> bool:
        return self.certificate is not None


class DecideResult(NamedTuple):
    outcome: str  # "found" | "not_found" | "unknown"
    certificate: ArborescenceCertificate | None = None
    decided_by: str = "exact"  # "oracle" | "exact" | "heuristic"


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


def _verified(g: ColouredDigraph, cert: ArborescenceCertificate, solver: str) -> ArborescenceCertificate:
    """cert after verify_certificate accepts it; AssertionError, also under -O, if not."""
    if not verify_certificate(g, cert):
        raise AssertionError(f"{solver} produced an invalid certificate")
    return cert


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

    It uses no root-selection rule, so it checks that rule independently.
    A given root must be a vertex (ValueError otherwise) and is the only
    one tried. Fewer than n - 1 colours answer None at once, and a root is
    skipped when some other vertex has no in-edge, so two in-degree-zero
    vertices skip every root. Raises OracleTooLargeError instead of ever
    guessing when the search space for some root exceeds `guard` and no
    certificate was found among the affordable roots.
    """
    n = g.n
    if root is not None:
        _check_root(n, root)
    if g.distinct_colours < n - 1:
        return None
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
    maximum matching for every root at once). A given root must be a vertex
    (ValueError otherwise) and is kept only if it qualifies. No other root
    carries a rainbow arborescence, so colour enumeration, backtracking and
    the heuristic (in decide) all start from these roots alone, and an
    empty list means there is none.
    """
    usable = assignment_roots(build_colour_bigraph(g)).intersection(spanning_roots(g))
    if root is not None:
        _check_root(g.n, root)
        usable &= {root}
    return sorted(usable, key=lambda v: (len(g.in_edges[v]), v))


def _search_root(g: ColouredDigraph, root: int, deadline: float | None) -> ArborescenceCertificate | None:
    """Backtracking search for a rainbow arborescence rooted at `root`.

    grow(tree, used, cut) extends the partial tree (vertex bitmask) whose
    edges consumed the colours in `used`, branching on every frontier edge
    (tail inside, head outside, colour unused): scarcest heads first, by
    (admissible edge count, v), and each head's edges in in-edge order.
    A state fails when fewer unused colours enter the outside than it has
    vertices, or when some outside vertex is unreachable along
    unused-colour edges; the second also covers an outside vertex with no
    unused in-colour. Failed states are memoised by (tree, used), packed
    into one integer: whether a partial tree extends to a spanning one
    depends only on the vertices it covers and the colours it consumed,
    never on its internal shape.

    Reachability is checked in full only at the root state, where no colour
    is used yet, so it is plain reachability from the root. Below it, a
    state passed and a branch took edge (t, v, c), so the child lost only
    the colour-c edges. On any old path to an outside vertex w, take the
    last colour-c edge (s, h): the rest of the path after h still exists,
    so w is reachable if and only if h is. A head h inside the tree or one
    frontier edge from it (adm[h] > 0) is reachable; take() returns the
    other outside heads of colour-c edges, the cut vertices (usually none),
    and grow checks each by a backward search along unused-colour edges
    until it meets the tree. That is the answer of a full pass, so the
    nodes visited, the memo and the branch order are those of a search
    that reruns the pass everywhere.

    A node costs O(size of the taken colour class + degree of v) integer
    operations, plus one backward search per cut vertex, which visits at
    most the outside vertices and their in-edges and usually stops within
    a step or two. The search keeps the following for the current state,
    updates it when a branch takes edge (t, v, c) and undoes that exactly
    when the branch returns, touching only the edges of colour c and the
    edges at v. take() spends colour c and then enter(v) moves v inside;
    the root enters the same way before the first node, and untake() is
    the inline inverse of both.

    - heads_of[c], the number of colour-c edges into outside vertices, less
      `spent` (more than any count) while c is used, so a used colour's
      entry is negative and an unused colour that enters some outside
      vertex has a positive one; and `live`, the number of unused colours
      with heads_of[c] > 0, so the colours that enter some outside vertex;
    - adm[v], the number of frontier edges into outside v, and by_adm[a],
      the bitmask of outside vertices with adm[v] == a. Bucket 0 holds the
      outside vertices with no frontier edge, so the frontier heads are
      the outside less bucket 0, and the buckets from 1 up yield the
      branch order without sorting. Every change of adm[v] moves v's bit
      from one bucket to the next.

    The tables are the graph's own where they can be. In-edges are
    g.in_edges, whose process order fixes the branch order and so the
    nodes visited and the certificate, and out-edges are g.out_edges, the
    same ColouredEdge objects, read as they are. One pass over g.edges
    files each edge under its colour in colour_edges; take(), enter() and
    untake() read these tables, and their updates do not depend on the
    order. heads_of and `live` start from g.colour_mult and
    g.distinct_colours, and `parent` maps each tree vertex to its chosen
    edge, one of g's own, and becomes the certificate. Only the memo's
    colour masks renumber the colours, densely in order of first
    appearance. Everything the search builds is freed when it returns.
    """
    n = g.n
    full = (1 << n) - 1
    in_edges = g.in_edges
    out_edges = g.out_edges
    colour_edges: dict[int, list[ColouredEdge]] = {}
    # Edges are indexed, not unpacked, on every path a node takes: CPython
    # unpacks a NamedTuple through an iterator, about 1.4x the cost.
    for e in g.edges:
        es = colour_edges.get(e[2])
        if es is None:
            colour_edges[e[2]] = [e]
        else:
            es.append(e)
    # Dense numbering keeps the memo's colour masks as wide as the colours
    # present, not as wide as colour_count (3,347 at n = 200 by default).
    colour_bit = {c: 1 << k for k, c in enumerate(colour_edges)}
    # The only list as long as colour_count, like colour_mult itself.
    heads_of = g.colour_mult.copy()
    live = g.distinct_colours
    spent = len(g.edges) + 1  # marks a used colour in heads_of, see above
    inside = bytearray(n)
    adm = [0] * n
    by_adm = [0] * (n + 1)
    by_adm[0] = full
    parent: dict[int, ColouredEdge] = {}
    failed: set[int] = set()

    def enter(v: int) -> None:
        nonlocal live
        inside[v] = 1
        by_adm[adm[v]] ^= 1 << v
        for e in in_edges[v]:
            k = e[2]
            heads_of[k] -= 1
            if not heads_of[k]:
                live -= 1
        for e in out_edges[v]:
            h = e[1]
            if not inside[h] and heads_of[e[2]] > 0:
                bit = 1 << h
                a = adm[h]
                by_adm[a] ^= bit
                adm[h] = a = a + 1
                by_adm[a] ^= bit

    def take(v: int, c: int) -> list[int]:
        nonlocal live
        heads_of[c] -= spent
        live -= 1  # c enters v, which is still outside
        taken = colour_edges[c]
        for e in taken:
            t = e[0]
            h = e[1]
            if inside[t] and not inside[h]:
                bit = 1 << h
                a = adm[h]
                by_adm[a] ^= bit
                adm[h] = a = a - 1
                by_adm[a] ^= bit
        enter(v)
        return [e[1] for e in taken if not (inside[e[1]] or adm[e[1]])]

    def untake(v: int, c: int) -> None:
        nonlocal live
        for e in out_edges[v]:
            h = e[1]
            if not inside[h] and heads_of[e[2]] > 0:
                bit = 1 << h
                a = adm[h]
                by_adm[a] ^= bit
                adm[h] = a = a - 1
                by_adm[a] ^= bit
        by_adm[adm[v]] ^= 1 << v
        for e in in_edges[v]:
            k = e[2]
            if not heads_of[k]:
                live += 1
            heads_of[k] += 1
        inside[v] = 0
        for e in colour_edges[c]:
            t = e[0]
            h = e[1]
            if inside[t] and not inside[h]:
                bit = 1 << h
                a = adm[h]
                by_adm[a] ^= bit
                adm[h] = a = a + 1
                by_adm[a] ^= bit
        live += 1
        heads_of[c] += spent

    def reached(h: int) -> bool:
        """Whether outside h is reachable from the tree along unused-colour edges."""
        seen = {h}
        todo = [h]
        for x in todo:
            for e in in_edges[x]:
                t = e[0]
                if heads_of[e[2]] > 0 and t not in seen:
                    if inside[t]:
                        return True
                    seen.add(t)
                    todo.append(t)
        return False

    def grow(tree: int, used: int, cut: list[int] | None) -> bool:
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
        if cut is None:  # the root state
            if len(forward_closure(out_edges, (root,))) < n:
                failed.add(key)
                return False
        elif cut and not all(map(reached, cut)):
            failed.add(key)
            return False
        # Branching over every admissible frontier edge is complete: any
        # extension tree must leave the current vertex set through one of
        # them. Heads come in (adm, v) order, bucket by bucket and each
        # bucket in ascending v; every child restores the state, so a
        # bucket read after earlier children returned is as it was here.
        rest = full ^ tree ^ by_adm[0]
        a = 0
        while rest:
            a += 1
            todo = by_adm[a]
            rest ^= todo
            while todo:
                vbit = todo & -todo
                todo ^= vbit
                v = vbit.bit_length() - 1
                for e in in_edges[v]:
                    t = e[0]
                    c = e[2]
                    if not inside[t] or heads_of[c] < 0:
                        continue
                    parent[v] = e
                    if grow(tree | vbit, used | colour_bit[c], take(v, c)):
                        return True
                    untake(v, c)
        failed.add(key)
        return False

    enter(root)
    # grow recurses once per tree vertex, so n in the thousands needs more
    # than the default limit of 1,000 frames.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        if not grow(1 << root, 0, None):
            return None
    finally:
        sys.setrecursionlimit(limit)
        # grow reaches itself through its closure; without this the search
        # state stays in memory until the cyclic collector runs.
        del grow
    return _verified(g, ArborescenceCertificate(root, parent), "exact solver")


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
                return _verified(g, ArborescenceCertificate(root, parent), "tree extraction")
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
    survivors. Otherwise backtracking (_search_root) grows the tree outward
    from each candidate root in increasing (in-degree, v) order, branching
    on every frontier-crossing edge with an unused colour and memoising
    failed (vertex set, colour set) states; its docstring gives the state
    the search keeps, its prunes and their cost.
    """
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


def _attach(inside: set[int], in_edges, f: dict[int, int], blocked: set[int],
            chosen: dict[int, ColouredEdge], children: list[list[int]]) -> None:
    """Grow the root's component `inside` by passes until one adds nothing.

    A pass visits the outside vertices in ascending order. Vertex v takes
    the first edge of in_edges[v] whose tail is inside and whose colour is
    f(v) or a spare colour not in `blocked`, which it then blocks; v
    brings its `children` subtree inside with it.
    """
    n = len(children)
    progress = True
    while progress and len(inside) < n:
        progress = False
        for v in range(n):
            if v in inside:
                continue
            for e in in_edges[v]:
                if e.tail in inside and (e.colour == f[v] or e.colour not in blocked):
                    chosen[v] = e
                    blocked.add(e.colour)
                    stack = [v]
                    while stack:
                        u = stack.pop()
                        if u not in inside:
                            inside.add(u)
                            stack.extend(children[u])
                    progress = True
                    break


def _attach_construct(g: ColouredDigraph, root: int) -> HeuristicOutcome:
    """The attach construction, heuristic_construct's fallback after local search.

    It finds an injective colour assignment f on V \\ {root}; the colours
    outside f's image are spare. Then one attach rule (_attach) grows the
    root's component, run twice: an outside vertex takes its first in-edge
    from inside whose colour is f(v) or an unspent spare, and brings the
    vertices hanging below it along. The first run offers each vertex only
    its f(v)-coloured in-edges. Each vertex still outside then hangs on its
    first f(v)-coloured in-edge, which leaves unicyclic components outside
    the root's. The second run offers every in-edge: a vertex that attaches
    brings its subtree across, and a cycle vertex its whole component (the
    cycle breaks there). Success returns a verified certificate; failure
    proves nothing. It fails with "no injective colour assignment" when f
    does not exist, and with "unrepairable components" when the second run
    leaves some vertex outside.
    """
    assignment = find_colour_assignment(build_colour_bigraph(g), root)
    if assignment is None:
        return HeuristicOutcome(None, failure_reason="no injective colour assignment")
    f = assignment.mapping
    own = {v: [e for e in g.in_edges[v] if e.colour == f[v]] for v in f}
    blocked = set(f.values())  # f's image, then every spare colour spent
    chosen: dict[int, ColouredEdge] = {}
    children: list[list[int]] = [[] for _ in range(g.n)]
    inside = {root}
    _attach(inside, own, f, blocked, chosen, children)
    for v in f:
        if v not in inside:
            chosen[v] = own[v][0]
            children[own[v][0].tail].append(v)
    _attach(inside, g.in_edges, f, blocked, chosen, children)
    if len(inside) < g.n:
        return HeuristicOutcome(None, failure_reason="unrepairable components")
    return HeuristicOutcome(_verified(g, ArborescenceCertificate(root, chosen), "heuristic"))


# Local search gives up after this many steps per vertex; a step count, so
# its answers never depend on the machine's speed.
_LOCAL_SEARCH_STEPS = 10
# One step in this many takes a random move instead of a least-conflict one.
_LOCAL_SEARCH_NOISE = 5
_LOCAL_SEARCH_SEED = derive_stream_seed(0, LOCAL_SEARCH_STREAM)


def _local_search(g: ColouredDigraph, root: int) -> ArborescenceCertificate | None:
    """Min-conflicts repair of a spanning out-tree into a rainbow one, or None.

    The state is one parent edge per non-root vertex, always a spanning
    arborescence, starting from the root's BFS out-tree over g.out_edges; a
    vertex is conflicted while another vertex's parent edge has its colour.
    Each step picks a conflicted vertex v uniformly (Minton, Johnston,
    Philips and Laird 1992). Its moves are its other in-edges whose tail is
    not in v's subtree, which a walk up the tail's parent chain tests. One
    step in _LOCAL_SEARCH_NOISE takes a random move, as WalkSAT does
    (Selman, Kautz and Cohen 1994); the others take a random one of the
    moves to a colour no vertex holds, which lower the conflict count, or
    any move when there is none. The holders of each colour and the
    conflicted vertices, in a list with each vertex's slot in it, are
    updated per move, so a step costs the in-degree of v times the depth of
    the tree. Draws come from one fixed SplitMix64 substream, so the same
    graph and root give the same answer. Every parent edge is one of g's
    own edge objects, so the certificate is made of them. It stops with a
    verified certificate when nothing is conflicted, or with None when the
    root reaches too few vertices or _LOCAL_SEARCH_STEPS * n steps have
    run.
    """
    n = g.n
    par = [-1] * n  # v's parent, for the walks up the tree
    edge: list[ColouredEdge | None] = [None] * n  # v's parent edge
    par[root] = root
    tree = [root]
    for t in tree:
        for e in g.out_edges[t]:
            h = e[1]
            if par[h] < 0:
                par[h] = t
                edge[h] = e
                tree.append(h)
    if len(tree) < n:
        return None
    holders: dict[int, list[int]] = {}  # colour -> the vertices it enters; never empty
    for v in tree[1:]:
        holders.setdefault(edge[v][2], []).append(v)
    conflicted: list[int] = []
    slot = [-1] * n  # v's index in conflicted, or -1

    def mark(v: int) -> None:
        slot[v] = len(conflicted)
        conflicted.append(v)

    def unmark(v: int) -> None:
        last = conflicted.pop()
        if last != v:
            conflicted[slot[v]] = last
            slot[last] = slot[v]
        slot[v] = -1

    for vs in holders.values():
        if len(vs) > 1:
            for v in vs:
                mark(v)
    # Full 64-bit draws, scaled to [0, k) by k * z >> 64.
    draws = below_stream(_LOCAL_SEARCH_SEED, 1 << 64)
    steps = _LOCAL_SEARCH_STEPS * n
    while conflicted:
        if not steps:
            return None
        steps -= 1
        v = conflicted[next(draws) * len(conflicted) >> 64]
        moves = []
        for e in g.in_edges[v]:
            u = e[0]
            if u == par[v]:
                continue
            while u != root and u != v:
                u = par[u]
            if u == root:
                moves.append(e)
        if not moves:
            continue
        if next(draws) * _LOCAL_SEARCH_NOISE >> 64:
            moves = [e for e in moves if e[2] not in holders] or moves
        e = moves[next(draws) * len(moves) >> 64]
        vs = holders[edge[v][2]]  # v is conflicted, so vs keeps another vertex
        vs.remove(v)
        if len(vs) == 1:
            unmark(vs[0])
        par[v] = e[0]
        edge[v] = e
        vs = holders.setdefault(e[2], [])
        vs.append(v)
        if len(vs) == 1:
            unmark(v)
        elif len(vs) == 2:
            mark(vs[0])
    parent_edge = {v: edge[v] for v in tree[1:]}
    return _verified(g, ArborescenceCertificate(root, parent_edge), "local search")


def heuristic_construct(g: ColouredDigraph, root: int) -> HeuristicOutcome:
    """One-sided constructive attempt, fast at process scale.

    First one look over the non-root vertices of in-degree at most 1
    tests Hall's condition on sets of one or two of them: a vertex with no
    in-edge, or two whose only in-edges share a colour, leave V \\ {root}
    no injective colour assignment, so no rainbow arborescence, and the
    answer is attach's failure reason at once. Otherwise local search
    (_local_search) runs. When it gives up, the attach construction
    (_attach_construct) runs, and its certificate or failure reason is the
    answer, so this never misses a certificate that attach alone would
    build. Success returns a verified certificate; failure proves nothing.
    """
    _check_root(g.n, root)
    lone = [es for v, es in enumerate(g.in_edges) if len(es) < 2 and v != root]
    if not all(lone) or len({es[0][2] for es in lone}) < len(lone):
        return HeuristicOutcome(None, failure_reason="no injective colour assignment")
    cert = _local_search(g, root)
    if cert is not None:
        return HeuristicOutcome(cert)
    return _attach_construct(g, root)


_HEURISTIC_TRIES = 3


def decide(
    g: ColouredDigraph,
    mode: str = "auto",
    root: int | None = None,
    budget_s: float | None = 10.0,
) -> DecideResult:
    """Unified entry point for the three solvers; mode is one of MODES.

    oracle / exact are two-sided; heuristic is one-sided (not_found
    decided_by "heuristic" means "no certificate constructed"). heuristic
    and auto first list the candidate roots (see _candidate_roots). An
    empty list is a two-sided no, returned at once as not_found decided_by
    "exact" with no solver run. Otherwise they run the heuristic from the
    first _HEURISTIC_TRIES candidate roots, the ones the exact search
    would try first. auto uses it as a fast accept path and falls back to
    the exact search, so it stays two-sided.
    """
    if mode not in MODES:
        raise ValueError(f"unknown decision mode {mode!r}")

    if mode == "oracle":
        cert = brute_force_oracle(g, root=root)
        return DecideResult(
            "found" if cert else "not_found", cert, decided_by="oracle"
        )

    if mode in ("heuristic", "auto"):
        roots = _candidate_roots(g, root)
        if not roots:
            return DecideResult("not_found", decided_by="exact")
        for r in roots[:_HEURISTIC_TRIES]:
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
