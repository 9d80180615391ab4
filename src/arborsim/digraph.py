"""Coloured simple digraph with O(1) bookkeeping per edge insertion.

The graph grows one edge at a time (no deletion). In-degrees, per-colour
multiplicities, the number of in-degree-zero vertices and the number of
distinct colours present are maintained incrementally so that event
detection after each step is O(1).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class DuplicateEdgeError(ValueError):
    """A (tail, head) pair was inserted twice."""


class ColouredEdge(NamedTuple):
    tail: int
    head: int
    colour: int


class ColouredDigraph:
    """Simple digraph on vertices 0..n-1 whose edges carry colours 0..W-1."""

    __slots__ = (
        "n",
        "colour_count",
        "edges",
        "in_deg",
        "colour_mult",
        "zero_in_count",
        "distinct_colours",
        "in_edges",
        "out_heads",
        "_colour_of_pair",
    )

    def __init__(self, n: int, colour_count: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if colour_count < 1:
            raise ValueError(f"need colour_count >= 1, got {colour_count}")
        self.n = n
        self.colour_count = colour_count
        self.edges: list[ColouredEdge] = []
        self.in_deg = [0] * n
        self.colour_mult = [0] * colour_count
        self.zero_in_count = n
        self.distinct_colours = 0
        self.in_edges: list[list[ColouredEdge]] = [[] for _ in range(n)]
        self.out_heads: list[list[int]] = [[] for _ in range(n)]
        # pair index -> colour; doubles as the duplicate-edge presence map
        self._colour_of_pair: dict[int, int] = {}

    def add_edge(self, e: ColouredEdge) -> None:
        tail, head, colour = e
        n = self.n
        if not (0 <= tail < n and 0 <= head < n):
            raise ValueError(f"vertex out of range [0, {n}): ({tail}, {head})")
        if tail == head:
            raise ValueError(f"self-loop rejected: ({tail}, {head})")
        if not 0 <= colour < self.colour_count:
            raise ValueError(f"colour out of range [0, {self.colour_count}): {colour}")
        key = tail * n + head
        if key in self._colour_of_pair:
            raise DuplicateEdgeError(f"edge ({tail}, {head}) already present")
        self._colour_of_pair[key] = colour
        self.edges.append(e)
        if self.in_deg[head] == 0:
            self.zero_in_count -= 1
        self.in_deg[head] += 1
        if self.colour_mult[colour] == 0:
            self.distinct_colours += 1
        self.colour_mult[colour] += 1
        self.in_edges[head].append(e)
        self.out_heads[tail].append(head)

    def has_edge(self, tail: int, head: int) -> bool:
        return tail * self.n + head in self._colour_of_pair

    def edge_colour(self, tail: int, head: int) -> int | None:
        return self._colour_of_pair.get(tail * self.n + head)

    def __len__(self) -> int:
        return len(self.edges)


def forward_closure(adjacency: list[list[int]], roots: Iterable[int]) -> set[int]:
    """All vertices reachable from `roots` along the adjacency lists."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reachable_from(g: ColouredDigraph, roots: Iterable[int]) -> set[int]:
    """Forward closure of `roots` under the directed edges of g."""
    roots = set(roots)
    for v in roots:
        if not 0 <= v < g.n:
            raise ValueError(f"root {v} out of range [0, {g.n})")
    return forward_closure(g.out_heads, roots)


def strongly_connected_components(g: ColouredDigraph) -> tuple[int, list[int]]:
    """Tarjan's algorithm, iterative. Returns (component count, comp id per vertex)."""
    n = g.n
    out = g.out_heads
    index = [0] * n  # 0 = unvisited, else visit order + 1
    low = [0] * n
    on_stack = bytearray(n)
    comp = [-1] * n
    stack: list[int] = []
    counter = 1
    ncomp = 0
    for s in range(n):
        if index[s]:
            continue
        work = [(s, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            nbrs = out[v]
            for i in range(pi, len(nbrs)):
                w = nbrs[i]
                if not index[w]:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return ncomp, comp


def spanning_roots(g: ColouredDigraph) -> list[int]:
    """Every vertex that reaches all of g, ascending; empty when none does.

    Condensation criterion: the digraph has a spanning arborescence iff its
    SCC condensation has exactly one source component, and the roots are
    the vertices of that component.
    """
    if g.n == 1:
        return [0]
    if g.zero_in_count >= 2:
        return []  # two in-degree-zero vertices can never both be reached
    ncomp, comp = strongly_connected_components(g)
    has_external_in = bytearray(ncomp)
    for e in g.edges:
        if comp[e.tail] != comp[e.head]:
            has_external_in[comp[e.head]] = 1
    sources = [c for c in range(ncomp) if not has_external_in[c]]
    if len(sources) != 1:
        return []
    src = sources[0]
    return [v for v in range(g.n) if comp[v] == src]


def has_spanning_arborescence(g: ColouredDigraph) -> tuple[bool, int | None]:
    """Whether some vertex reaches every vertex, plus the lowest such root."""
    roots = spanning_roots(g)
    return (True, roots[0]) if roots else (False, None)
