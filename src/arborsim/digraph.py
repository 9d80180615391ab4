"""Coloured simple digraph with O(1) bookkeeping per edge insertion.

The graph grows one edge at a time, and `pop_edge` takes back the last
edge added, so a graph can move down and up one edge sequence. Each edge
is one `ColouredEdge` object, filed under its head in `in_edges` and under
its tail in `out_edges`, so both directions hand out the graph's own
edges, and one closure helper (`forward_closure`) walks either; a vertex's
in-degree is the length of its in-edge list. Per-colour multiplicities,
the number of in-degree-zero vertices and the number of distinct colours
present are maintained incrementally, both ways, so that event detection
after each step is O(1).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class DuplicateEdgeError(ValueError):
    """A (tail, head) pair was inserted twice."""


class ColouredEdge(NamedTuple):
    tail: int
    head: int
    colour: int


def _zeros(size: int, name: str) -> list[int]:
    """[0] * size, or a ValueError naming the size when memory cannot hold it."""
    try:
        return [0] * size
    except (MemoryError, OverflowError):
        raise ValueError(f"{name} = {size} is too large to hold in memory") from None


class ColouredDigraph:
    """Simple digraph on vertices 0..n-1 whose edges carry colours 0..W-1."""

    __slots__ = (
        "n",
        "colour_count",
        "edges",
        "colour_mult",
        "zero_in_count",
        "distinct_colours",
        "in_edges",
        "out_edges",
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
        # _zeros first, so an n that memory cannot hold fails before any loop
        self.in_edges: list[list[ColouredEdge]] = [[] for _ in _zeros(n, "vertex count n")]
        self.colour_mult = _zeros(colour_count, "colour count W")
        self.zero_in_count = n
        self.distinct_colours = 0
        self.out_edges: list[list[ColouredEdge]] = [[] for _ in range(n)]
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
        ins = self.in_edges[head]
        if not ins:
            self.zero_in_count -= 1
        ins.append(e)
        if self.colour_mult[colour] == 0:
            self.distinct_colours += 1
        self.colour_mult[colour] += 1
        self.out_edges[tail].append(e)

    def pop_edge(self) -> ColouredEdge:
        """Remove and return the last edge added, undoing all of add_edge.

        Raises IndexError on an empty graph.
        """
        e = self.edges.pop()
        tail, head, colour = e
        del self._colour_of_pair[tail * self.n + head]
        ins = self.in_edges[head]
        ins.pop()
        if not ins:
            self.zero_in_count += 1
        self.colour_mult[colour] -= 1
        if self.colour_mult[colour] == 0:
            self.distinct_colours -= 1
        self.out_edges[tail].pop()
        return e

    def edge_colour(self, tail: int, head: int) -> int | None:
        """The colour of edge (tail, head), or None when g has no such edge."""
        n = self.n
        if not (0 <= tail < n and 0 <= head < n):
            return None
        return self._colour_of_pair.get(tail * n + head)

    def __len__(self) -> int:
        return len(self.edges)


def _check_root(n: int, root: int) -> None:
    """ValueError unless root is a vertex of an n-vertex graph."""
    if root is None or not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")


def forward_closure(edge_lists: list[list], roots: Iterable[int], end: int = 1) -> set[int]:
    """All vertices reached from `roots` by steps v -> e[end], e in edge_lists[v].

    Over g.out_edges with end 1 that is the forward closure under g's
    edges; over g.in_edges with end 0 it is the forward closure under the
    reversed edges, the vertices that reach `roots`.
    """
    seen = set(roots)
    stack = list(seen)
    while stack:
        for e in edge_lists[stack.pop()]:
            w = e[end]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reachable_from(g: ColouredDigraph, roots: Iterable[int]) -> set[int]:
    """Forward closure of `roots` under the directed edges of g."""
    roots = set(roots)
    for v in roots:
        _check_root(g.n, v)
    return forward_closure(g.out_edges, roots)


def spanning_roots(g: ColouredDigraph) -> list[int]:
    """Every vertex that reaches all of g, ascending; empty when none does.

    A root reaches every other vertex, so it is the only in-degree-zero
    vertex when there is one, and one forward pass settles it. Otherwise
    search from each vertex not yet seen, in ascending order and sharing
    one seen set: the seen set stays closed under out-edges, so the search
    that first sees a root starts at a vertex that reaches the root, and
    nothing is left unseen after it. The last start is therefore a root if
    any vertex is, and then the roots are exactly the vertices that reach
    it, found by one closure backwards over g.in_edges.
    """
    n = g.n
    if g.zero_in_count >= 2:
        return []  # two in-degree-zero vertices can never both be reached
    out = g.out_edges
    if g.zero_in_count == 1:
        z = g.in_edges.index([])
        return [z] if len(forward_closure(out, (z,))) == n else []
    seen = bytearray(n)
    last = 0
    for s in range(n):
        if seen[s]:
            continue
        last = s
        seen[s] = 1
        stack = [s]
        while stack:
            for e in out[stack.pop()]:
                w = e[1]
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    if len(forward_closure(out, (last,))) < n:
        return []
    return sorted(forward_closure(g.in_edges, (last,), end=0))


def has_spanning_arborescence(g: ColouredDigraph) -> bool:
    """Whether some vertex reaches every vertex (see spanning_roots)."""
    return bool(spanning_roots(g))
