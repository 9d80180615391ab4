"""Vertex-colour bipartite matching and Hall-violator extraction.

A vertex is adjacent to a colour when at least one of its in-edges carries
that colour. A colour assignment for a root r is an injective map from
V \\ {r} into colours, each vertex mapped to a colour on one of its
in-edges; it exists iff the bipartite graph has a matching saturating
V \\ {r}. When it does not, a witness pair (S, T) with |T| = |S| - 1 and
N(S) contained in T certifies the Hall violation.
"""

from __future__ import annotations

from typing import NamedTuple

from arborsim.digraph import ColouredDigraph, ColouredEdge, _check_root


class ColourBipartiteGraph(NamedTuple):
    n: int
    # per vertex, the colours on its in-edges; sorted and distinct from
    # build_colour_bigraph, which the mappings and witnesses printed rely on
    adjacency: list[list[int]]


class ColourAssignment(NamedTuple):
    root: int
    mapping: dict[int, int]  # vertex -> colour, injective, defined on V \ {root}


class KWitness(NamedTuple):
    vertices: list[int]  # S, sorted
    colours: list[int]  # T, sorted; |T| = |S| - 1 and N(S) subset of T


def build_colour_bigraph(g: ColouredDigraph) -> ColourBipartiteGraph:
    adjacency = [sorted({e.colour for e in g.in_edges[v]}) for v in range(g.n)]
    return ColourBipartiteGraph(g.n, adjacency)


def _maximum_matching(
    b: ColourBipartiteGraph, skip: int | None = None
) -> tuple[dict[int, int], tuple[list[int], dict[int, int]] | None]:
    """Maximum matching over left = vertices except `skip` (if any), right = colours.

    Each free left vertex, in ascending order, takes its first colour in
    adjacency order that is still free, which is the colour its BFS
    augmenting-path search would find first; only a vertex whose colours
    are all taken runs that search (_augment). Deterministic for a given
    adjacency. Returns the matching (vertex -> colour) and the search tree
    (vertices, colour -> vertex it was reached from) of the lowest vertex
    the matching leaves unmatched, or None if every vertex is matched.

    That tree is the vertex's alternating reach under the final matching.
    When the search from u fails it has reached S = its queue and
    T = N(S), and every colour of T is matched into S. A later augmenting
    path that entered T could never leave S and T, so it could never end
    at a free colour; no later augmentation touches them. A start that
    fails stays free and a matched vertex stays matched, so the first
    failure is the lowest unmatched vertex. A vertex with no colours fails
    at once, with the tree ([u], {}).
    """
    match_v: dict[int, int] = {}
    match_c: dict[int, int] = {}
    tree: tuple[list[int], dict[int, int]] | None = None
    for start in range(b.n):
        if start == skip:
            continue
        for c in b.adjacency[start]:
            if c not in match_c:
                match_v[start] = c
                match_c[c] = start
                break
        else:
            failed = _augment(b.adjacency, start, match_v, match_c)
            if tree is None:
                tree = failed
    return match_v, tree


def _augment(
    adjacency: list[list[int]], start: int, match_v: dict[int, int], match_c: dict[int, int]
) -> tuple[list[int], dict[int, int]] | None:
    """Augment the matching from free `start` by BFS; None, or the failed search tree."""
    # BFS over alternating paths, recording how each colour was reached.
    parent_colour: dict[int, int] = {}  # colour -> left vertex it was reached from
    queue = [start]
    found: int | None = None
    qi = 0
    while qi < len(queue) and found is None:
        v = queue[qi]
        qi += 1
        for c in adjacency[v]:
            if c in parent_colour:
                continue
            parent_colour[c] = v
            owner = match_c.get(c)
            if owner is None:
                found = c
                break
            queue.append(owner)
    if found is None:
        return queue, parent_colour
    # Flip the alternating path back to `start`.
    c = found
    while True:
        v = parent_colour[c]
        prev = match_v.get(v)
        match_v[v] = c
        match_c[c] = v
        if prev is None and v == start:
            return None
        c = prev  # type: ignore[assignment]


def find_colour_assignment(b: ColourBipartiteGraph, root: int) -> ColourAssignment | None:
    _check_root(b.n, root)
    match_v, tree = _maximum_matching(b, root)
    if tree is not None:
        return None
    return ColourAssignment(root, match_v)


def find_k_witness(b: ColourBipartiteGraph, root: int) -> KWitness | None:
    """Hall violator for V \\ {root}, or None iff an assignment exists.

    S is the alternating reach of the lowest unmatched vertex under a
    maximum matching, read off its failed augmenting search (see
    _maximum_matching); T = N(S). Every vertex of S except the seed is
    matched into T and every colour of T is matched into S, which forces
    |T| = |S| - 1 exactly.
    """
    _check_root(b.n, root)
    _, tree = _maximum_matching(b, root)
    if tree is None:
        return None
    vertices, colours = tree
    assert len(colours) == len(vertices) - 1
    return KWitness(sorted(vertices), sorted(colours))


def assignment_roots(b: ColourBipartiteGraph) -> set[int]:
    """Every root r for which find_colour_assignment(b, r) succeeds, from one matching.

    The answer is a property of the bipartite graph alone, so each
    vertex's colours may come in any order and with repeats, as its
    in-edges store them; the matching found depends on that order, the
    roots do not.

    Take a maximum matching on all of V. If it leaves two or more vertices
    unmatched, removing one root cannot saturate the rest; if it leaves
    none, dropping any root's matched edge saturates the rest. If it
    leaves exactly one vertex u, the admissible roots are the vertices that
    some maximum matching leaves unmatched, which are exactly those reached
    from u by even alternating paths (Dulmage-Mendelsohn; Gallai-Edmonds):
    the vertices of u's failed search tree (see _maximum_matching).
    """
    match_v, tree = _maximum_matching(b)
    if tree is None:
        return set(range(b.n))
    if len(match_v) < b.n - 1:
        return set()
    return set(tree[0])


def materialize_assignment(g: ColouredDigraph, assignment: ColourAssignment) -> dict[int, ColouredEdge]:
    """One in-edge per non-root vertex in its assigned colour.

    When several in-edges of v share colour f(v), the earliest edge in
    process order wins, so the result is reproducible.
    """
    chosen: dict[int, ColouredEdge] = {}
    for v, colour in assignment.mapping.items():
        for e in g.in_edges[v]:
            if e.colour == colour:
                chosen[v] = e
                break
        else:
            raise ValueError(f"vertex {v} has no in-edge of its assigned colour {colour}")
    return chosen
