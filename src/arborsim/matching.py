"""Vertex-colour bipartite matching and Hall-violator extraction.

A vertex is adjacent to a colour when at least one of its in-edges carries
that colour. A colour assignment for a root r is an injective map from
V \\ {r} into colours, each vertex mapped to a colour on one of its
in-edges; it exists iff the bipartite graph has a matching saturating
V \\ {r}. When it does not, a witness pair (S, T) with |T| = |S| - 1 and
N(S) contained in T certifies the Hall violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from arborsim.digraph import ColouredDigraph, ColouredEdge


@dataclass
class ColourBipartiteGraph:
    n: int
    adjacency: list[list[int]]  # per vertex, sorted distinct colours on its in-edges


@dataclass
class ColourAssignment:
    root: int
    mapping: dict[int, int]  # vertex -> colour, injective, defined on V \ {root}


@dataclass
class KWitness:
    vertices: list[int]  # S, sorted
    colours: list[int]  # T, sorted; |T| = |S| - 1 and N(S) subset of T


def build_colour_bigraph(g: ColouredDigraph) -> ColourBipartiteGraph:
    adjacency = [sorted({e.colour for e in g.in_edges[v]}) for v in range(g.n)]
    return ColourBipartiteGraph(g.n, adjacency)


def _maximum_matching(
    b: ColourBipartiteGraph, skip: int | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum matching over left = vertices except `skip` (if any), right = colours.

    BFS augmenting-path search from each free left vertex in ascending
    order; deterministic for a given adjacency.
    """
    match_v: dict[int, int] = {}
    match_c: dict[int, int] = {}
    for start in range(b.n):
        if start == skip:
            continue
        if not b.adjacency[start]:
            continue
        # BFS over alternating paths, recording how each colour was reached.
        parent_colour: dict[int, int] = {}  # colour -> left vertex it was reached from
        queue = [start]
        found: int | None = None
        qi = 0
        while qi < len(queue) and found is None:
            v = queue[qi]
            qi += 1
            for c in b.adjacency[v]:
                if c in parent_colour:
                    continue
                parent_colour[c] = v
                owner = match_c.get(c)
                if owner is None:
                    found = c
                    break
                queue.append(owner)
        if found is None:
            continue
        # Flip the alternating path back to `start`.
        c = found
        while True:
            v = parent_colour[c]
            prev = match_v.get(v)
            match_v[v] = c
            match_c[c] = v
            if prev is None and v == start:
                break
            c = prev  # type: ignore[assignment]
    return match_v, match_c


def find_colour_assignment(b: ColourBipartiteGraph, root: int) -> ColourAssignment | None:
    if not 0 <= root < b.n:
        raise ValueError(f"root {root} out of range [0, {b.n})")
    match_v, _ = _maximum_matching(b, root)
    if len(match_v) < b.n - 1:
        return None
    return ColourAssignment(root, dict(match_v))


def _alternating_reach(
    b: ColourBipartiteGraph, match_c: dict[int, int], seed: int
) -> tuple[set[int], set[int]]:
    """Vertices and colours reachable from an unmatched `seed` by alternating paths.

    A vertex steps to any of its colours, a colour to the vertex matched to
    it. Under a maximum matching every reached colour is matched, else the
    path to it would augment.
    """
    s_set = {seed}
    t_set: set[int] = set()
    queue = [seed]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for c in b.adjacency[v]:
            if c in t_set:
                continue
            t_set.add(c)
            owner = match_c.get(c)
            assert owner is not None
            if owner not in s_set:
                s_set.add(owner)
                queue.append(owner)
    return s_set, t_set


def find_k_witness(b: ColourBipartiteGraph, root: int) -> KWitness | None:
    """Hall violator for V \\ {root}, or None iff an assignment exists.

    S is the alternating-reachable left set from the lowest unmatched
    vertex under a maximum matching; T = N(S). Every vertex of S except
    the seed is matched into T and every colour of T is matched into S,
    which forces |T| = |S| - 1 exactly.
    """
    if not 0 <= root < b.n:
        raise ValueError(f"root {root} out of range [0, {b.n})")
    match_v, match_c = _maximum_matching(b, root)
    unmatched = [v for v in range(b.n) if v != root and v not in match_v]
    if not unmatched:
        return None
    s_set, t_set = _alternating_reach(b, match_c, min(unmatched))
    assert len(t_set) == len(s_set) - 1
    return KWitness(sorted(s_set), sorted(t_set))


def assignment_roots(b: ColourBipartiteGraph) -> set[int]:
    """Every root r for which find_colour_assignment(b, r) succeeds, from one matching.

    Take a maximum matching on all of V. If it leaves two or more vertices
    unmatched, removing one root cannot saturate the rest; if it leaves
    none, dropping any root's matched edge saturates the rest. If it
    leaves exactly one vertex u, the admissible roots are the vertices that
    some maximum matching leaves unmatched, which are exactly those reached
    from u by even alternating paths (Dulmage-Mendelsohn; Gallai-Edmonds).
    """
    match_v, match_c = _maximum_matching(b)
    unmatched = [v for v in range(b.n) if v not in match_v]
    if not unmatched:
        return set(range(b.n))
    if len(unmatched) >= 2:
        return set()
    return _alternating_reach(b, match_c, unmatched[0])[0]


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
