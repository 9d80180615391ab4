"""Random mappings: every vertex picks one uniform in-neighbour.

The functional digraph has edges (in_nbr[v] -> v); every weakly connected
component contains exactly one directed cycle (a double edge counts as a
2-cycle), with trees hanging off the cycle. The epidemic spread is the
forward closure of an initially infected set along those edges.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from arborsim.digraph import _zeros, forward_closure
from arborsim.rng import MAPPING_STREAM, SplitMix64, derive_stream_seed


class RandomMapping(NamedTuple):
    n: int
    in_nbr: list[int]  # v's chosen in-neighbour; edge (in_nbr[v] -> v)
    loopless: bool


class MappingComponent(NamedTuple):
    vertices: list[int]  # sorted
    # in in-neighbour walk order (in_nbr[cycle[i]] == cycle[(i+1) % len]),
    # rotated to start at the lowest cycle vertex
    cycle: list[int]


def sample_mapping(n: int, loopless: bool = False, seed: int = 0) -> RandomMapping:
    if loopless and n < 2:
        raise ValueError(f"loopless mapping needs n >= 2, got {n}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # allocated before the first draw, so an n that memory cannot hold is a
    # ValueError at once rather than a list growing until the process dies
    in_nbr = _zeros(n, "mapping size n")
    rng = SplitMix64(derive_stream_seed(seed, MAPPING_STREAM))
    for v, u in enumerate(rng.below_each(repeat(n - 1 if loopless else n, n))):
        in_nbr[v] = u + 1 if loopless and u >= v else u
    return RandomMapping(n, in_nbr, loopless)


def loop_count(m: RandomMapping) -> int:
    return sum(1 for v in range(m.n) if m.in_nbr[v] == v)


def cycle_components(m: RandomMapping) -> list[MappingComponent]:
    """Component decomposition by iterated in-neighbour walks, O(n) total."""
    n = m.n
    comp_of = [-1] * n
    cycles: dict[int, list[int]] = {}
    members: dict[int, list[int]] = {}
    next_comp = 0
    for s in range(n):
        if comp_of[s] != -1:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        v = s
        while True:
            if comp_of[v] != -1:
                cid = comp_of[v]
                break
            if v in pos:
                cid = next_comp
                next_comp += 1
                cycle = path[pos[v]:]
                low = cycle.index(min(cycle))
                cycles[cid] = cycle[low:] + cycle[:low]
                members[cid] = []
                break
            pos[v] = len(path)
            path.append(v)
            v = m.in_nbr[v]
        for u in path:
            comp_of[u] = cid
            members[cid].append(u)
    return [
        MappingComponent(sorted(members[cid]), cycles[cid])
        for cid in sorted(members)
    ]


def epidemic_spread(m: RandomMapping, infected: set[int]) -> set[int]:
    """Eventually infected set: forward closure along the mapping edges."""
    if not infected:
        raise ValueError("infected set must be nonempty")
    for v in infected:
        if not 0 <= v < m.n:
            raise ValueError(f"vertex {v} out of range [0, {m.n})")
    out_edges: list[list[tuple[int, int]]] = [[] for _ in range(m.n)]
    for v, u in enumerate(m.in_nbr):
        out_edges[u].append((u, v))
    return forward_closure(out_edges, infected)
