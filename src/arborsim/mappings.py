"""Random mappings: every vertex picks one uniform in-neighbour.

The functional digraph has edges (in_nbr[v] -> v); every weakly connected
component contains exactly one directed cycle (a double edge counts as a
2-cycle), with trees hanging off the cycle. The epidemic spread is the
forward closure of an initially infected set along those edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from arborsim.digraph import forward_closure
from arborsim.rng import MAPPING_STREAM, SplitMix64, derive_stream_seed


@dataclass
class RandomMapping:
    n: int
    in_nbr: list[int]  # v's chosen in-neighbour; edge (in_nbr[v] -> v)
    loopless: bool


@dataclass
class MappingComponent:
    vertices: list[int]  # sorted
    # in in-neighbour walk order (in_nbr[cycle[i]] == cycle[(i+1) % len]),
    # rotated to start at the lowest cycle vertex
    cycle: list[int]


def sample_mapping(n: int, loopless: bool = False, seed: int = 0) -> RandomMapping:
    if loopless and n < 2:
        raise ValueError(f"loopless mapping needs n >= 2, got {n}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = SplitMix64(derive_stream_seed(seed, MAPPING_STREAM))
    # counted by range, not repeat(b, n): an n beyond sys.maxsize must reach
    # the draw's bound check and fail there as a ValueError
    draws = zip(range(n), rng.below_each(repeat(n - 1 if loopless else n)))
    if loopless:
        in_nbr = [u + 1 if u >= v else u for v, u in draws]
    else:
        in_nbr = [u for _, u in draws]
    return RandomMapping(n, in_nbr, loopless)


def loop_count(m: RandomMapping) -> int:
    return sum(1 for v in range(m.n) if m.in_nbr[v] == v)


def cycle_components(m: RandomMapping) -> list[MappingComponent]:
    """Component decomposition by iterated in-neighbour walks, O(n) total."""
    n = m.n
    comp_of = [-1] * n
    walk_mark = [-1] * n
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
            if walk_mark[v] == s:
                cid = next_comp
                next_comp += 1
                cycle = path[pos[v]:]
                low = cycle.index(min(cycle))
                cycles[cid] = cycle[low:] + cycle[:low]
                members[cid] = []
                break
            walk_mark[v] = s
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
    children: list[list[int]] = [[] for _ in range(m.n)]
    for v in range(m.n):
        children[m.in_nbr[v]].append(v)
    return forward_closure(children, infected)
