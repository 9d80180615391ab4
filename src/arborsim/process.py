"""Reproducible generation of the coloured random digraph process.

A trace is a uniform random permutation of all N = n(n-1) ordered pairs
plus i.i.d. uniform colours, fully determined by (n, colour count, seed).
Edge order and colours come from independent substreams, so a prefix can be
streamed (sparse partial Fisher-Yates, O(prefix) memory) with or without
drawing the colours, without perturbing anything else. A trace holds no
edges: every read of a prefix streams it afresh.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import IO, Iterator, NamedTuple

from arborsim import edgelist
from arborsim.digraph import ColouredDigraph, ColouredEdge
from arborsim.rng import (
    COLOUR_STREAM,
    EDGE_STREAM,
    PRESENCE_STREAM,
    SplitMix64,
    derive_stream_seed,
)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def epsilon(n: int) -> float:
    """log log n / log n, natural logs. Negative for n = 2, tiny for huge n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.log(math.log(n)) / math.log(n)


def auto_colour_count(n: int) -> int:
    """Default colour-set size round((1 + 50*epsilon(n)) * n).

    Clamped below at max(1, n-1): for n = 2 the raw formula is negative
    (epsilon(2) < 0), and fewer than n-1 colours could never be useful.
    """
    raw = round_half_up((1.0 + 50.0 * epsilon(n)) * n)
    return max(1, n - 1, raw)


class _ProcessFields(NamedTuple):
    n: int
    colour_count: int | str
    master_seed: int


# A NamedTuple cannot override __new__ in its own body, so the checks run
# in a subclass.
class ProcessConfig(_ProcessFields):
    __slots__ = ()

    def __new__(cls, n: int, colour_count: int | str = "auto", master_seed: int = 0):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        if colour_count != "auto":
            if not isinstance(colour_count, int) or colour_count < 1:
                raise ValueError(f"colour_count must be 'auto' or a positive int, got {colour_count!r}")
        return super().__new__(cls, n, colour_count, master_seed)

    @property
    def resolved_colour_count(self) -> int:
        if self.colour_count == "auto":
            return auto_colour_count(self.n)
        return self.colour_count  # type: ignore[return-value]


def pair_from_index(n: int, k: int) -> tuple[int, int]:
    """Ordered pair number k in [0, n(n-1)): tails in blocks, heads skip the tail."""
    tail, off = divmod(k, n - 1)
    head = off if off < tail else off + 1
    return tail, head


class ProcessTrace:
    """One trial's full randomness; a pure function of its config."""

    def __init__(self, config: ProcessConfig):
        self.n = config.n
        self.colour_count = config.resolved_colour_count
        self.total_edges = config.n * (config.n - 1)
        self._edge_seed = derive_stream_seed(config.master_seed, EDGE_STREAM)
        self._colour_seed = derive_stream_seed(config.master_seed, COLOUR_STREAM)

    def prefix_pairs(self, m: int) -> Iterator[tuple[int, int]]:
        """First m (tail, head) pairs of the permutation, colour stream untouched."""
        if not 0 <= m <= self.total_edges:
            raise ValueError(f"prefix length {m} outside [0, {self.total_edges}]")
        n = self.n
        total = self.total_edges
        rng = SplitMix64(self._edge_seed)
        swapped: dict[int, int] = {}
        for k, r in enumerate(rng.below_each(range(total, total - m, -1))):
            j = k + r
            vj = swapped.get(j, j)
            swapped[j] = swapped.pop(k, k)
            tail, off = divmod(vj, n - 1)
            head = off if off < tail else off + 1
            yield tail, head

    def prefix_colours(self, m: int) -> Iterator[int]:
        """First m colours (one per process step), edge stream untouched."""
        if not 0 <= m <= self.total_edges:
            raise ValueError(f"prefix length {m} outside [0, {self.total_edges}]")
        # counted by range, not repeat(w, m): m may exceed sys.maxsize
        draws = SplitMix64(self._colour_seed).below_each(repeat(self.colour_count))
        for _, colour in zip(range(m), draws):
            yield colour

    def prefix(self, m: int) -> Iterator[ColouredEdge]:
        """First m coloured edges: prefix_pairs zipped with prefix_colours."""
        pairs = self.prefix_pairs(m)
        colours = self.prefix_colours(m)
        for (tail, head), colour in zip(pairs, colours):
            yield ColouredEdge(tail, head, colour)

    def materialize(self) -> list[ColouredEdge]:
        """All n(n-1) coloured edges in process order."""
        return list(self.prefix(self.total_edges))

    def graph_at(self, m: int) -> ColouredDigraph:
        g = ColouredDigraph(self.n, self.colour_count)
        for e in self.prefix(m):
            g.add_edge(e)
        return g

    def export(self, fh: IO[str], m: int | None = None) -> None:
        if m is None:
            m = self.total_edges
        edgelist.dump(self.n, self.colour_count, self.prefix(m), fh)


def generate_trace(config: ProcessConfig) -> ProcessTrace:
    return ProcessTrace(config)


def sample_dnp(n: int, p: float, colour_count: int, seed: int) -> ColouredDigraph:
    """Static model: each ordered pair present independently with probability p.

    Present pairs are found by geometric gap skipping, so the cost is
    proportional to the number of edges rather than n^2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    g = ColouredDigraph(n, colour_count)
    if n == 1 or p == 0.0:
        return g
    total = n * (n - 1)
    crng = SplitMix64(derive_stream_seed(seed, COLOUR_STREAM))
    if p == 1.0:
        for k in range(total):
            tail, head = pair_from_index(n, k)
            g.add_edge(ColouredEdge(tail, head, crng.below(colour_count)))
        return g
    rng = SplitMix64(derive_stream_seed(seed, PRESENCE_STREAM))
    log1mp = math.log1p(-p)
    k = -1
    while True:
        gap = int(math.log(rng.unit_positive()) / log1mp)
        k += 1 + gap
        if k >= total:
            break
        tail, head = pair_from_index(n, k)
        g.add_edge(ColouredEdge(tail, head, crng.below(colour_count)))
    return g
