"""Shared builders for randomized tests. All randomness is seeded."""

from arborsim.digraph import ColouredDigraph, ColouredEdge
from arborsim.process import ProcessConfig, ProcessTrace
from arborsim.rng import SplitMix64


def random_graph(rng: SplitMix64, n: int, colour_count: int, m: int) -> ColouredDigraph:
    """Uniform random m-edge simple coloured digraph."""
    g = ColouredDigraph(n, colour_count)
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    for i in range(m):
        j = i + rng.below(len(pairs) - i)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    for t, h in pairs[:m]:
        g.add_edge(ColouredEdge(t, h, rng.below(colour_count)))
    return g


def graph_from_edges(n: int, colour_count: int, edges) -> ColouredDigraph:
    g = ColouredDigraph(n, colour_count)
    for t, h, c in edges:
        g.add_edge(ColouredEdge(t, h, c))
    return g


def prefix_at_m(n: int, seed: int) -> ColouredDigraph:
    """The prefix of the n-vertex trace at M = max(m_C, m_Z), as exact-n200 builds it."""
    trace = ProcessTrace(ProcessConfig(n, "auto", seed))
    g = ColouredDigraph(n, trace.colour_count)
    for e in trace.prefix(trace.total_edges):
        g.add_edge(e)
        if g.distinct_colours >= n - 1 and g.zero_in_count <= 1:
            return g
    return g
