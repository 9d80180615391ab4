"""Shared builders for randomized tests. All randomness is seeded."""

import functools

from arborsim.digraph import ColouredDigraph, ColouredEdge
from arborsim.process import ProcessConfig, ProcessTrace
from arborsim.rng import SplitMix64, derive_trial_seed


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


def prefix_at_m(n: int, seed: int, colour_count: int | str = "auto") -> ColouredDigraph:
    """The prefix of the n-vertex trace at M = max(m_C, m_Z), as exact-n200 builds it."""
    trace = ProcessTrace(ProcessConfig(n, colour_count, seed))
    g = ColouredDigraph(n, trace.colour_count)
    for e in trace.prefix(trace.total_edges):
        g.add_edge(e)
        if g.distinct_colours >= n - 1 and g.zero_in_count <= 1:
            return g
    return g


@functools.cache
def prefix_at_z(n: int, seed: int) -> ColouredDigraph:
    """The prefix of the n-vertex trace at m_Z, the first with at most one in-degree-zero vertex."""
    trace = ProcessTrace(ProcessConfig(n, "auto", seed))
    g = ColouredDigraph(n, trace.colour_count)
    for e in trace.prefix(trace.total_edges):
        g.add_edge(e)
        if g.zero_in_count <= 1:
            break
    return g


def small_cases():
    """(name, graph, root) over 240 seeded graphs (n 2-12, W in [n - 1, n + 2]), every root."""
    rng = SplitMix64(271828)
    for i in range(240):
        n = 2 + rng.below(11)
        w = n - 1 + rng.below(4)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        for r in range(n):
            yield f"small {i} root {r}", g, r


def theorem_n200_cases():
    """(name, graph, root) for the 96 seed-1 theorem-n200 inputs at m_Z, from the in-degree-zero vertex."""
    for i in range(96):
        # op i of the theorem-n200 workload at benchmark seed 1
        g = prefix_at_z(200, derive_trial_seed(1 * 10**6 + i, 0))
        yield f"theorem-n200 seed 1 input {i}", g, g.in_edges.index([])
