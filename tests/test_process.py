import hashlib
import io
import json
import math
import pathlib
import sys
from itertools import accumulate

import pytest

from arborsim.process import (
    ProcessConfig,
    auto_colour_count,
    epsilon,
    generate_trace,
    pair_from_index,
    round_half_up,
    sample_dnp,
)
from arborsim.rng import (
    COLOUR_STREAM,
    EDGE_STREAM,
    PRESENCE_STREAM,
    SplitMix64,
    chunk_sizes,
    derive_stream_seed,
)

CHI2_CRIT_5DF_999 = 20.515  # chi-square critical value, 5 df, significance 0.001


def test_pair_index_round_trip():
    for n in (2, 3, 7):
        seen = set()
        for k in range(n * (n - 1)):
            t, h = pair_from_index(n, k)
            assert t != h and 0 <= t < n and 0 <= h < n
            seen.add((t, h))
        assert len(seen) == n * (n - 1)
        # tails in blocks, heads ascending and skipping the tail: the
        # order prefix_pairs inlines
        assert [pair_from_index(n, k) for k in range(n * (n - 1))] == [
            (t, h) for t in range(n) for h in range(n) if t != h
        ]


def test_auto_colour_count_formula():
    # epsilon(10) = log(log 10)/log 10, W = round((1 + 50*eps)*10)
    assert abs(epsilon(10) - 0.362216) < 1e-6
    assert auto_colour_count(10) == 191
    assert auto_colour_count(2) == 1  # raw formula negative; clamped
    assert auto_colour_count(3) == max(2, round_half_up(3 * (1 + 50 * epsilon(3))))


def test_config_validation():
    with pytest.raises(ValueError):
        ProcessConfig(1, "auto", 0)
    with pytest.raises(ValueError):
        ProcessConfig(3, 0, 0)
    with pytest.raises(ValueError):
        ProcessConfig(3, "many", 0)


def test_n2_trace_is_permutation_of_both_pairs():
    trace = generate_trace(ProcessConfig(2, 4, 99))
    edges = trace.materialize()
    assert len(edges) == 2
    assert {(e.tail, e.head) for e in edges} == {(0, 1), (1, 0)}
    assert all(0 <= e.colour < 4 for e in edges)


def test_trace_is_permutation():
    trace = generate_trace(ProcessConfig(6, "auto", 5))
    edges = trace.materialize()
    assert len(edges) == 30
    assert len({(e.tail, e.head) for e in edges}) == 30


def test_trace_determinism_byte_identical():
    def export(seed):
        buf = io.StringIO()
        generate_trace(ProcessConfig(7, "auto", seed)).export(buf)
        return buf.getvalue()

    assert export(123) == export(123)
    assert export(123) != export(124)


def test_trace_exports_match_golden_digests():
    table = json.loads((pathlib.Path(__file__).parent / "golden" / "streams.json").read_text())
    for ref in table["trace_exports"]:
        buf = io.StringIO()
        generate_trace(ProcessConfig(ref["n"], ref["colours"], ref["seed"])).export(buf, ref["m"])
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == ref["sha256"], ref


def per_draw_prefix(config: ProcessConfig, m: int) -> list[tuple[int, int, int]]:
    """The first m coloured edges with one below() per draw: Fisher-Yates on a full list."""
    n, w = config.n, config.resolved_colour_count
    total = n * (n - 1)
    pair_rng = SplitMix64(derive_stream_seed(config.master_seed, EDGE_STREAM))
    colour_rng = SplitMix64(derive_stream_seed(config.master_seed, COLOUR_STREAM))
    order = list(range(total))
    edges = []
    for k in range(m):
        j = k + pair_rng.below(total - k)
        order[k], order[j] = order[j], order[k]
        edges.append((*pair_from_index(n, order[k]), colour_rng.below(w)))
    return edges


def test_prefix_streams_agree_with_materialize():
    trace = generate_trace(ProcessConfig(5, 9, 77))
    edges = trace.materialize()
    assert list(trace.prefix(7)) == edges[:7]
    assert list(trace.prefix_pairs(7)) == [(e.tail, e.head) for e in edges[:7]]
    assert list(trace.prefix_colours(7)) == [e.colour for e in edges[:7]]
    with pytest.raises(ValueError):
        list(trace.prefix(21))
    for m in (-1, 21):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            trace.export(buf, m)
        assert buf.getvalue() == ""  # not even the header
    # m = 0, 1, N and each chunk size and chunk end +- 1, against one
    # below() per draw; W = 2^63 + 1 rejects about half its colour draws
    for config in (ProcessConfig(30, 29, 30), ProcessConfig(30, 2**63 + 1, 31)):
        trace = generate_trace(config)
        total = trace.total_edges
        ref = per_draw_prefix(config, total)
        sizes = list(chunk_sizes(total))
        lengths = {0, 1, total} | {
            m + d for m in sizes + list(accumulate(sizes)) for d in (-1, 0, 1) if 0 <= m + d <= total}
        for m in sorted(lengths):
            assert list(trace.prefix(m)) == ref[:m], (config, m)
            assert list(trace.prefix_pairs(m)) == [e[:2] for e in ref[:m]], (config, m)
            assert list(trace.prefix_colours(m)) == [e[2] for e in ref[:m]], (config, m)


def test_prefix_longer_than_sys_maxsize_streams():
    # n(n-1) lies between sys.maxsize and 2^64, so every draw is in range
    trace = generate_trace(ProcessConfig(3_500_000_000, 5, 1))
    assert sys.maxsize < trace.total_edges <= 2**64
    e = next(trace.prefix(trace.total_edges))
    assert e.tail != e.head and 0 <= e.colour < 5
    assert next(trace.prefix_colours(trace.total_edges)) == e.colour


def test_graph_at_builds_prefix():
    trace = generate_trace(ProcessConfig(5, 9, 77))
    g = trace.graph_at(8)
    assert len(g.edges) == 8
    assert g.edges == trace.materialize()[:8]


def test_graph_at_agrees_with_prefix_in_any_request_order():
    for order in ([0, 7, 3, 20, 12, 20, 1], [20, 0, 5], [4, 4, 9, 2]):
        trace = generate_trace(ProcessConfig(5, 9, 77))
        for m in order:
            assert trace.graph_at(m).edges == list(trace.prefix(m))
        assert trace.materialize() == list(trace.prefix(20))
    with pytest.raises(ValueError):
        trace.graph_at(21)


def test_permutation_uniformity_chi_square():
    # position of the pair (0,1) among the 6 slots at n=3 over 10^5 traces
    trials = 100_000
    counts = [0] * 6
    for t in range(trials):
        trace = generate_trace(ProcessConfig(3, 5, t))
        for pos, (tail, head) in enumerate(trace.prefix_pairs(6)):
            if (tail, head) == (0, 1):
                counts[pos] += 1
                break
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_5DF_999, counts


def test_colour_marginals():
    # same traces as the chi-square run: colour frequencies at position 0
    # and across all 6 positions, each within 5 sigma of their means
    trials = 100_000
    w = 5
    first = [0] * w
    overall = [0] * w
    for t in range(trials):
        trace = generate_trace(ProcessConfig(3, w, t))
        for pos, colour in enumerate(trace.prefix_colours(6)):
            if pos == 0:
                first[colour] += 1
            overall[colour] += 1
    mean_first = trials / w
    sigma_first = math.sqrt(trials * (1 / w) * (1 - 1 / w))
    for c in first:
        assert abs(c - mean_first) < 5 * sigma_first
    total = 6 * trials
    mean_all = total / w
    sigma_all = math.sqrt(total * (1 / w) * (1 - 1 / w))
    for c in overall:
        assert abs(c - mean_all) < 5 * sigma_all


def test_sample_dnp_extremes():
    g = sample_dnp(5, 0.0, 3, 1)
    assert len(g.edges) == 0
    g = sample_dnp(5, 1.0, 3, 1)
    assert len(g.edges) == 20
    assert len({(e.tail, e.head) for e in g.edges}) == 20
    with pytest.raises(ValueError):
        sample_dnp(5, 1.5, 3, 1)


def test_sample_dnp_mean_edge_count():
    n = 1000
    p = math.log(n) / n
    mean = n * (n - 1) * p
    sigma = math.sqrt(n * (n - 1) * p * (1 - p))
    samples = 200
    total = sum(len(sample_dnp(n, p, 10, seed).edges) for seed in range(samples))
    avg = total / samples
    assert abs(avg - mean) < 3 * sigma / math.sqrt(samples), avg


def test_sample_dnp_determinism():
    a = sample_dnp(30, 0.2, 4, 9)
    b = sample_dnp(30, 0.2, 4, 9)
    assert a.edges == b.edges


def sample_dnp_per_call(n, p, colour_count, seed):
    # the sampler as first written: one below() call per present edge
    total = n * (n - 1)
    crng = SplitMix64(derive_stream_seed(seed, COLOUR_STREAM))
    if p == 1.0:
        present = range(total)
    else:
        rng = SplitMix64(derive_stream_seed(seed, PRESENCE_STREAM))
        present = []
        k = -1
        while True:
            k += 1 + int(math.log(rng.unit_positive()) / math.log1p(-p))
            if k >= total:
                break
            present.append(k)
    return [(*pair_from_index(n, k), crng.below(colour_count)) for k in present]


def test_sample_dnp_colours_match_per_call_draws():
    for seed in range(6):
        for n, p, w in ((2, 1.0, 3), (7, 1.0, 5), (30, 0.2, 4), (50, 0.05, 1000)):
            edges = [tuple(e) for e in sample_dnp(n, p, w, seed).edges]
            assert edges == sample_dnp_per_call(n, p, w, seed), (seed, n, p)


def test_sample_dnp_indicator_independence():
    # empirical covariance of two fixed pair indicators is within noise of 0
    n, p, samples = 10, 0.3, 10_000
    xs = ys = xy = 0
    for seed in range(samples):
        g = sample_dnp(n, p, 2, seed)
        x = 1 if g.edge_colour(0, 1) is not None else 0
        y = 1 if g.edge_colour(5, 6) is not None else 0
        xs += x
        ys += y
        xy += x * y
    cov = xy / samples - (xs / samples) * (ys / samples)
    noise = p * (1 - p) / math.sqrt(samples)
    assert abs(cov) < 5 * noise, cov
