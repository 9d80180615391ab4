"""Acceptance suite: one test per published criterion, full stated scale.

Each test prints one PASS/FAIL line with the measured numbers. Tolerances
are pinned here and nowhere else. Expect a few minutes of total runtime.
"""

import itertools
import math
import time

from arborsim.digraph import ColouredDigraph, ColouredEdge
from arborsim.experiments import (
    binomial_half_width,
    poisson_z_limit,
    run_coupon_experiment,
    run_mapping_experiment,
    run_poisson_experiment,
    run_theorem_experiment,
)
from arborsim.hitting import hitting_times
from arborsim.mappings import cycle_components, epidemic_spread, loop_count, sample_mapping
from arborsim.matching import build_colour_bigraph, find_colour_assignment, find_k_witness
from arborsim.process import ProcessConfig, generate_trace
from arborsim.rainbow import brute_force_oracle, decide_exact, heuristic_construct, verify_certificate
from arborsim.rng import SplitMix64, derive_trial_seed
from helpers import random_graph


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = SplitMix64(1001)
    disagreements = 0
    for _ in range(1000):
        n = 2 + rng.below(5)
        w = 1 + rng.below(5)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        if (brute_force_oracle(g) is None) != (decide_exact(g) is None):
            disagreements += 1
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0), (1, 2)]
    for colours in itertools.product(range(3), repeat=len(edges)):
        g = ColouredDigraph(4, 3)
        for (t, h), c in zip(edges, colours):
            g.add_edge(ColouredEdge(t, h, c))
        if (brute_force_oracle(g) is None) != (decide_exact(g) is None):
            disagreements += 1
    dt = time.time() - t0
    report(1, disagreements == 0 and dt < 60,
           f"1000 random + 729 exhaustive instances, "
           f"{disagreements} disagreements, {dt:.1f}s")


def test_criterion_02_hitting_time_chain():
    t0 = time.time()
    rng = SplitMix64(1002)
    violations = 0
    for trial in range(10_000):
        n = 2 + rng.below(29)
        trace = generate_trace(ProcessConfig(n, "auto", derive_trial_seed(1002, trial)))
        ht = hitting_times(trace)
        if not ht.m_z <= ht.m_a:
            violations += 1
        if ht.m_r is not None:
            if ht.m_c is None or ht.m_r < ht.m_a or ht.m_r < ht.m_c:
                violations += 1
    dt = time.time() - t0
    report(2, violations == 0 and dt < 120,
           f"10^4 traces n in [2,30], {violations} chain violations, {dt:.1f}s")


def test_criterion_03_theorem_at_desk_scale():
    t0 = time.time()
    stats = {}
    for n in (25, 50, 100):
        rep = run_theorem_experiment(n, 500, seed=1003)
        stats[n] = rep.summary
    dt = time.time() - t0
    p25, p50, p100 = (stats[n]["p_r_at_z"] for n in (25, 50, 100))
    unknown = max(stats[n]["unknown_rate"] for n in (25, 50, 100))

    def sigma(p, q):
        return math.sqrt(p * (1 - p) / 500 + q * (1 - q) / 500)

    ok = (p50 >= 0.80 and p100 >= 0.90
          and p50 >= p25 - 2 * sigma(p25, p50)
          and p100 >= p50 - 2 * sigma(p50, p100)
          and unknown < 0.01
          and dt < 1800)
    report(3, ok, f"P(R at m_Z): n=25 {p25:.3f}, n=50 {p50:.3f}, "
                  f"n=100 {p100:.3f}; unknown rate {unknown:.4f}; {dt:.1f}s")


def test_criterion_04_poisson_law():
    t0 = time.time()
    details = []
    ok = True
    for c in (-1.0, 0.0, 1.0):
        rep = run_poisson_experiment(2000, c, 1000, seed=1004)
        err = rep.summary["abs_err"]
        tv = rep.summary["tv_distance"]
        details.append(f"c={c:+.0f}: |err|={err:.4f} tv={tv:.4f}")
        ok = ok and err <= 0.05 and tv <= 0.08
    dt = time.time() - t0
    ok = ok and dt < 600
    report(4, ok, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_05_coupon_bound():
    t0 = time.time()
    rep = run_coupon_experiment(1000, 500, seed=1005)
    p = rep.summary["p_below"]
    dt = time.time() - t0
    report(5, p >= 0.99 and dt < 120,
           f"m_C < (n/2)log n in {p:.3f} of 500 trials at n=1000, {dt:.1f}s")


def test_criterion_06_matching_duality():
    rng = SplitMix64(1006)
    bad = 0
    for _ in range(1000):
        n = 2 + rng.below(11)
        w = 1 + rng.below(n + 2)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        b = build_colour_bigraph(g)
        root = rng.below(n)
        assignment = find_colour_assignment(b, root)
        witness = find_k_witness(b, root)
        if (assignment is None) == (witness is None):
            bad += 1
            continue
        if witness is not None:
            s, t = witness.vertices, witness.colours
            nbhd = set()
            for v in s:
                nbhd.update(b.adjacency[v])
            if len(t) != len(s) - 1 or not nbhd <= set(t):
                bad += 1
    report(6, bad == 0, f"10^3 instances, {bad} duality/witness violations")


def test_criterion_07_random_mapping_structure():
    t0 = time.time()
    n, samples = 1000, 10_000
    total_loops = 0
    structure_bad = 0
    for s in range(samples):
        m = sample_mapping(n, seed=derive_trial_seed(1007, s))
        total_loops += loop_count(m)
        comps = cycle_components(m)
        seen = sorted(v for comp in comps for v in comp.vertices)
        if seen != list(range(n)):
            structure_bad += 1
            continue
        for comp in comps:
            cyc = comp.cycle
            members = set(comp.vertices)
            if not cyc or not set(cyc) <= members:
                structure_bad += 1
                break
            if any(m.in_nbr[v] != cyc[(i + 1) % len(cyc)] for i, v in enumerate(cyc)):
                structure_bad += 1
                break
    mean_loops = total_loops / samples
    fixed_points = 0
    for s in range(samples):
        m = sample_mapping(n, loopless=True, seed=derive_trial_seed(2007, s))
        fixed_points += loop_count(m)
    dt = time.time() - t0
    ok = abs(mean_loops - 1.0) <= 0.05 and structure_bad == 0 and fixed_points == 0
    report(7, ok, f"mean loops {mean_loops:.4f}, {structure_bad} structure "
                  f"violations, {fixed_points} loopless fixed points, {dt:.1f}s")


def test_criterion_08_burtin_statistic():
    t0 = time.time()
    n = 10_000
    x = round(n ** (2 / 3))
    threshold = n ** (1 / 6)
    below = 0
    samples = 200
    for s in range(samples):
        seed = derive_trial_seed(1008, s)
        m = sample_mapping(n, loopless=True, seed=seed)
        rng = SplitMix64(seed)
        infected = set(rng.sample_distinct(n, x))
        eta = len(epidemic_spread(m, infected))
        if (x / n) ** 2 * (n - eta) < threshold:
            below += 1
    dt = time.time() - t0
    report(8, below >= 0.95 * samples and dt < 60,
           f"(x/n)^2(n-eta) < n^(1/6) in {below}/{samples} samples, {dt:.1f}s")


def test_criterion_09_heuristic_soundness_and_efficacy():
    t0 = time.time()
    successes = 0
    invalid = 0
    trials = 500
    for trial in range(trials):
        trace = generate_trace(ProcessConfig(100, "auto", derive_trial_seed(1009, trial)))
        ht = hitting_times(trace, r_mode="heuristic")
        g = trace.graph_at(ht.m_z)
        root = next(v for v in range(g.n) if not g.in_edges[v])
        outcome = heuristic_construct(g, root)
        if outcome.success:
            successes += 1
            if not verify_certificate(g, outcome.certificate):
                invalid += 1
    rate = successes / trials
    dt = time.time() - t0
    report(9, invalid == 0 and rate >= 0.7,
           f"heuristic success {rate:.3f} at n=100 m=m_Z, "
           f"{invalid} invalid certificates, {dt:.1f}s")


def test_criterion_10_reproducibility():
    runs = [run_mapping_experiment(200, 50, seed=1010).to_csv() for _ in range(2)]
    runs += [run_poisson_experiment(500, 0.0, 50, seed=1010).to_csv() for _ in range(2)]
    runs += [run_theorem_experiment(10, 50, seed=1010).to_csv() for _ in range(2)]
    ok = runs[0] == runs[1] and runs[2] == runs[3] and runs[4] == runs[5]
    report(10, ok, "mapping, poisson and theorem reports byte-identical on rerun")
