"""Monte Carlo harness: seeded, reproducible trials with CSV reports.

Every trial derives its own seed from (master seed, trial index), so trials
can run on any number of workers and still produce byte-identical output;
rows are emitted in trial order and summaries are symmetric functions of
the rows. CSV layout: ``# schema=1`` header, ``# param.*`` lines, a column
header, data rows, then ``# summary.*`` lines. Floats use fixed 6-decimal
formatting throughout.
"""

from __future__ import annotations

import math
import os
from typing import Callable, NamedTuple, Sequence

from arborsim.hitting import hitting_times
from arborsim.mappings import cycle_components, epidemic_spread, loop_count, sample_mapping
from arborsim.process import ProcessConfig, epsilon, generate_trace, round_half_up
from arborsim.rng import INFECTION_STREAM, SplitMix64, derive_stream_seed, derive_trial_seed

SCHEMA = 1


def poisson_z_limit(c: float) -> float:
    """Limiting probability that at most one vertex has in-degree zero at
    m = n(log n + c): (1 + e^-c) * e^(-e^-c)."""
    lam = math.exp(-c)
    return (1.0 + lam) * math.exp(-lam)


def binomial_half_width(p: float, trials: int) -> float:
    """95% normal-approximation half-width for an empirical proportion."""
    if trials <= 0:
        return 0.0
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


class ExperimentReport(NamedTuple):
    name: str
    params: dict
    columns: list[str]
    rows: list[tuple]
    summary: dict

    def to_csv(self) -> str:
        lines = [f"# schema={SCHEMA}", f"# experiment={self.name}"]
        for key, value in self.params.items():
            lines.append(f"# param.{key}={_fmt(value)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        for key, value in self.summary.items():
            lines.append(f"# summary.{key}={_fmt(value)}")
        return "\n".join(lines) + "\n"


def _run_rows(worker: Callable, args: Sequence, threads: int) -> list:
    # The pool forks all its workers at the first submit, so never ask for
    # more than there are rows or CPUs.
    workers = min(threads, len(args), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in args]
    # Imported only when workers start: the pool's modules (multiprocessing,
    # socket, pickle, ...) take longer to load than a one-trial run's work.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(args) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args, chunksize=chunk))


# --- theorem: hitting times and whether R already holds at m_Z ---

def _theorem_trial(args: tuple) -> tuple:
    n, master_seed, trial, r_mode, budget_s = args
    seed = derive_trial_seed(master_seed, trial)
    trace = generate_trace(ProcessConfig(n, "auto", seed))
    ht = hitting_times(trace, r_mode=r_mode, budget_s=budget_s)
    heuristic_ok = 1 if ht.heuristic_at_z else 0
    a_eq_z = 1 if ht.m_a == ht.m_z else 0
    if ht.m_r is not None:
        r_at_z = 1 if ht.m_r == ht.m_z else 0
    elif ht.r_decision_mode == "exact":
        r_at_z = 0  # exactly determined that R never occurs on this trace
    else:
        r_at_z = None
    return (trial, seed, ht.m_c, ht.m_z, ht.m_a, ht.m_r, ht.r_decision_mode,
            a_eq_z, r_at_z, heuristic_ok)


def _summarize_theorem(rows: list[tuple], trials: int) -> dict:
    unknown = sum(1 for r in rows if r[8] is None)
    decided = trials - unknown
    a_eq_z = sum(r[7] for r in rows)
    r_at_z = sum(1 for r in rows if r[8] == 1)
    heur_fail = sum(1 for r in rows if r[9] == 0)
    p_a = a_eq_z / trials if trials else 0.0
    p_r = r_at_z / decided if decided else 0.0
    return {
        "trials": trials,
        "unknown_count": unknown,
        "unknown_rate": unknown / trials if trials else 0.0,
        "p_a_eq_z": p_a,
        "p_a_eq_z_half_width": binomial_half_width(p_a, trials),
        "p_r_at_z": p_r,
        "p_r_at_z_half_width": binomial_half_width(p_r, decided),
        "heuristic_failure_rate": heur_fail / trials if trials else 0.0,
    }


def run_theorem_experiment(n: int, trials: int, seed: int, r_mode: str = "auto",
                           budget_s: float | None = 10.0, threads: int = 1) -> ExperimentReport:
    params = {"n": n, "trials": trials, "seed": seed, "r_mode": r_mode,
              "budget_s": budget_s}
    args = [(n, seed, t, r_mode, budget_s) for t in range(trials)]
    rows = _run_rows(_theorem_trial, args, threads)
    columns = ["trial", "seed", "m_C", "m_Z", "m_A", "m_R", "r_decision_mode",
               "a_eq_z", "r_at_z", "heuristic_ok"]
    return ExperimentReport("theorem", params, columns, rows,
                            _summarize_theorem(rows, trials))


# --- poisson: zero-in-degree count at m = n(log n + c) ---

def _poisson_trial(args: tuple) -> tuple:
    n, master_seed, trial, m = args
    seed = derive_trial_seed(master_seed, trial)
    trace = generate_trace(ProcessConfig(n, "auto", seed))
    seen = bytearray(n)
    heads = 0
    for _, head in trace.prefix_pairs(m):
        if not seen[head]:
            seen[head] = 1
            heads += 1
    zero = n - heads
    return (trial, seed, zero, 1 if zero <= 1 else 0)


def _summarize_poisson(rows: list[tuple], trials: int, c: float) -> dict:
    p_z = sum(r[3] for r in rows) / trials if trials else 0.0
    limit = poisson_z_limit(c)
    lam = math.exp(-c)
    counts: dict[int, int] = {}
    for r in rows:
        counts[r[2]] = counts.get(r[2], 0) + 1
    k_max = max(counts) if counts else 0
    q_mass = 0.0
    tv = 0.0
    q = math.exp(-lam)
    for k in range(k_max + 1):
        if k > 0:
            q = q * lam / k
        p_hat = counts.get(k, 0) / trials if trials else 0.0
        tv += abs(p_hat - q)
        q_mass += q
    tv = 0.5 * (tv + max(0.0, 1.0 - q_mass))
    return {
        "trials": trials,
        "p_z": p_z,
        "limit": limit,
        "abs_err": abs(p_z - limit),
        "tv_distance": tv,
        "p_z_half_width": binomial_half_width(p_z, trials),
    }


def run_poisson_experiment(n: int, c: float, trials: int, seed: int,
                           threads: int = 1) -> ExperimentReport:
    m_real = n * (math.log(n) + c)
    # inf when |c| is near the float limit, which no int conversion takes
    m = round_half_up(m_real) if math.isfinite(m_real) else m_real
    total = n * (n - 1)
    if not 0 <= m <= total:
        # the float, not m: a huge |c| would print m with hundreds of digits
        raise ValueError(f"m = {m_real} outside [0, {total}] for n = {n}, c = {c}")
    params = {"n": n, "c": c, "m": m, "trials": trials, "seed": seed}
    args = [(n, seed, t, m) for t in range(trials)]
    rows = _run_rows(_poisson_trial, args, threads)
    columns = ["trial", "seed", "zero_in_count", "z_holds"]
    return ExperimentReport("poisson", params, columns, rows,
                            _summarize_poisson(rows, trials, c))


# --- coupon: time to see n-1 distinct colours ---

def _coupon_trial(args: tuple) -> tuple:
    n, master_seed, trial, bound = args
    seed = derive_trial_seed(master_seed, trial)
    trace = generate_trace(ProcessConfig(n, "auto", seed))
    need = n - 1
    seen = bytearray(trace.colour_count)
    distinct = 0
    m_c = None
    for i, colour in enumerate(trace.prefix_colours(trace.total_edges)):
        if not seen[colour]:
            seen[colour] = 1
            distinct += 1
            if distinct >= need:
                m_c = i + 1
                break
    below = 1 if m_c is not None and m_c < bound else 0
    return (trial, seed, m_c, below)


def _summarize_coupon(rows: list[tuple], trials: int, bound: float) -> dict:
    p_below = sum(r[3] for r in rows) / trials if trials else 0.0
    defined = [r[2] for r in rows if r[2] is not None]
    mean_m_c = sum(defined) / len(defined) if defined else 0.0
    return {
        "trials": trials,
        "bound": bound,
        "p_below": p_below,
        "mean_m_C": mean_m_c,
        "p_below_half_width": binomial_half_width(p_below, trials),
    }


def run_coupon_experiment(n: int, trials: int, seed: int, threads: int = 1) -> ExperimentReport:
    bound = (n / 2.0) * math.log(n)
    params = {"n": n, "trials": trials, "seed": seed, "bound": bound}
    args = [(n, seed, t, bound) for t in range(trials)]
    rows = _run_rows(_coupon_trial, args, threads)
    columns = ["trial", "seed", "m_C", "below_bound"]
    return ExperimentReport("coupon", params, columns, rows,
                            _summarize_coupon(rows, trials, bound))


# --- degree: colour-subset in-degrees and multiplicity caps ---

def _degree_trial(args: tuple) -> tuple:
    n, master_seed, trial, subsets = args
    seed = derive_trial_seed(master_seed, trial)
    trace = generate_trace(ProcessConfig(n, "auto", seed))
    w = trace.colour_count
    eps = epsilon(n)
    log_n = math.log(n)
    loglog_n = math.log(log_n)
    m_minus = math.floor(n * (log_n - loglog_n))
    m_plus = math.ceil(n * (log_n + loglog_n))
    m_plus = min(m_plus, trace.total_edges)
    g = trace.graph_at(m_plus)

    subset_size = round_half_up(45.0 * eps * n)
    subset_size = min(subset_size, w)
    deg_threshold = 43.0 * eps * log_n
    srng = SplitMix64(derive_stream_seed(seed, INFECTION_STREAM + 100))
    low_counts = []
    for _ in range(subsets):
        member = bytearray(w)
        for colour in srng.sample_distinct(w, subset_size):
            member[colour] = 1
        deg = [0] * n
        for e in g.edges[:m_minus]:
            if member[e.colour]:
                deg[e.head] += 1
        low_counts.append(sum(1 for v in range(n) if deg[v] <= deg_threshold))

    per_vertex_colour: dict[tuple[int, int], int] = {}
    for e in g.edges:
        for v in (e.tail, e.head):
            key = (v, e.colour)
            per_vertex_colour[key] = per_vertex_colour.get(key, 0) + 1
    max_mult = max(g.colour_mult)
    max_deg = max(d + len(out) for d, out in zip(g.in_deg, g.out_heads))
    max_same = max(per_vertex_colour.values()) if per_vertex_colour else 0
    return (trial, seed, max_mult, max_deg, max_same,
            min(low_counts), max(low_counts),
            sum(1 for x in low_counts if x > n / loglog_n))


def _summarize_degree(rows: list[tuple], trials: int, n: int) -> dict:
    log_n = math.log(n)
    cap = 10.0 * log_n
    return {
        "trials": trials,
        "colour_mult_cap": cap,
        "vertex_degree_cap": cap,
        "same_colour_cap": 10,
        "low_count_cap": n / math.log(log_n),
        "colour_mult_violations": sum(1 for r in rows if r[2] > cap),
        "vertex_degree_violations": sum(1 for r in rows if r[3] > cap),
        "same_colour_violations": sum(1 for r in rows if r[4] > 10),
        "low_count_violations": sum(r[7] for r in rows),
        "max_colour_mult": max(r[2] for r in rows) if rows else 0,
        "max_vertex_degree": max(r[3] for r in rows) if rows else 0,
        "max_same_colour": max(r[4] for r in rows) if rows else 0,
    }


def run_degree_property_experiment(n: int, seed: int, trials: int = 100,
                                   subsets: int = 50, threads: int = 1) -> ExperimentReport:
    """Degree and multiplicity statistics near the critical window.

    The low-in-degree band (subset in-degree threshold vs n/log log n) is
    reported but not enforced by --check: its constants only separate for
    astronomically large n, so at desk scale the count is expected to be
    the whole vertex set. The three multiplicity caps are enforced.
    """
    if n < 100:
        raise ValueError(f"degree experiment needs n >= 100, got {n}")
    params = {"n": n, "trials": trials, "subsets": subsets, "seed": seed}
    args = [(n, seed, t, subsets) for t in range(trials)]
    rows = _run_rows(_degree_trial, args, threads)
    columns = ["trial", "seed", "max_colour_mult", "max_vertex_degree",
               "max_same_colour_at_vertex", "low_count_min", "low_count_max",
               "low_count_violations"]
    return ExperimentReport("degree", params, columns, rows,
                            _summarize_degree(rows, trials, n))


# --- mapping: loops, cycles, component sizes, epidemic remainder ---

def _mapping_trial(args: tuple) -> tuple:
    n, master_seed, sample, loopless = args
    seed = derive_trial_seed(master_seed, sample)
    mapping = sample_mapping(n, loopless=loopless, seed=seed)
    loops = loop_count(mapping)
    comps = cycle_components(mapping)
    largest = max(len(c.vertices) for c in comps)
    x = round_half_up(n ** (2.0 / 3.0))
    rng = SplitMix64(derive_stream_seed(seed, INFECTION_STREAM))
    infected = set(rng.sample_distinct(n, x))
    eta = len(epidemic_spread(mapping, infected))
    stat = (x / n) ** 2 * (n - eta)
    return (sample, loops, len(comps), largest, stat)


def _summarize_mapping(rows: list[tuple], samples: int, n: int) -> dict:
    mean_loops = sum(r[1] for r in rows) / samples if samples else 0.0
    p_no_loop = sum(1 for r in rows if r[1] == 0) / samples if samples else 0.0
    mean_cycles = sum(r[2] for r in rows) / samples if samples else 0.0
    threshold = n ** (1.0 / 6.0)
    frac_below = sum(1 for r in rows if r[4] < threshold) / samples if samples else 0.0
    return {
        "samples": samples,
        "mean_loops": mean_loops,
        "p_no_loop": p_no_loop,
        "mean_cycles": mean_cycles,
        "eta_threshold": threshold,
        "eta_frac_below": frac_below,
    }


def run_mapping_experiment(n: int, samples: int, seed: int, loopless: bool = False,
                           threads: int = 1) -> ExperimentReport:
    params = {"n": n, "samples": samples, "seed": seed, "loopless": loopless}
    args = [(n, seed, s, loopless) for s in range(samples)]
    rows = _run_rows(_mapping_trial, args, threads)
    columns = ["sample", "loops", "cycles", "largest_component", "eta_statistic"]
    return ExperimentReport("mapping", params, columns, rows,
                            _summarize_mapping(rows, samples, n))


def check_report(report: ExperimentReport) -> list[str]:
    """Published acceptance thresholds per experiment; empty list means pass."""
    s = report.summary
    violations = []
    if report.name == "poisson":
        if s["abs_err"] > 0.05:
            violations.append(f"abs_err {s['abs_err']:.6f} > 0.05")
        if s["tv_distance"] > 0.08:
            violations.append(f"tv_distance {s['tv_distance']:.6f} > 0.08")
    elif report.name == "coupon":
        if s["p_below"] < 0.99:
            violations.append(f"p_below {s['p_below']:.6f} < 0.99")
    elif report.name == "theorem":
        if s["unknown_rate"] >= 0.01:
            violations.append(f"unknown_rate {s['unknown_rate']:.6f} >= 0.01")
    elif report.name == "mapping":
        if not report.params.get("loopless") and abs(s["mean_loops"] - 1.0) > 0.05:
            violations.append(f"mean_loops {s['mean_loops']:.6f} outside 1 +- 0.05")
        if s["eta_frac_below"] < 0.95:
            violations.append(f"eta_frac_below {s['eta_frac_below']:.6f} < 0.95")
    elif report.name == "degree":
        for key in ("colour_mult_violations", "vertex_degree_violations",
                    "same_colour_violations"):
            if s[key] > 0:
                violations.append(f"{key} = {s[key]}")
    return violations
