"""Unified command-line entry point.

Subcommands: simulate, hitting-times, decide, assign, mapping, experiment.
Exit codes: 0 success, 1 usage error, 2 --check threshold violation,
3 I/O failure. The default seed is the fixed constant 1729 so runs are
reproducible unless ``--seed random`` is given explicitly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from arborsim import edgelist
from arborsim.digraph import ColouredDigraph
from arborsim.experiments import (
    check_report,
    run_coupon_experiment,
    run_degree_property_experiment,
    run_mapping_experiment,
    run_poisson_experiment,
    run_theorem_experiment,
)
from arborsim.hitting import hitting_times
from arborsim.matching import build_colour_bigraph, find_colour_assignment, find_k_witness
from arborsim.process import ProcessConfig, generate_trace
from arborsim.rainbow import MODES, OracleTooLargeError, decide

DEFAULT_SEED = 1729
# The process draws its n(n - 1) ordered pairs below 2^64.
MAX_PROCESS_N = 2**32


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    if text == "random":
        return int.from_bytes(os.urandom(8), "big") >> 1
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _budget_ms(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    if value >= 10**308:  # divided into float seconds, which top out near 1.8e308
        raise argparse.ArgumentTypeError(f"must be below 10^308, got {text}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _colours(text: str):
    if text == "auto":
        return text
    value = int(text)
    # colours are drawn below the colour count W by one 64-bit draw
    if not 1 <= value <= 2**64:
        raise argparse.ArgumentTypeError(f"must be 'auto' or in [1, 2^64], got {text}")
    return value


def _root(text: str):
    if text in ("any", "auto"):
        return None
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"root is 1-based (vertices 1..n), got {text}")
    return value - 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arborsim",
                     description="Coloured random digraph process: traces, "
                                 "hitting times, rainbow arborescence "
                                 "decisions, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="export a trace as an edge list")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--colours", type=_colours, default="auto",
                   help="colour count or 'auto' (default auto)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help=f"64-bit seed or 'random' (default {DEFAULT_SEED})")
    p.add_argument("--m", type=int, default=None,
                   help="export only the first m edges (default: all)")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("hitting-times", help="hitting times of one trace")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--colours", type=_colours, default="auto",
                   help="colour count or 'auto' (default auto)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help=f"64-bit seed or 'random' (default {DEFAULT_SEED})")
    p.add_argument("--r-mode", choices=MODES[1:],
                   default="auto", help="rainbow decision mode (default auto)")
    p.add_argument("--budget-ms", type=_budget_ms, default=10000,
                   help="per-decision budget in ms (default 10000)")
    p.add_argument("--undefined-as-last-step", action="store_true",
                   help="report undefined m_C/m_R as n(n-1) instead of NA")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("decide", help="decide rainbow arborescence existence")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--root", type=_root, default=None,
                   help="1-based root id or 'any' (default any)")
    p.add_argument("--mode", choices=MODES,
                   default="auto", help="decision procedure (default auto)")
    p.add_argument("--budget-ms", type=_budget_ms, default=10000,
                   help="decision budget in ms (default 10000)")

    p = sub.add_parser("assign", help="injective vertex->colour assignment or witness")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--root", type=_root, default=None,
                   help="1-based root id or 'auto' (default: lowest in-degree)")

    p = sub.add_parser("mapping", help="random mapping statistics")
    p.add_argument("--n", type=int, required=True, help="mapping size")
    p.add_argument("--samples", type=_positive, default=100,
                   help="number of samples (default 100)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help=f"64-bit seed or 'random' (default {DEFAULT_SEED})")
    p.add_argument("--loopless", action="store_true",
                   help="forbid fixed points")
    p.add_argument("--threads", type=_positive, default=os.cpu_count() or 1,
                   help="worker processes (default: available parallelism)")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("experiment", help="Monte Carlo experiment with CSV report")
    p.add_argument("kind", choices=["theorem", "poisson", "coupon", "degree", "mapping"],
                   help="which experiment to run")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--trials", type=_positive, default=100,
                   help="trial count (default 100)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help=f"64-bit master seed or 'random' (default {DEFAULT_SEED})")
    p.add_argument("--c", type=_finite, default=0.0,
                   help="offset c in m = n(log n + c), poisson only (default 0)")
    p.add_argument("--r-mode", choices=MODES,
                   default="auto", help="rainbow decision mode, theorem only")
    p.add_argument("--budget-ms", type=_budget_ms, default=10000,
                   help="per-decision budget in ms, theorem only (default 10000)")
    p.add_argument("--subsets", type=_positive, default=50,
                   help="colour subsets per trial, degree only (default 50)")
    p.add_argument("--loopless", action="store_true",
                   help="loopless mappings, mapping only")
    p.add_argument("--threads", type=_positive, default=os.cpu_count() or 1,
                   help="worker processes (default: available parallelism)")
    p.add_argument("--check", action="store_true",
                   help="exit 2 if a published threshold is violated")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"arborsim: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _load_graph(path: str) -> ColouredDigraph | int:
    try:
        with open(path, encoding="utf-8") as fh:
            return edgelist.load(fh)
    except OSError as exc:
        print(f"arborsim: cannot read {path}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"arborsim: bad edge list {path}: {exc}", file=sys.stderr)
        return 1


def _cmd_simulate(args) -> int:
    import io

    trace = generate_trace(ProcessConfig(args.n, args.colours, args.seed))
    m = trace.total_edges if args.m is None else args.m
    if not 0 <= m <= trace.total_edges:
        print(f"arborsim: --m must be in [0, {trace.total_edges}]", file=sys.stderr)
        return 1
    buf = io.StringIO()
    trace.export(buf, m)
    return _emit(buf.getvalue(), args.out)


def _cmd_hitting_times(args) -> int:
    trace = generate_trace(ProcessConfig(args.n, args.colours, args.seed))
    ht = hitting_times(trace, r_mode=args.r_mode, budget_s=args.budget_ms / 1000.0)
    last = trace.total_edges

    def show(value):
        if value is not None:
            return str(value)
        return str(last) if args.undefined_as_last_step else "NA"

    m_r = "NA" if ht.r_decision_mode == "unknown" else show(ht.m_r)  # unknown, not undefined
    text = ("# n,W,seed,m_C,m_Z,m_A,m_R,r_decision_mode\n"
            f"{trace.n},{trace.colour_count},{args.seed},{show(ht.m_c)},"
            f"{ht.m_z},{ht.m_a},{m_r},{ht.r_decision_mode}\n")
    return _emit(text, args.out)


def _cmd_decide(args) -> int:
    g = _load_graph(args.input)
    if isinstance(g, int):
        return g
    if args.root is not None and not 0 <= args.root < g.n:
        print(f"arborsim: root out of range 1..{g.n}", file=sys.stderr)
        return 1
    result = decide(g, mode=args.mode, root=args.root,
                    budget_s=args.budget_ms / 1000.0)
    if result.outcome == "found":
        cert = result.certificate
        print("RAINBOW ARBORESCENCE FOUND")
        print(f"root {cert.root + 1}")
        for v in sorted(cert.parent_edge):
            e = cert.parent_edge[v]
            print(f"{v + 1} <- {e.tail + 1} {e.colour + 1}")
    elif result.outcome == "unknown":
        print("UNKNOWN (budget exceeded)")
    elif result.decided_by == "heuristic":
        print("NOT FOUND (heuristic search, one-sided)")
    else:
        print("NO RAINBOW ARBORESCENCE")
    return 0


def _cmd_assign(args) -> int:
    g = _load_graph(args.input)
    if isinstance(g, int):
        return g
    root = args.root
    if root is None:
        root = min(range(g.n), key=lambda v: (g.in_deg[v], v))
    elif not 0 <= root < g.n:
        print(f"arborsim: root out of range 1..{g.n}", file=sys.stderr)
        return 1
    bigraph = build_colour_bigraph(g)
    assignment = find_colour_assignment(bigraph, root)
    if assignment is not None:
        print(f"root {root + 1}")
        for v in sorted(assignment.mapping):
            print(f"{v + 1} -> {assignment.mapping[v] + 1}")
        return 0
    witness = find_k_witness(bigraph, root)
    assert witness is not None
    print("NO ASSIGNMENT")
    print("S: " + " ".join(str(v + 1) for v in witness.vertices))
    print("T: " + " ".join(str(c + 1) for c in witness.colours))
    return 0


def _cmd_mapping(args) -> int:
    report = run_mapping_experiment(args.n, args.samples, args.seed,
                                    loopless=args.loopless,
                                    threads=args.threads)
    return _emit(report.to_csv(), args.out)


def _cmd_experiment(args) -> int:
    kind = args.kind
    if kind == "theorem":
        report = run_theorem_experiment(args.n, args.trials, args.seed,
                                        r_mode=args.r_mode,
                                        budget_s=args.budget_ms / 1000.0,
                                        threads=args.threads)
    elif kind == "poisson":
        report = run_poisson_experiment(args.n, args.c, args.trials, args.seed,
                                        threads=args.threads)
    elif kind == "coupon":
        report = run_coupon_experiment(args.n, args.trials, args.seed,
                                       threads=args.threads)
    elif kind == "degree":
        report = run_degree_property_experiment(args.n, args.seed,
                                                trials=args.trials,
                                                subsets=args.subsets,
                                                threads=args.threads)
    else:
        report = run_mapping_experiment(args.n, args.trials, args.seed,
                                        loopless=args.loopless,
                                        threads=args.threads)
    code = _emit(report.to_csv(), args.out)
    if code != 0:
        return code
    if args.check:
        violations = check_report(report)
        if violations:
            for v in violations:
                print(f"arborsim: check failed: {v}", file=sys.stderr)
            return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    mapping = args.command == "mapping" or (
        args.command == "experiment" and args.kind == "mapping")
    process = args.command in ("simulate", "hitting-times", "experiment") and not mapping
    if process and args.n > MAX_PROCESS_N:
        print(f"arborsim: --n must be at most 2^32, as the process draws its "
              f"n(n - 1) ordered pairs below 2^64, got {args.n}", file=sys.stderr)
        return 1
    if mapping and args.n > 2**64:
        print(f"arborsim: --n must be at most 2^64, as a mapping draws each "
              f"in-neighbour below n, got {args.n}", file=sys.stderr)
        return 1
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "hitting-times":
            return _cmd_hitting_times(args)
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "assign":
            return _cmd_assign(args)
        if args.command == "mapping":
            return _cmd_mapping(args)
        return _cmd_experiment(args)
    except (ValueError, OverflowError, OracleTooLargeError) as exc:
        print(f"arborsim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
