import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import arborsim
from arborsim import edgelist
from arborsim.cli import build_parser, main
from arborsim.process import ProcessConfig, ProcessTrace, generate_trace
from arborsim.rainbow import _candidate_roots, _decide_by_colour_enumeration, decide
from arborsim.rng import SplitMix64

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def capture_help():
    parser = build_parser()
    sections = []
    for argv in ([["--help"]] +
                 [[sub, "--help"] for sub in ["simulate", "hitting-times", "decide",
                                              "assign", "mapping", "experiment"]]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        sections.append(buf.getvalue())
    return ("\n" + "=" * 72 + "\n").join(sections)


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture_help() == (GOLDEN / "cli_help.txt").read_text()


def test_help_lists_every_flag(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = capture_help()
    for flag in ["--n", "--colours", "--seed", "--m", "--out", "--r-mode",
                 "--budget-ms", "--undefined-as-last-step", "--input", "--root",
                 "--mode", "--samples", "--loopless", "--trials", "--c",
                 "--subsets", "--threads", "--check"]:
        assert flag in text, flag


def test_usage_error_exits_1():
    code, _, err = run_cli(["hitting-times", "--bogus"])
    assert code == 1 and "error" in err
    code, _, _ = run_cli(["decide"])  # missing --input
    assert code == 1


def assert_usage_error(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert f"argument {flag}" in err and "Traceback" not in err


def test_zero_trials_is_usage_error():
    for kind in ("theorem", "poisson", "coupon", "mapping"):
        assert_usage_error(["experiment", kind, "--n", "20", "--trials", "0",
                            "--threads", "1", "--check"], "--trials")
    assert_usage_error(["mapping", "--n", "20", "--samples", "0"], "--samples")


def test_zero_subsets_is_usage_error():
    assert_usage_error(["experiment", "degree", "--n", "100", "--trials", "1",
                        "--subsets", "0", "--threads", "1"], "--subsets")


def test_zero_threads_is_usage_error():
    assert_usage_error(["experiment", "coupon", "--n", "20", "--trials", "2",
                        "--threads", "0"], "--threads")
    assert_usage_error(["mapping", "--n", "20", "--threads", "0"], "--threads")


def test_negative_budget_is_usage_error():
    assert_usage_error(["hitting-times", "--n", "5", "--budget-ms", "-1"], "--budget-ms")
    assert_usage_error(["experiment", "theorem", "--n", "5", "--trials", "1",
                        "--budget-ms", "-5"], "--budget-ms")
    # a budget that float seconds cannot hold is a usage error, not an OverflowError
    huge = "9" * 401
    for argv in (["hitting-times", "--n", "5"], ["decide", "--input", "g.txt"],
                 ["experiment", "theorem", "--n", "5", "--trials", "1", "--threads", "1"]):
        assert_usage_error(argv + ["--budget-ms", huge], "--budget-ms")


def test_colour_count_outside_64_bits_is_usage_error():
    for colours in ("0", str(2**64 + 1), "100000000000000000000000"):
        assert_usage_error(["simulate", "--n", "3", "--colours", colours, "--m", "2"], "--colours")
        assert_usage_error(["hitting-times", "--n", "3", "--colours", colours], "--colours")
    code, out, _ = run_cli(["simulate", "--n", "3", "--colours", str(2**64), "--m", "2"])
    assert code == 0 and out.startswith(f"3 {2**64}\n")


def test_non_finite_c_is_usage_error():
    poisson = ["experiment", "poisson", "--n", "20", "--trials", "1", "--threads", "1"]
    for c in (["--c", "inf"], ["--c=-inf"], ["--c", "nan"]):
        assert_usage_error(poisson + c, "--c")


def test_seed_outside_64_bits_is_usage_error():
    for seed in ("-1", str(2**64)):
        assert_usage_error(["hitting-times", "--n", "5", "--seed", seed], "--seed")
        assert_usage_error(["simulate", "--n", "3", "--seed", seed], "--seed")
    code, out, _ = run_cli(["hitting-times", "--n", "2", "--seed", str(2**64 - 1)])
    assert code == 0 and f",{2**64 - 1}," in out


def test_ranges_wider_than_64_bits_are_one_line_errors():
    # more than 2^64 vertex pairs, or mapping points, cannot be sampled by
    # one 64-bit draw, so these stop at once instead of drawing forever
    for argv in (["simulate", "--n", "5000000000", "--m", "1"],
                 ["mapping", "--n", "40000000000000000000", "--samples", "1",
                  "--threads", "1"]):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert err.startswith("arborsim: ") and err.count("\n") == 1


def test_oversized_numbers_are_one_line_errors(tmp_path):
    # values that overflow a float-to-int conversion or a list size
    huge = str(10**23)
    argvs = [["experiment", "poisson", "--n", "3", "--c", "1e308", "--trials", "1"],
             ["experiment", "poisson", "--n", "2", "--c", "1e300", "--trials", "1"]]
    argvs += [["experiment", kind, "--n", huge, "--trials", "1"]
              for kind in ("poisson", "coupon", "theorem")]
    argvs.append(["hitting-times", "--n", huge])
    argvs += [["mapping", "--n", huge], ["experiment", "mapping", "--n", huge, "--trials", "1"]]
    for i, header in enumerate((f"{huge} 5", f"3 {huge}")):
        path = tmp_path / f"huge{i}.txt"
        path.write_text(header + "\n")
        argvs += [["decide", "--input", str(path)], ["assign", "--input", str(path)]]
    wording = ["m = inf outside [0, 6] for n = 3", "m = 2e+300 outside [0, 2] for n = 2"]
    wording += ["--n must be at most 2^32"] * 4
    wording += ["--n must be at most 2^64"] * 2
    wording += [f"vertex count n = {huge} is too large"] * 2 + [f"colour count W = {huge} is too large"] * 2
    for argv, words in zip(argvs, wording, strict=True):
        code, out, err = run_cli(argv)
        assert code == 1 and out == "", argv
        assert err.startswith("arborsim: ") and err.count("\n") == 1, argv
        assert "Traceback" not in err
        assert words in err, (argv, err)


def test_sizes_memory_cannot_hold_are_one_line_errors(tmp_path):
    # 2^62 list slots exceed any address space, so the allocation fails at
    # once, before any memory is touched
    big = 2**62
    argvs = [(["hitting-times", "--n", "3", "--colours", str(big)], f"colour count W = {big}"),
             (["mapping", "--n", str(big), "--loopless", "--samples", "1", "--threads", "1"],
              f"mapping size n = {big}")]
    for i, (header, words) in enumerate(((f"3 {big}", f"colour count W = {big}"),
                                         (f"{big} 5", f"vertex count n = {big}"))):
        path = tmp_path / f"big{i}.txt"
        path.write_text(header + "\n")
        argvs += [(["decide", "--input", str(path)], words), (["assign", "--input", str(path)], words)]
    for argv, words in argvs:
        code, out, err = run_cli(argv)
        assert code == 1 and out == "", argv
        assert err.startswith("arborsim: ") and err.count("\n") == 1, argv
        assert err.endswith(f"{words} is too large to hold in memory\n"), err


def test_theorem_check_at_n1000():
    code, out, err = run_cli(["experiment", "theorem", "--n", "1000", "--trials", "3",
                              "--threads", "1", "--check"])
    assert code == 0, err
    assert "# summary.unknown_count=0" in out


def test_oracle_guard_is_one_line_error(tmp_path):
    # K_10 with every in-edge of vertices 2..10 in colour 1: 9^9 in-edge
    # selections per root, beyond the oracle's enumeration guard
    path = tmp_path / "k10.txt"
    path.write_text("10 10\n" + "".join(
        f"{t} {h} {t if h == 1 else 1}\n"
        for t in range(1, 11) for h in range(1, 11) if t != h))
    for argv in (["decide", "--input", str(path), "--mode", "oracle"],
                 ["experiment", "theorem", "--n", "30", "--trials", "2",
                  "--r-mode", "oracle", "--threads", "1"]):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert err.startswith("arborsim: ") and err.count("\n") == 1


def test_io_error_exits_3(tmp_path):
    code, _, err = run_cli(["decide", "--input", str(tmp_path / "missing.txt")])
    assert code == 3 and "cannot read" in err
    code, _, err = run_cli(["simulate", "--n", "3", "--out",
                            str(tmp_path / "nodir" / "x.txt")])
    assert code == 3


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_3_without_a_traceback(tmp_path, unbuffered):
    # The pipe's reader is closed before the command starts, so its first
    # write to standard output, or the flush of its buffered output, fails.
    path = tmp_path / "tiny.txt"
    path.write_text("3 2\n1 2 1\n1 3 2\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(arborsim.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["decide", "--input", str(path)],  # prints a certificate
                 ["assign", "--input", str(path)],
                 ["simulate", "--n", "8", "--seed", "3", "--m", "24"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "arborsim.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(write)
        assert done.returncode == 3, (argv, done.stderr)
        assert done.stderr.startswith("arborsim: cannot write standard output: "), (argv, done.stderr)
        assert done.stderr.count("\n") == 1, (argv, done.stderr)


def test_hitting_times_n2():
    code, out, _ = run_cli(["hitting-times", "--n", "2", "--seed", "7"])
    assert code == 0
    row = out.strip().splitlines()[-1]
    n, w, seed, m_c, m_z, m_a, m_r, mode = row.split(",")
    assert (n, seed) == ("2", "7")
    assert m_c == m_z == m_a == m_r == "1"
    assert mode == "exact"


def test_hitting_times_undefined_and_convention():
    code, out, _ = run_cli(["hitting-times", "--n", "3", "--colours", "1",
                            "--seed", "5"])
    assert code == 0
    row = out.strip().splitlines()[-1]
    fields = row.split(",")
    assert fields[3] == "NA" and fields[6] == "NA"
    code, out, _ = run_cli(["hitting-times", "--n", "3", "--colours", "1",
                            "--seed", "5", "--undefined-as-last-step"])
    fields = out.strip().splitlines()[-1].split(",")
    assert fields[3] == fields[6] == "6"  # n(n-1) = 6
    # an unknown m_R is not an undefined one: it stays NA under the flag
    code, out, _ = run_cli(["hitting-times", "--n", "25", "--colours", "25",
                            "--seed", "3", "--r-mode", "exact", "--budget-ms", "0",
                            "--undefined-as-last-step"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "25,25,3,69,75,75,NA,unknown"


def test_decide_found(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("3 2\n1 2 1\n1 3 2\n")
    code, out, _ = run_cli(["decide", "--input", str(path), "--mode", "oracle"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "RAINBOW ARBORESCENCE FOUND"
    assert lines[1] == "root 1"
    assert "2 <- 1 1" in lines and "3 <- 1 2" in lines


def test_decide_not_found_and_one_sided(tmp_path):
    mono = tmp_path / "mono.txt"
    mono.write_text("3 1\n1 2 1\n1 3 1\n")
    for mode in ("oracle", "exact", "auto", "heuristic"):
        # too few distinct colours is a definitive no in every mode
        code, out, _ = run_cli(["decide", "--input", str(mono), "--mode", mode])
        assert code == 0 and out.strip() == "NO RAINBOW ARBORESCENCE"

    hard = tmp_path / "hard.txt"
    hard.write_text("6 5\n" + "\n".join(
        f"{t} {h} {c}" for t, h, c in
        [(6, 1, 3), (3, 6, 5), (2, 6, 1), (5, 4, 4),
         (1, 5, 5), (3, 1, 5), (1, 2, 3), (3, 4, 2)]) + "\n")
    # n - 1 colours and one in-degree-zero vertex, but no candidate root:
    # a definitive no in every mode as well
    for mode in ("heuristic", "exact"):
        code, out, _ = run_cli(["decide", "--input", str(hard), "--mode", mode])
        assert code == 0 and out.strip() == "NO RAINBOW ARBORESCENCE"

    # candidate root 2 only, where the heuristic fails and exact search
    # finds no rainbow arborescence
    beaten = tmp_path / "beaten.txt"
    beaten.write_text("5 5\n" + "\n".join(
        f"{t} {h} {c}" for t, h, c in
        [(1, 4, 4), (2, 3, 2), (1, 3, 3), (3, 4, 2), (5, 4, 1), (1, 5, 5), (4, 1, 2)]) + "\n")
    code, out, _ = run_cli(["decide", "--input", str(beaten), "--mode", "heuristic"])
    assert code == 0 and out.strip() == "NOT FOUND (heuristic search, one-sided)"
    code, out, _ = run_cli(["decide", "--input", str(beaten), "--mode", "exact"])
    assert code == 0 and out.strip() == "NO RAINBOW ARBORESCENCE"


def test_decide_respects_root(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("3 3\n1 2 1\n2 3 2\n3 1 3\n")
    code, out, _ = run_cli(["decide", "--input", str(path), "--root", "2"])
    assert code == 0 and "root 2" in out


def test_root_zero_names_the_one_based_rule(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("3 3\n1 2 1\n2 3 2\n3 1 3\n")
    for command in ("decide", "assign"):
        code, out, err = run_cli([command, "--input", str(path), "--root", "0"])
        assert code == 1 and out == ""
        assert "argument --root: root is 1-based (vertices 1..n), got 0" in err
        assert "_root" not in err


def test_root_past_n_is_out_of_range(tmp_path):
    path = tmp_path / "cycle8.txt"
    path.write_text("8 8\n" + "".join(f"{v} {v % 8 + 1} {v}\n" for v in range(1, 9)))
    for command in ("decide", "assign"):
        code, out, err = run_cli([command, "--input", str(path), "--root", "9"])
        assert code == 1 and out == ""
        assert err == "arborsim: root out of range 1..8\n"


# (n, trace seed, heads): the trace's shortest prefix with n - 1 colours and
# `heads` distinct heads, so n - 1 heads is the prefix at M = max(m_C, m_Z)
# and n heads leaves every vertex a candidate root. Exact mode runs the
# constructor first, so the thirteen found cases pin its certificates. The
# four with none reach the exact search: colour-class enumeration is
# inapplicable on the nine cases with n >= 40, so backtracking decides
# (60, 36) and (100, 1), and it applies to the eight with n <= 30, so
# enumeration decides (16, 2) and (25, 2).
EXACT_CASES = [(40, 2, 39), (60, 1, 59), (60, 36, 59), (80, 2, 79), (100, 1, 99),
               (100, 2, 99), (60, 4, 60), (80, 1, 80), (100, 3, 100),
               (20, 1, 19), (25, 4, 24), (16, 2, 15), (25, 2, 24),
               (16, 1, 16), (20, 2, 20), (25, 3, 25), (30, 4, 30)]


def capture_exact_decisions(tmp_path):
    sections = []
    for n, seed, heads_needed in EXACT_CASES:
        trace = ProcessTrace(ProcessConfig(n, "auto", seed))
        colours, heads, edges = set(), set(), []
        for e in trace.prefix(trace.total_edges):
            edges.append(e)
            colours.add(e.colour)
            heads.add(e.head)
            if len(colours) >= n - 1 and len(heads) >= heads_needed:
                break
        path = tmp_path / f"n{n}_s{seed}_h{heads_needed}.txt"
        with open(path, "w") as fh:
            edgelist.dump(n, trace.colour_count, edges, fh)
        with open(path) as fh:
            g = edgelist.load(fh)
        enumeration = _decide_by_colour_enumeration(g, _candidate_roots(g, None), None)
        assert (enumeration == "inapplicable") == (n >= 40)
        code, out, err = run_cli(["decide", "--input", str(path), "--mode", "exact"])
        assert code == 0 and err == ""
        sections.append(f"# n={n} seed={seed} heads={heads_needed} edges={len(edges)}\n{out}")
    return "".join(sections)


def test_exact_decide_matches_golden(tmp_path):
    assert capture_exact_decisions(tmp_path) == (GOLDEN / "decide_exact.txt").read_text()


def test_assign_success_and_witness(tmp_path):
    ok = tmp_path / "ok.txt"
    ok.write_text("3 2\n1 2 1\n1 3 2\n")
    code, out, _ = run_cli(["assign", "--input", str(ok), "--root", "1"])
    assert code == 0
    assert "2 -> 1" in out and "3 -> 2" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n1 2 1\n1 3 1\n")
    code, out, _ = run_cli(["assign", "--input", str(bad), "--root", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NO ASSIGNMENT"
    assert lines[1] == "S: 2 3" and lines[2] == "T: 1"


def test_simulate_round_trip(tmp_path):
    rng = SplitMix64(515)
    for case in range(100):
        n = 2 + rng.below(7)
        seed = rng.below(10**6)
        total = n * (n - 1)
        m = rng.below(total + 1)
        path = tmp_path / f"g{case}.txt"
        code, _, _ = run_cli(["simulate", "--n", str(n), "--seed", str(seed),
                              "--m", str(m), "--out", str(path)])
        assert code == 0
        with open(path) as fh:
            g = edgelist.load(fh)
        trace = generate_trace(ProcessConfig(n, "auto", seed))
        in_memory = trace.graph_at(m)
        assert g.edges == in_memory.edges
        assert (decide(g, mode="exact").outcome
                == decide(in_memory, mode="exact").outcome)


def test_simulate_stdout_matches_out_file(tmp_path):
    path = tmp_path / "t.txt"
    code, out, _ = run_cli(["simulate", "--n", "4", "--seed", "3"])
    assert code == 0
    code2, _, _ = run_cli(["simulate", "--n", "4", "--seed", "3", "--out", str(path)])
    assert code2 == 0
    assert out == path.read_text()


def test_mapping_subcommand():
    code, out, _ = run_cli(["mapping", "--n", "50", "--samples", "5",
                            "--seed", "2", "--loopless"])
    assert code == 0
    assert "sample,loops,cycles,largest_component,eta_statistic" in out
    assert "# summary.mean_loops=0.000000" in out


def test_experiment_check_pass_and_fail(tmp_path):
    out_path = tmp_path / "r.csv"
    code, _, _ = run_cli(["experiment", "coupon", "--n", "100", "--trials", "20",
                          "--seed", "3", "--threads", "1", "--check",
                          "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("# schema=1")

    # 3 trials cannot land within 0.05 of the c=0 limit 0.7358
    code, _, err = run_cli(["experiment", "poisson", "--n", "2000", "--trials", "3",
                            "--seed", "3", "--threads", "1", "--check"])
    assert code == 2 and "check failed" in err


def test_experiment_reproducible_across_runs(tmp_path):
    args = ["experiment", "mapping", "--n", "60", "--trials", "10",
            "--seed", "11", "--threads", "1"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2
