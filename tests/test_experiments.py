import math
import pathlib

import pytest

from arborsim import experiments, rainbow
from arborsim.experiments import (
    ExperimentReport,
    binomial_half_width,
    check_report,
    parse_report_csv,
    poisson_z_limit,
    run_coupon_experiment,
    run_degree_property_experiment,
    run_mapping_experiment,
    run_poisson_experiment,
    run_theorem_experiment,
    _summarize_coupon,
    _summarize_mapping,
    _summarize_poisson,
    _summarize_theorem,
)


def test_poisson_limit_values():
    assert abs(poisson_z_limit(0.0) - 2 / math.e) < 1e-12
    assert abs(poisson_z_limit(0.0) - 0.735759) < 1e-6
    assert abs(poisson_z_limit(1.0) - 0.946847) < 1e-6
    assert abs(poisson_z_limit(-1.0) - 0.245362) < 1e-6


def test_half_widths_fit_acceptance_tolerances():
    # worst case p = 0.5 at the stated trial counts vs the published bands
    assert binomial_half_width(0.5, 1000) <= 0.05  # poisson trials
    assert binomial_half_width(0.5, 500) <= 0.05  # theorem / coupon trials
    assert binomial_half_width(0.5, 10000) <= 0.05  # mapping samples


def test_coupon_bound_fails_below_n10():
    # (n/2) log n < 1 = m_C at n = 2, so tiny n is excluded by construction
    assert (2 / 2) * math.log(2) < 1
    assert (10 / 2) * math.log(10) > 1


def test_reports_reproducible_and_parseable():
    a = run_poisson_experiment(50, 0.0, 40, seed=9)
    b = run_poisson_experiment(50, 0.0, 40, seed=9)
    assert a.to_csv() == b.to_csv()
    c = run_poisson_experiment(50, 0.0, 40, seed=10)
    assert a.to_csv() != c.to_csv()

    parsed = parse_report_csv(a.to_csv())
    assert parsed.name == "poisson"
    assert parsed.params["n"] == "50"
    assert len(parsed.rows) == 40
    assert parsed.columns == a.columns


def test_threads_do_not_change_output():
    runs = (
        lambda threads: run_mapping_experiment(60, 30, seed=3, threads=threads),
        lambda threads: run_theorem_experiment(12, 20, seed=3, threads=threads),
        lambda threads: run_poisson_experiment(300, 0.5, 20, seed=3, threads=threads),
    )
    for run in runs:
        assert run(1).to_csv() == run(2).to_csv()


def test_summaries_recomputable_from_rows():
    report = run_coupon_experiment(60, 50, seed=5)
    again = _summarize_coupon(report.rows, 50, report.params["bound"])
    assert again == report.summary

    report = run_poisson_experiment(60, 0.5, 50, seed=5)
    assert _summarize_poisson(report.rows, 50, 0.5) == report.summary

    report = run_mapping_experiment(80, 40, seed=5)
    assert _summarize_mapping(report.rows, 40, 80) == report.summary

    report = run_theorem_experiment(8, 30, seed=5)
    assert _summarize_theorem(report.rows, 30) == report.summary


def test_theorem_experiment_tiny_n_is_certain():
    report = run_theorem_experiment(2, 20, seed=1)
    assert report.summary["p_a_eq_z"] == 1.0
    assert report.summary["p_r_at_z"] == 1.0
    assert report.summary["unknown_count"] == 0


def test_theorem_oracle_and_exact_modes_agree_per_trial():
    a = run_theorem_experiment(5, 300, seed=77, r_mode="oracle")
    b = run_theorem_experiment(5, 300, seed=77, r_mode="exact")
    pick = lambda rows: [(r[0], r[2], r[3], r[4], r[5], r[7], r[8]) for r in rows]
    assert pick(a.rows) == pick(b.rows)


# (n, trials, r_mode) at seed 505. Together these reach every heuristic_ok
# path: certified at m_Z, failed with m_Z = max(m_A, m_C), and skipped
# because m_Z < max(m_A, m_C); the heuristic-mode case also has unknowns.
THEOREM_CASES = [(8, 200, "oracle"), (25, 300, "exact"), (25, 300, "auto"),
                 (25, 300, "heuristic"), (100, 20, "auto")]


def test_theorem_reports_match_golden():
    text = "".join(run_theorem_experiment(n, trials, seed=505, r_mode=mode,
                                          threads=1).to_csv()
                   for n, trials, mode in THEOREM_CASES)
    golden = pathlib.Path(__file__).parent / "golden" / "theorem_report.csv"
    assert text == golden.read_text()


def test_heuristic_at_m_z_runs_once_per_trial(monkeypatch):
    calls = []  # per trial: (edge count, root) of every heuristic attempt
    real_heuristic = rainbow.heuristic_construct
    real_hitting_times = experiments.hitting_times

    def heuristic(g, root):
        calls[-1].append((len(g), root))
        return real_heuristic(g, root)

    def hitting(*args, **kwargs):
        calls.append([])
        return real_hitting_times(*args, **kwargs)

    monkeypatch.setattr(rainbow, "heuristic_construct", heuristic)
    monkeypatch.setattr(experiments, "hitting_times", hitting)
    report = run_theorem_experiment(25, 100, seed=11, r_mode="auto", threads=1)
    certified = [trial for trial, row in zip(calls, report.rows) if row[9] == 1]
    assert len(calls) == 100 and certified
    for trial in certified:
        assert len(trial) == len(set(trial)), trial


def test_poisson_small_run_sane():
    report = run_poisson_experiment(300, 0.0, 150, seed=2)
    assert 0.4 < report.summary["p_z"] < 1.0
    assert 0.0 <= report.summary["tv_distance"] <= 1.0
    m = report.params["m"]
    assert m == math.floor(300 * math.log(300) + 0.5)


def test_poisson_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        run_poisson_experiment(5, 50.0, 3, seed=1)


def test_coupon_small_run():
    report = run_coupon_experiment(100, 30, seed=4)
    assert report.summary["p_below"] == 1.0
    for row in report.rows:
        assert row[2] is not None and row[2] >= 99


def test_degree_experiment_structure():
    report = run_degree_property_experiment(120, seed=6, trials=3, subsets=4)
    assert len(report.rows) == 3
    cap = 10 * math.log(120)
    assert report.summary["colour_mult_violations"] == 0
    assert report.summary["max_colour_mult"] <= cap
    assert report.summary["max_vertex_degree"] <= cap
    assert report.summary["max_same_colour"] <= 10
    with pytest.raises(ValueError):
        run_degree_property_experiment(50, seed=6)


def test_mapping_experiment_columns():
    report = run_mapping_experiment(100, 20, seed=8)
    assert report.columns == ["sample", "loops", "cycles", "largest_component",
                              "eta_statistic"]
    assert all(len(r) == 5 for r in report.rows)
    loopless = run_mapping_experiment(100, 20, seed=8, loopless=True)
    assert all(r[1] == 0 for r in loopless.rows)


def test_check_report_flags_violations():
    good = run_coupon_experiment(100, 30, seed=4)
    assert check_report(good) == []
    bad = ExperimentReport("coupon", {}, [], [], {"p_below": 0.5})
    assert check_report(bad)
    fake_poisson = ExperimentReport("poisson", {}, [], [],
                                    {"abs_err": 0.2, "tv_distance": 0.01})
    assert len(check_report(fake_poisson)) == 1


def test_csv_format_is_stable():
    report = run_mapping_experiment(50, 5, seed=1)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "# experiment=mapping"
    assert any(line.startswith("# param.n=50") for line in lines)
    assert "sample,loops,cycles,largest_component,eta_statistic" in lines
    assert any(line.startswith("# summary.mean_loops=") for line in lines)
    # floats pinned to 6 decimals
    for line in lines:
        if line.startswith("# summary.mean_loops="):
            value = line.split("=", 1)[1]
            assert len(value.split(".")[1]) == 6
