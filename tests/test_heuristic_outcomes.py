"""Pin the constructors: the certificate or failure reason per case.

The oracle tests only check that a constructor's certificate is valid, so
a change to which tree a constructor builds, or to when it gives up, would
pass them unseen. Each golden table holds, per (graph, root) case, the
certificate's edges or the failure reason.

golden/heuristic_outcomes.json pins the attach construction
(`_attach_construct`) on 240 seeded small graphs (n 2-12, W in
[n - 1, n + 2], m uniform) from every root, and on the 96 seed-1 inputs of
the theorem-n200 benchmark workload at m_Z (the first prefix with at most
one vertex of in-degree zero) from that vertex, the one root
hitting_times gives the constructor there. golden/constructor_outcomes.json
pins `heuristic_construct`, local search and then the attach construction,
on the same 96 inputs. A change meant to alter a constructor regenerates
the tables with

    PYTHONPATH=src python3 tests/test_heuristic_outcomes.py
"""

import functools
import json
import pathlib

import pytest

from arborsim.digraph import ColouredDigraph
from arborsim.process import ProcessConfig, ProcessTrace
from arborsim.rainbow import _attach_construct, heuristic_construct
from arborsim.rng import SplitMix64, derive_trial_seed
from helpers import random_graph

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _case(construct, name: str, g: ColouredDigraph, root: int) -> list:
    outcome = construct(g, root)
    if not outcome.success:
        return [name, outcome.failure_reason]
    return [name, sorted(list(e) for e in outcome.certificate.parent_edge.values())]


def _small_cases(construct) -> list[list]:
    rng = SplitMix64(271828)
    cases = []
    for i in range(240):
        n = 2 + rng.below(11)
        w = n - 1 + rng.below(4)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        cases += [_case(construct, f"small {i} root {r}", g, r) for r in range(n)]
    return cases


@functools.cache
def _prefix_at_z(n: int, seed: int) -> ColouredDigraph:
    trace = ProcessTrace(ProcessConfig(n, "auto", seed))
    g = ColouredDigraph(n, trace.colour_count)
    for e in trace.prefix(trace.total_edges):
        g.add_edge(e)
        if g.zero_in_count <= 1:
            break
    return g


def _theorem_n200_cases(construct) -> list[list]:
    cases = []
    for i in range(96):
        # op i of the theorem-n200 workload at benchmark seed 1
        g = _prefix_at_z(200, derive_trial_seed(1 * 10**6 + i, 0))
        cases.append(_case(construct, f"theorem-n200 seed 1 input {i}", g, g.in_edges.index([])))
    return cases


# golden file -> (constructor, {section: case builder})
TABLES = {
    "heuristic_outcomes.json": (
        _attach_construct, {"small": _small_cases, "theorem-n200": _theorem_n200_cases}),
    "constructor_outcomes.json": (heuristic_construct, {"theorem-n200": _theorem_n200_cases}),
}


def _check(table: str, section: str) -> None:
    construct, sections = TABLES[table]
    want = json.loads((GOLDEN / table).read_text())[section]
    got = sections[section](construct)
    assert [c[0] for c in got] == [c[0] for c in want]
    differ = [g[0] for g, w in zip(got, want) if g != w]
    assert not differ, f"{len(differ)} cases differ, first {differ[:5]}"


@pytest.mark.parametrize("section", ["small", "theorem-n200"])
def test_heuristic_matches_golden_table(section):
    _check("heuristic_outcomes.json", section)


def test_constructor_matches_golden_table():
    _check("constructor_outcomes.json", "theorem-n200")


if __name__ == "__main__":
    for table, (construct, sections) in TABLES.items():
        with (GOLDEN / table).open("w") as fh:
            fh.write("{\n")
            for k, (section, build) in enumerate(sections.items()):
                rows = ",\n".join(json.dumps(c, separators=(",", ":")) for c in build(construct))
                fh.write(f'"{section}": [\n{rows}\n]' + (",\n" if k + 1 < len(sections) else "\n"))
            fh.write("}\n")
