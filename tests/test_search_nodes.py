"""Pin the backtracking search: grow frames entered and certificates returned.

The oracle tests cannot see a change in how much `_search_root` prunes: a
prune that is skipped only slows the search and never changes its answer.
The table in golden/search_nodes.json holds, per (graph, root) case, the
number of `grow` frames the search enters and the certificate it returns,
so a change to pruning, memoisation or branch order shows here. Frames are
counted with a profile hook, so the solver carries no counter.

The cases are 300 seeded small graphs (n 2-8, W in [n - 1, n + 1], m
uniform) from every root, and the first 8 seed-1 inputs of the exact-n200
benchmark workload (the prefix at M = max(m_C, m_Z) of an n = 200 trace)
from each candidate root in turn, up to the first certificate, as
decide_exact's backtracking tries them. A change meant to alter the search
regenerates the table with

    PYTHONPATH=src python3 tests/test_search_nodes.py
"""

import json
import pathlib
import sys

import pytest

from arborsim.digraph import ColouredDigraph
from arborsim.process import ProcessConfig, ProcessTrace
from arborsim.rainbow import _candidate_roots, _search_root
from arborsim.rng import SplitMix64, derive_trial_seed
from helpers import random_graph

GOLDEN = pathlib.Path(__file__).parent / "golden" / "search_nodes.json"


def _grow_frames(search):
    """search()'s result and the number of frames of code named grow it entered."""
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_name == "grow":
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = search()
    finally:
        sys.setprofile(previous)
    return result, frames


def _case(name: str, g: ColouredDigraph, root: int) -> dict:
    cert, frames = _grow_frames(lambda: _search_root(g, root, None))
    if cert is not None:
        cert = sorted(list(e) for e in cert.parent_edge.values())
    return {"case": name, "grow_frames": frames, "certificate": cert}


def _small_cases() -> list[dict]:
    rng = SplitMix64(161803)
    cases = []
    for i in range(300):
        n = 2 + rng.below(7)
        w = n - 1 + rng.below(3)
        g = random_graph(rng, n, w, rng.below(n * (n - 1) + 1))
        cases += [_case(f"small {i} root {r}", g, r) for r in range(n)]
    return cases


def _prefix_at_m(n: int, seed: int) -> ColouredDigraph:
    """The prefix of the n-vertex trace at M = max(m_C, m_Z), as exact-n200 builds it."""
    trace = ProcessTrace(ProcessConfig(n, "auto", seed))
    g = ColouredDigraph(n, trace.colour_count)
    for e in trace.prefix(trace.total_edges):
        g.add_edge(e)
        if g.distinct_colours >= n - 1 and g.zero_in_count <= 1:
            return g
    return g


def _exact_n200_cases() -> list[dict]:
    cases = []
    for i in range(8):
        # input i of the exact-n200 workload at benchmark seed 1
        g = _prefix_at_m(200, derive_trial_seed(1 * 10**6 + i, 0))
        for r in _candidate_roots(g, None):
            cases.append(_case(f"exact-n200 seed 1 input {i} root {r}", g, r))
            if cases[-1]["certificate"] is not None:
                break
    return cases


SECTIONS = {"small": _small_cases, "exact-n200": _exact_n200_cases}


@pytest.mark.parametrize("section", SECTIONS)
def test_search_matches_golden_table(section):
    want = json.loads(GOLDEN.read_text())[section]
    got = SECTIONS[section]()
    assert [c["case"] for c in got] == [c["case"] for c in want]
    differ = [g["case"] for g, w in zip(got, want) if g != w]
    frames = [sum(c["grow_frames"] for c in cases) for cases in (got, want)]
    assert not differ, f"{len(differ)} cases differ, first {differ[:5]}; grow frames {frames[0]}, table {frames[1]}"


if __name__ == "__main__":
    with GOLDEN.open("w") as fh:
        fh.write("{\n")
        for k, (section, build) in enumerate(SECTIONS.items()):
            rows = ",\n".join(json.dumps(c) for c in build())
            fh.write(f'"{section}": [\n{rows}\n]' + (",\n" if k + 1 < len(SECTIONS) else "\n"))
        fh.write("}\n")
