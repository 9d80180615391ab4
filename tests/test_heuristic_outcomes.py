"""Pin the constructor: the certificate or failure reason per case.

The oracle tests only check that a constructor's certificate is valid, so
a change to which tree the constructor builds, or to when it gives up,
would pass them unseen. golden/constructor_outcomes.json holds, per
(graph, root) case, the certificate's edges or the failure reason of
`heuristic_construct` on the 96 seed-1 inputs of the theorem-n200
benchmark workload at m_Z (the first prefix with at most one vertex of
in-degree zero), from that vertex, the one root hitting_times gives the
constructor there. A change meant to alter the constructor regenerates
the table with

    PYTHONPATH=src python3 tests/test_heuristic_outcomes.py
"""

import json
import pathlib

from arborsim.rainbow import heuristic_construct
from helpers import theorem_n200_cases

TABLE = pathlib.Path(__file__).parent / "golden" / "constructor_outcomes.json"


def _outcomes() -> list[list]:
    rows = []
    for name, g, root in theorem_n200_cases():
        outcome = heuristic_construct(g, root)
        if not outcome.success:
            rows.append([name, outcome.failure_reason])
        else:
            rows.append([name, sorted(list(e) for e in outcome.certificate.parent_edge.values())])
    return rows


def test_constructor_matches_golden_table():
    want = json.loads(TABLE.read_text())["theorem-n200"]
    got = _outcomes()
    assert [c[0] for c in got] == [c[0] for c in want]
    differ = [g[0] for g, w in zip(got, want) if g != w]
    assert not differ, f"{len(differ)} cases differ, first {differ[:5]}"


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(c, separators=(",", ":")) for c in _outcomes())
    TABLE.write_text(f'{{\n"theorem-n200": [\n{rows}\n]\n}}\n')
