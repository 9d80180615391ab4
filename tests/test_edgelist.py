import io

import pytest

from arborsim import edgelist
from arborsim.digraph import DuplicateEdgeError
from arborsim.rng import SplitMix64
from helpers import random_graph


def test_round_trip():
    rng = SplitMix64(5)
    for _ in range(50):
        n = 2 + rng.below(8)
        g = random_graph(rng, n, 4, rng.below(n * (n - 1) + 1))
        buf = io.StringIO()
        edgelist.dump(g.n, g.colour_count, g.edges, buf)
        g2 = edgelist.load(io.StringIO(buf.getvalue()))
        assert g2.n == g.n and g2.colour_count == g.colour_count
        assert g2.edges == g.edges


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n3 2\n# an edge\n1 2 1\n\n2 3 2\n"
    g = edgelist.load(io.StringIO(text))
    assert g.n == 3 and len(g.edges) == 2
    assert g.edges[0] == (0, 1, 0)
    assert g.edges[1] == (1, 2, 1)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n1 2\n",
        "3 2\n0 2 1\n",
        "3 2\n1 4 1\n",
        "3 2\n1 2 3\n",
        "3 2\nx y z\n",
    ],
)
def test_bad_input_rejected(text):
    with pytest.raises(ValueError):
        edgelist.load(io.StringIO(text))


def test_duplicate_edge_in_file():
    with pytest.raises(DuplicateEdgeError):
        edgelist.load(io.StringIO("3 2\n1 2 1\n1 2 2\n"))
