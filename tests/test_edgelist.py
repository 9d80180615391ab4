import io
import re

import pytest

from arborsim import edgelist
from arborsim.digraph import ColouredDigraph, ColouredEdge, DuplicateEdgeError
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


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("3 2\n1 2 1\n2 2 1\n", ValueError, "line 3: self-loop rejected: (2, 2)"),
        ("3 2\n# c\n1 2 1\n2 2 1\n", ValueError, "line 4: self-loop rejected: (2, 2)"),
        ("3 2\n1 2 1\n1 2 2\n", DuplicateEdgeError, "line 3: edge (1, 2) already present"),
        ("3 2\n1 2 1\n# c\n1 2 2\n", DuplicateEdgeError, "line 4: edge (1, 2) already present"),
    ],
)
def test_self_loop_and_repeated_pair_name_their_line(text, error, message):
    # the first and third inputs are in dump's layout, so they start on the bulk path
    with pytest.raises(error) as info:
        edgelist.load(io.StringIO(text))
    assert type(info.value) is error and str(info.value) == message


# Loader equivalence: `load` parses chunks in dump's layout in bulk and every
# other chunk line by line. The reference is the line parser alone over the
# whole input in one chunk.

NEVER = re.compile(r"(?!)")
SLOTS = ColouredDigraph.__slots__


def line_parser_only(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(edgelist, "_CANONICAL", NEVER)
        m.setattr(edgelist, "_CHUNK_HINT", 0)  # readlines(0) reads every line
        return outcome(text)


def outcome(text):
    try:
        g = edgelist.load(io.StringIO(text))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    assert all(type(e) is ColouredEdge for e in g.edges)
    return {name: getattr(g, name) for name in SLOTS}


def edge_lines(rng, n, w, m):
    """`dump`'s lines for a random simple graph: header first."""
    g = random_graph(rng, n, w, m)
    buf = io.StringIO()
    edgelist.dump(g.n, g.colour_count, g.edges, buf)
    return buf.getvalue().splitlines(keepends=True)


def pick(rng, seq):
    return seq[rng.below(len(seq))]


def mutate(rng, lines, n, w):
    """Apply one non-canonical form or fault to one line (or the whole text)."""
    k = 1 + rng.below(len(lines) - 1) if len(lines) > 1 else 0
    line = lines[k]
    tail, head, colour = 1 + rng.below(n), 1 + rng.below(n), 1 + rng.below(w)
    kind = rng.below(20)
    if kind == 0:
        lines.insert(k, "# a comment\n")
    elif kind == 1:
        lines.insert(k, pick(rng, ["\n", "  \n", "\t\n"]))
    elif kind == 2:
        lines[k] = line.replace(" ", pick(rng, ["\r", "\x0b", "\x0c", " ", "  ", "\t"]), 1)
    elif kind == 3:
        lines[k] = "+" + line
    elif kind == 4:
        lines[k] = line.replace("1", "١")  # ARABIC-INDIC DIGIT ONE
    elif kind == 5:
        lines[-1] = lines[-1].rstrip("\n")
    elif kind == 6:
        lines[k] = pick(rng, [f"{tail} {head}\n", f"{tail} {head} {colour} 1\n", f"{tail}\n"])
    elif kind == 7:
        lines[k] = pick(rng, [f"{tail} x {colour}\n", f"{tail} {head} 1.5\n", f"1_0 {head} {colour}\n"])
    elif kind == 8:
        lines[k] = f"{pick(rng, [0, n + 1])} {head} {colour}\n"
    elif kind == 9:
        lines[k] = f"{tail} {pick(rng, [0, n + 1])} {colour}\n"
    elif kind == 10:
        lines[k] = f"{tail} {head} {pick(rng, [0, w + 1])}\n"
    elif kind == 11:
        lines[k] = f"{tail} {tail} {colour}\n"
    elif kind == 12 and k:
        lines.insert(1 + rng.below(len(lines) - 1), line)  # a duplicate edge
    elif kind == 13:
        lines[0] = pick(rng, [f"{n}\n", f"{n} {w} 1\n", f"0 {w}\n", f"{n} 0\n", "# no header\n"])
    elif kind == 14:
        lines[k] = "9" * 5000 + f" {head} {colour}\n"  # beyond int()'s default digit limit
    elif kind == 15:
        lines[k] = "\t " + line.replace(" ", " \t ")  # canonical: spaces and tabs only
    elif kind == 16:
        lines[k] = "0" + line  # canonical: a leading zero
    elif kind == 17:
        lines[k] = line.rstrip("\n") + "\r\n"
    elif kind == 18:
        lines[k] = line + "   "  # trailing spaces after the newline start the next line
    return lines


def fuzz_cases():
    rng = SplitMix64(20261019)
    cases = ["", "\n", "# only a comment\n", "3 2\n", "3 2", "1 1\n"]
    for _ in range(220):
        n = 2 + rng.below(6)
        w = 1 + rng.below(5)
        lines = edge_lines(rng, n, w, rng.below(n * (n - 1) + 1))
        for _ in range(rng.below(3)):
            lines = mutate(rng, lines, n, w)
        cases.append("".join(lines))
    return cases


def test_load_matches_line_parser(monkeypatch):
    rng = SplitMix64(7)
    for text in fuzz_cases():
        expected = line_parser_only(text, monkeypatch)
        assert outcome(text) == expected, text
        with monkeypatch.context() as m:
            m.setattr(edgelist, "_CHUNK_HINT", 1 + rng.below(40))
            assert outcome(text) == expected, text


def test_faults_in_later_chunks_keep_their_line_numbers(monkeypatch):
    rng = SplitMix64(11)
    lines = edge_lines(rng, 200, 3347, 6000)  # about 80 KB, two default chunks
    assert len("".join(lines)) > edgelist._CHUNK_HINT
    variants = [
        lines,
        lines + ["# trailing comment\n"],
        lines + [lines[1]],  # duplicate on the last line
        lines + ["1 1 1\n"],  # self-loop
        lines[:-1] + ["1 201 1\n"],
        lines[:3000] + ["# mid-file comment\n", "\n"] + lines[3000:],
        lines[:5000] + ["1 2\n"] + lines[5000:],
    ]
    for variant in variants:
        text = "".join(variant)
        expected = line_parser_only(text, monkeypatch)
        assert outcome(text) == expected
        with monkeypatch.context() as m:
            m.setattr(edgelist, "_CHUNK_HINT", 4096)
            assert outcome(text) == expected


def test_dump_output_takes_the_bulk_path(monkeypatch):
    def no_line_parser(*args):
        raise AssertionError("the line parser ran on dump's own layout")

    rng = SplitMix64(3)
    monkeypatch.setattr(edgelist, "_load_lines", no_line_parser)
    for hint in (edgelist._CHUNK_HINT, 1, 50):
        monkeypatch.setattr(edgelist, "_CHUNK_HINT", hint)
        for _ in range(20):
            n = 1 + rng.below(8)
            g = random_graph(rng, n, 4, rng.below(n * (n - 1) + 1))
            buf = io.StringIO()
            edgelist.dump(g.n, g.colour_count, g.edges, buf)
            assert edgelist.load(io.StringIO(buf.getvalue())).edges == g.edges
