"""Shared edge-list text format.

First data line is ``n W``; every following line is one edge in process
order, ``tail head colour``, whitespace-separated and 1-based. Blank lines
and ``#`` comment lines are ignored. Internally everything is 0-based.

`load` reads the input in chunks of about _CHUNK_HINT characters, never
all at once. A chunk in the layout `dump` writes (an optional ``n W`` line
where the header is due, then ``tail head colour`` lines of ASCII digits,
spaces and tabs, each ending in a newline) is parsed in bulk; every other
chunk, and any chunk holding a fault, goes through the line-by-line
parser, whose error messages name the line. Both paths insert the edges
through `ColouredDigraph.add_edge` in file order, so they build the same
graph and raise the same errors: a bulk chunk that `add_edge` rejects is
undone and read again line by line.
"""

from __future__ import annotations

import re
from typing import IO, Iterable

from arborsim.digraph import ColouredDigraph, ColouredEdge, DuplicateEdgeError

_CHUNK_HINT = 1 << 16
_CANONICAL = re.compile(
    r"(?P<header>[ \t]*[0-9]+[ \t]+[0-9]+[ \t]*\n)?"
    r"(?:[ \t]*[0-9]+[ \t]+[0-9]+[ \t]+[0-9]+[ \t]*\n)*"
)


def dump(n: int, colour_count: int, edges: Iterable[ColouredEdge], fh: IO[str]) -> None:
    fh.write(f"{n} {colour_count}\n")
    for e in edges:
        fh.write(f"{e.tail + 1} {e.head + 1} {e.colour + 1}\n")


def load(fh: IO[str]) -> ColouredDigraph:
    g: ColouredDigraph | None = None
    lineno = 0
    while lines := fh.readlines(_CHUNK_HINT):
        bulk = _load_canonical("".join(lines), g)
        g = _load_lines(lines, lineno, g) if bulk is None else bulk
        lineno += len(lines)
    if g is None:
        raise ValueError("empty edge-list input: missing 'n W' header")
    return g


def _load_canonical(text: str, g: ColouredDigraph | None) -> ColouredDigraph | None:
    """Insert a chunk in dump's layout into g, or the graph its header opens.

    Returns None, having changed nothing, when the chunk is in any other
    layout, has a header where none is due or none where one is, holds a
    number that is not an integer of the line parser, or holds an edge that
    add_edge rejects; the line parser then reports the fault with its line.
    """
    match = _CANONICAL.fullmatch(text)
    if match is None or (match["header"] is None) == (g is None):
        return None
    try:
        values = list(map(int, text.split()))
    except ValueError:  # e.g. more digits than int() converts
        return None
    opened = g is None
    if opened:
        g = ColouredDigraph(values[0], values[1])
        del values[:2]
    size = len(g)
    add, new = g.add_edge, tuple.__new__
    try:
        for t, h, c in zip(values[::3], values[1::3], values[2::3]):
            add(new(ColouredEdge, (t - 1, h - 1, c - 1)))
    except ValueError:  # includes DuplicateEdgeError; a graph opened here is dropped
        while not opened and len(g) > size:
            g.pop_edge()
        return None
    return g


def _load_lines(lines: list[str], lineno: int, g: ColouredDigraph | None) -> ColouredDigraph | None:
    """Line-by-line parser: add `lines`, numbered after `lineno`, to g.

    g is None until the header is read. Accepts any whitespace, blank lines
    and comments, and names the line of every fault.
    """
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from exc
        if g is None:
            if len(values) != 2:
                raise ValueError(f"line {lineno}: header must be 'n W', got {line!r}")
            g = ColouredDigraph(values[0], values[1])
            continue
        if len(values) != 3:
            raise ValueError(f"line {lineno}: edge line must be 'tail head colour', got {line!r}")
        tail, head, colour = values
        n, w = g.n, g.colour_count
        if not (1 <= tail <= n and 1 <= head <= n):
            raise ValueError(f"line {lineno}: vertex out of range 1..{n}")
        if not 1 <= colour <= w:
            raise ValueError(f"line {lineno}: colour out of range 1..{w}")
        if tail == head:
            raise ValueError(f"line {lineno}: self-loop rejected: ({tail}, {head})")
        try:
            g.add_edge(ColouredEdge(tail - 1, head - 1, colour - 1))
        except DuplicateEdgeError:
            raise DuplicateEdgeError(f"line {lineno}: edge ({tail}, {head}) already present") from None
    return g
