"""Shared edge-list text format.

First data line is ``n W``; every following line is one edge in process
order, ``tail head colour``, whitespace-separated and 1-based. Blank lines
and ``#`` comment lines are ignored. Internally everything is 0-based.
"""

from __future__ import annotations

from typing import IO, Iterable

from arborsim.digraph import ColouredDigraph, ColouredEdge


def dump(n: int, colour_count: int, edges: Iterable[ColouredEdge], fh: IO[str]) -> None:
    fh.write(f"{n} {colour_count}\n")
    for e in edges:
        fh.write(f"{e.tail + 1} {e.head + 1} {e.colour + 1}\n")


def load(fh: IO[str]) -> ColouredDigraph:
    header: tuple[int, int] | None = None
    g: ColouredDigraph | None = None
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from exc
        if header is None:
            if len(values) != 2:
                raise ValueError(f"line {lineno}: header must be 'n W', got {line!r}")
            header = (values[0], values[1])
            g = ColouredDigraph(*header)
            continue
        if len(values) != 3:
            raise ValueError(f"line {lineno}: edge line must be 'tail head colour', got {line!r}")
        tail, head, colour = values
        n, w = header
        if not (1 <= tail <= n and 1 <= head <= n):
            raise ValueError(f"line {lineno}: vertex out of range 1..{n}")
        if not 1 <= colour <= w:
            raise ValueError(f"line {lineno}: colour out of range 1..{w}")
        assert g is not None
        g.add_edge(ColouredEdge(tail - 1, head - 1, colour - 1))
    if g is None:
        raise ValueError("empty edge-list input: missing 'n W' header")
    return g
