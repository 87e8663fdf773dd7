"""The .wgr text format: a line-oriented description of a weighted graph.

    # comment
    vertex <name> <mass>
    edge <name> <name> <conductance>
    boundary <name>

Any `str.splitlines` break ends a line (LF, CRLF, a lone CR, and the
other Unicode line breaks), and lines are numbered from 1 in that split.
Tokens are separated by whitespace. A line with no tokens is blank; a
line whose first token starts with `#` is a comment, so `#` inside a
name is part of the name and a trailing `# ...` after a directive makes
a malformed line. Vertex ids are assigned in declaration order; names
must be declared before use. Numbers are decimal doubles and are
serialized with repr(), so a parse/serialize round trip reproduces every
weight bit-exactly.
"""

from __future__ import annotations

import math
from typing import Optional

from . import errors
from .graph import VertexSet, WeightedGraph


def _parse_number(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise errors.ParseError(lineno, f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise errors.ParseError(lineno, f"{what} must be finite, got {token!r}")
    return value


def parse_wgr(text: str) -> tuple[WeightedGraph, Optional[VertexSet]]:
    """Parse a .wgr document into a graph and its optional boundary set.
    Each line is checked for its token count, then its names, then its
    number (bad, or not finite), and the first fault raises with its
    line. The graph rule (simple, connected, weights in range) is checked
    by the graph's constructor."""
    names: dict[str, int] = {}
    masses: list[float] = []
    edges: list[tuple[int, int, float]] = []
    boundary: list[int] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "edge":
            if len(tokens) != 4:
                raise errors.ParseError(lineno, "expected: edge <name> <name> <conductance>")
            _, a, b, token = tokens
            try:
                u, v = names[a], names[b]
            except KeyError as exc:
                raise errors.UnknownVertex(exc.args[0], lineno) from None
            edges.append((u, v, _parse_number(token, lineno, "conductance")))
        elif kind == "vertex":
            if len(tokens) != 3:
                raise errors.ParseError(lineno, "expected: vertex <name> <mass>")
            _, name, token = tokens
            if name in names:
                raise errors.DuplicateVertex(name, lineno)
            names[name] = len(masses)
            masses.append(_parse_number(token, lineno, "mass"))
        elif kind == "boundary":
            if len(tokens) != 2:
                raise errors.ParseError(lineno, "expected: boundary <name>")
            name = tokens[1]
            if name not in names:
                raise errors.UnknownVertex(name, lineno)
            if names[name] in boundary:
                raise errors.ParseError(lineno, f"boundary {name!r} declared twice")
            boundary.append(names[name])
        elif not kind.startswith("#"):
            raise errors.ParseError(lineno, f"unknown directive {kind!r}")

    if not masses:
        raise errors.ParseError(0, "no vertices declared")
    graph = WeightedGraph(tuple(masses), tuple(edges), tuple(names))
    return graph, (VertexSet.of(boundary) if boundary else None)


def serialize_wgr(graph: WeightedGraph, boundary: Optional[VertexSet] = None) -> str:
    """Inverse of parse_wgr: vertices in id order, edges sorted, boundary
    lines last. Raises BadRequest on a label parse_wgr would not read
    back as its vertex: one that is empty, holds whitespace, or names
    another vertex too."""
    names = [graph.label(v) for v in range(graph.vertex_count)]
    seen: set[str] = set()
    for v, name in enumerate(names):
        if name.split() != [name] or name in seen:
            raise errors.BadRequest(f"label {name!r} of vertex {v} is not a unique word")
        seen.add(name)
    lines = [f"vertex {name} {m!r}" for name, m in zip(names, graph.masses)]
    lines += [f"edge {names[u]} {names[v]} {k!r}" for (u, v, k) in graph.edges]
    if boundary is not None:
        lines += [f"boundary {graph.label(v)}" for v in boundary]
    return "\n".join(lines) + "\n"
