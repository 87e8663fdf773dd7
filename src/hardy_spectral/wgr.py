"""The .wgr text format: a line-oriented description of a weighted graph.

    # comment
    vertex <name> <mass>
    edge <name> <name> <conductance>
    boundary <name>

Vertex ids are assigned in declaration order; names must be declared before
use. Numbers are decimal doubles and are serialized with repr(), so a
parse/serialize round trip reproduces every weight bit-exactly.
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
    Numbers are checked here, with their line; the graph rule (simple,
    connected, weights in range) is checked by the graph's constructor."""
    names: dict[str, int] = {}
    masses: list[float] = []
    labels: list[str] = []
    edges: list[tuple[int, int, float]] = []
    boundary: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 3:
                raise errors.ParseError(lineno, "expected: vertex <name> <mass>")
            name = tokens[1]
            if name in names:
                raise errors.DuplicateVertex(name, lineno)
            names[name] = len(masses)
            labels.append(name)
            masses.append(_parse_number(tokens[2], lineno, "mass"))
        elif kind == "edge":
            if len(tokens) != 4:
                raise errors.ParseError(lineno, "expected: edge <name> <name> <conductance>")
            for name in tokens[1:3]:
                if name not in names:
                    raise errors.UnknownVertex(name, lineno)
            edges.append((names[tokens[1]], names[tokens[2]],
                          _parse_number(tokens[3], lineno, "conductance")))
        elif kind == "boundary":
            if len(tokens) != 2:
                raise errors.ParseError(lineno, "expected: boundary <name>")
            name = tokens[1]
            if name not in names:
                raise errors.UnknownVertex(name, lineno)
            if names[name] in boundary:
                raise errors.ParseError(lineno, f"boundary {name!r} declared twice")
            boundary.append(names[name])
        else:
            raise errors.ParseError(lineno, f"unknown directive {kind!r}")

    if not masses:
        raise errors.ParseError(0, "no vertices declared")
    graph = WeightedGraph(tuple(masses), tuple(edges), tuple(labels))
    return graph, (VertexSet.of(boundary) if boundary else None)


def serialize_wgr(graph: WeightedGraph, boundary: Optional[VertexSet] = None) -> str:
    """Inverse of parse_wgr: vertices in id order, edges sorted, boundary
    lines last."""
    lines = []
    for v in range(graph.vertex_count):
        lines.append(f"vertex {graph.label(v)} {graph.masses[v]!r}")
    for (u, v, k) in graph.edges:
        lines.append(f"edge {graph.label(u)} {graph.label(v)} {k!r}")
    if boundary is not None:
        for v in boundary:
            lines.append(f"boundary {graph.label(v)}")
    return "\n".join(lines) + "\n"
