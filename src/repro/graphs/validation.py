"""Validators for vertex, edge, and list colorings.

Each definition is checked once: :func:`vertex_coloring_problems` and
:func:`edge_coloring_problems` list every way a coloring breaks it, and
every other validator — the wrappers below, the contract audit in
:mod:`repro.verify`, the weaker-output check in :mod:`repro.core.weaker`
— is built on them.  They are straight re-checks of the definitions,
independent of the algorithms, so a bug in an algorithm cannot hide in
its validator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import starmap
from operator import gt

from .graph import Edge, Graph, canonical_edge

__all__ = [
    "assert_proper_edge_coloring",
    "assert_proper_vertex_coloring",
    "edge_coloring_problems",
    "is_proper_edge_coloring",
    "is_proper_list_coloring",
    "is_proper_vertex_coloring",
    "vertex_coloring_conflicts",
    "vertex_coloring_problems",
]


def vertex_coloring_problems(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
    num_colors: int | None = None,
) -> list[str]:
    """Every way ``colors`` fails to be a proper vertex coloring (empty = proper).

    One message per kind, with a count and examples: uncolored vertices,
    colors outside ``range(1, num_colors + 1)`` (the paper's ``[Δ+1]``;
    checked only when ``num_colors`` is given) and monochromatic edges.
    """
    get = _getter(colors)
    missing, outside = [], []
    for v in graph.vertices():
        color = get(v)
        if color is None:
            missing.append(v)
        elif num_colors is not None and not 1 <= color <= num_colors:
            outside.append(v)
    problems: list[str] = []
    _note(problems, missing, "vertices uncolored")
    _note(problems, outside, f"vertices outside palette [1..{num_colors}]")
    _note(problems, vertex_coloring_conflicts(graph, colors), "monochromatic edges")
    return problems


def vertex_coloring_conflicts(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
) -> list[Edge]:
    """All monochromatic edges under a (possibly partial) coloring."""
    get = _getter(colors)
    conflicts = []
    for u, v in graph.edges():
        cu = get(u)
        if cu is not None and cu == get(v):
            conflicts.append((u, v))
    return conflicts


def edge_coloring_problems(
    graph: Graph,
    colors: Mapping[Edge, int],
    num_colors: int | None = None,
) -> list[str]:
    """Every way ``colors`` fails to be a proper edge coloring (empty = proper).

    One message per kind, with a count and examples: uncolored edges,
    colors outside ``range(1, num_colors + 1)`` (checked only when
    ``num_colors`` is given) and incident edges that share a color.  Keys
    may name an edge in either orientation; non-edges are ignored.
    """
    if any(starmap(gt, colors)):
        colors = {canonical_edge(u, v): c for (u, v), c in colors.items()}
    get = colors.get
    missing, outside, clashes = [], [], []
    # One walk over the rows meets each edge from both ends: per-edge facts
    # are noted from the lower end, a clash once at the shared vertex.
    for v in graph.vertices():
        seen: dict[int, Edge] = {}
        for u in graph.iter_neighbors(v):
            edge = (v, u) if v < u else (u, v)
            color = get(edge)
            if color is None:
                if v < u:
                    missing.append(edge)
                continue
            if v < u and num_colors is not None and not 1 <= color <= num_colors:
                outside.append(edge)
            first = seen.setdefault(color, edge)
            if first is not edge:
                clashes.append(f"edges {first} and {edge} share color {color} at {v}")
    problems: list[str] = []
    _note(problems, missing, "edges uncolored")
    _note(problems, outside, f"edges outside palette [1..{num_colors}]")
    _note(problems, clashes, "color clashes")
    return problems


def is_proper_vertex_coloring(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
    num_colors: int | None = None,
) -> bool:
    """True if every vertex is colored (within ``[1..num_colors]`` if given)
    and no edge is monochromatic."""
    return not vertex_coloring_problems(graph, colors, num_colors)


def assert_proper_vertex_coloring(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
    num_colors: int | None = None,
) -> None:
    """Raise ``AssertionError`` with a diagnostic if the coloring is improper."""
    _raise_if_any(vertex_coloring_problems(graph, colors, num_colors))


def is_proper_edge_coloring(
    graph: Graph,
    colors: Mapping[Edge, int],
    num_colors: int | None = None,
) -> bool:
    """True if every edge is colored and incident edges get distinct colors."""
    return not edge_coloring_problems(graph, colors, num_colors)


def assert_proper_edge_coloring(
    graph: Graph,
    colors: Mapping[Edge, int],
    num_colors: int | None = None,
) -> None:
    """Raise ``AssertionError`` with a diagnostic if the edge coloring is improper."""
    _raise_if_any(edge_coloring_problems(graph, colors, num_colors))


def is_proper_list_coloring(
    graph: Graph,
    colors: Mapping[int, int],
    lists: Mapping[int, set[int]],
) -> bool:
    """True if the coloring is proper and every vertex uses its own list."""
    return not vertex_coloring_problems(graph, colors) and all(
        colors[v] in lists.get(v, ()) for v in graph.vertices()
    )


def _getter(colors: Mapping[int, int] | Sequence[int]):
    """``v`` → color (None if absent) for a mapping or a sequence."""
    if isinstance(colors, Mapping):
        return colors.get
    size = len(colors)
    return lambda v: colors[v] if 0 <= v < size else None


def _note(problems: list[str], items: list, what: str) -> None:
    if items:
        problems.append(f"{len(items)} {what}, e.g. {items[:3]}")


def _raise_if_any(problems: list[str]) -> None:
    if problems:
        raise AssertionError("; ".join(problems))
