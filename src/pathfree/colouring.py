"""Edge-colouring primitives.

Three building blocks, each of which colours some edges of its input:

* :func:`proper_edge_colouring` properly colours all edges with at most
  ``max_degree + 1`` colours (Misra-Gries fan rotation).  Classes are
  matchings, so no class contains a path on 3 vertices.
* :func:`low_degree_refinement` colours every edge incident to a vertex of
  degree at most ``r/7``: properly inside the low-degree set, and with
  per-vertex distinct colours on the edges leaving it.  Classes are
  matchings or star forests, so no class contains a path on 4 vertices.
* :func:`star_refinement` removes up to ``s * floor(k/3)`` vertices of
  degree at least ``8 e / (k s)``, packing them into ``s`` centre sets of
  size at most ``floor(k/3)`` and giving all edges that touch a centre set
  the same colour.  Any path inside a class alternates between centre and
  non-centre vertices, so it sees fewer than ``k`` vertices whenever
  ``k >= 4``.

Colour indices in every result are compact: each primitive uses exactly
``0 .. colours_used - 1``, and the pipeline places each stage's range after
the colours spent before it.  A result is colours aligned to its input's
rows: the proper colouring is a total :class:`EdgeColouring` over
``g.edge_array``, and a refinement's ``colours`` holds one int64 entry per
input row, -1 on the rows it leaves to later stages, so what is left is
``g.keep(colours < 0)``.  The coloured rows come from vertex masks over the
degree array, each threshold the exact integer floor or ceiling of its
rational.  Sets are masks, partitions are part arrays: a refinement reports
the vertices it removed as a boolean mask over ``0..n-1``, and the star
centres' colours as a per-vertex int64 array with -1 off the centres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ContractViolation, InternalInvariantError, UsageError
from .graph import (
    Edge,
    Graph,
    read_edge_rows,
    read_header_fields,
    row_order,
    write_rows,
)

__all__ = [
    "EdgeColouring",
    "RefinementResult",
    "proper_edge_colouring",
    "low_degree_refinement",
    "star_refinement",
    "serialize_colouring",
    "parse_colouring",
]


@dataclass(frozen=True, eq=False)
class EdgeColouring:
    """Colours of some edges: sorted, distinct ``(m, 2)`` int64 rows and the
    aligned int64 ``colours``, both read-only; equal by value, unhashable.  The
    constructor trusts its rows to be sorted."""

    edge_array: np.ndarray
    colours: np.ndarray

    def __post_init__(self) -> None:
        if self.colours.shape != (len(self.edge_array),):
            raise ContractViolation("a colouring needs one colour per edge")
        self.edge_array.flags.writeable = False
        self.colours.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColouring):
            return NotImplemented
        return np.array_equal(self.edge_array, other.edge_array) and np.array_equal(
            self.colours, other.colours
        )

    @cached_property
    def colours_used(self) -> int:
        return len(np.unique(self.colours))

    @cached_property
    def assignments(self) -> dict[Edge, int]:
        """The ``{(u, v): colour}`` dict, built on first read."""
        return dict(zip(map(tuple, self.edge_array.tolist()), self.colours.tolist()))


def proper_edge_colouring(g: Graph) -> EdgeColouring:
    """Colour all edges so adjacent edges differ, using <= max_degree+1 colours.

    Misra-Gries: for each uncoloured edge (u, v), build a maximal fan of u
    starting at v, free a colour at u by inverting a two-coloured path, then
    rotate a fan prefix.  With palette size max_degree+1 every vertex always
    has a free colour, and the fan lemma guarantees a rotatable prefix, so
    each edge is coloured in one pass.

    Each vertex v keeps ``at[v]``, which maps each colour at v to the
    neighbour across that colour's edge, and the same colours as one int
    bitmask ``mask[v]`` (bit ``c`` set when colour ``c`` is at v).  The fan
    draws from ``rest``, u's colours not yet on a fan edge: the next fan edge
    is the lowest bit of ``rest & ~mask[last]``, used at u and free at the
    last fan vertex, and that bit leaves ``rest``.  Since colours at u map
    one-to-one to u's coloured neighbours, this is the ascending scan over
    u's colours that skips fan vertices.  A free colour is the lowest zero
    bit of a mask.

    The fan records each fan edge's colour.  The inversion swaps ``c`` and
    ``d`` along the path in place: an inner vertex keeps both colours, so it
    swaps its two ``at`` entries and keeps its mask, and only u and the far
    end change masks.  The one fan edge the inversion recolours is u's
    ``d``-edge, which a maximal fan always holds, as ``d`` is free at its
    last vertex.

    The edges are read from the two columns of ``g.edge_array``, with no
    list per row, and each endpoint is mapped to the one int object of its
    vertex, so the values of every ``at`` map share ``n`` ints.  The colours
    are read out of ``at`` once at the end, into arrays, and ``at`` and
    ``mask`` are dropped before the sort: each ``(x, y, colour)`` with
    ``x < y``, put in order by ``graph.row_order``, must give exactly
    ``g.edge_array``.
    """
    palette = g.max_degree + 1
    n = g.vertex_count
    # at[v] maps colour -> neighbour reached through the edge of that colour;
    # mask[v] has bit c set exactly when c is a key of at[v].
    at: list[dict[int, int]] = [dict() for _ in range(n)]
    mask = [0] * n
    ids = list(range(n)).__getitem__  # each endpoint as its vertex's one int
    first, second = g.edge_array.T

    for u, v in zip(map(ids, memoryview(first)), map(ids, memoryview(second))):
        # Maximal fan of u starting at v: each next fan edge's colour is
        # free at the previous fan vertex.  No colour at u reaches v, whose
        # edge is the uncoloured one.  cols[i] is the colour of the edge
        # from u to fan vertex i + 1, so that vertex is at_u[cols[i]].
        at_u = at[u]
        mask_u = mask[u]
        cols: list[int] = []
        rest, last = mask_u, v
        step = rest & ~mask[v]
        while step:
            step &= -step
            rest ^= step
            col = step.bit_length() - 1
            cols.append(col)
            last = at_u[col]
            step = rest & ~mask[last]

        c = ((mask_u + 1) & ~mask_u).bit_length() - 1
        m = mask[last]
        d = ((m + 1) & ~m).bit_length() - 1
        if c >= palette or d >= palette:
            raise InternalInvariantError(f"no free colour at vertex {u} or {last}")
        if mask_u >> d & 1:
            # Swap d and c along the maximal path from u alternating d, c.
            # u has no c-edge, so the path is simple and never returns to u.
            if d not in cols:
                raise InternalInvariantError("maximal fan lacks u's d-neighbour")
            cols[cols.index(d)] = c
            both = 1 << c | 1 << d
            x = at_u.pop(d)
            at_u[c] = x
            mask[u] = mask_u ^ both
            prev, have, want = u, d, c
            while True:
                at_x = at[x]
                nxt = at_x.get(want)
                if nxt is None:  # far end: its one path edge changes colour
                    del at_x[have]
                    at_x[want] = prev
                    mask[x] ^= both
                    break
                at_x[want] = prev
                at_x[have] = nxt
                prev, x = x, nxt
                have, want = want, have

        # First fan vertex with d free whose prefix is still a fan. The fan
        # lemma guarantees one exists after the inversion.
        w, target = v, 0
        while mask[w] >> d & 1:
            if target == len(cols) or mask[w] >> cols[target] & 1:
                raise InternalInvariantError("fan rotation found no target vertex")
            w = at_u[cols[target]]
            target += 1

        # Rotate: each fan edge before the target takes the colour of the
        # next one, which stays at u, and the target's edge takes d.
        w = v
        for col in cols[:target]:
            x = at_u[col]
            at_u[col] = w
            at[w][col] = u
            mask[w] |= 1 << col
            del at[x][col]
            mask[x] ^= 1 << col
            w = x
        at_u[d] = w
        at[w][d] = u
        mask[u] |= 1 << d
        mask[w] |= 1 << d

    # each coloured edge, once from its lower end, in row order; the maps
    # are gone before the sort
    sizes = np.fromiter(map(len, at), np.int64, n)
    total = int(sizes.sum())
    y = np.fromiter(chain.from_iterable(a.values() for a in at), np.int64, total)
    colours = np.fromiter(chain.from_iterable(at), np.int64, total)
    del at, mask, ids
    x = np.repeat(np.arange(n, dtype=np.int64), sizes)
    lower = x < y
    rows = np.stack([x[lower], y[lower]], axis=1)
    order = row_order(rows)
    if not np.array_equal(rows[order], g.edge_array):
        raise InternalInvariantError("proper colouring missed edges")
    _, compact = np.unique(colours[lower][order], return_inverse=True)
    return EdgeColouring(g.edge_array, compact)


@dataclass(frozen=True, eq=False)
class RefinementResult:
    """Each input row's colour, from 0, and -1 on the rows left to later stages.

    ``vertices_removed`` masks the vertices whose incident edges were
    coloured (low-degree set or star centres).  For star refinements,
    ``parts`` holds each centre's colour, and -1 for every other vertex,
    including a centre whose edges an earlier set claimed; it is None
    otherwise.  ``degree_bound_ok`` records whether the rows left met the
    stage's degree target.
    """

    colours: np.ndarray
    threshold: Fraction
    vertices_removed: np.ndarray
    degree_bound_ok: bool
    parts: np.ndarray | None = None


def low_degree_refinement(g: Graph, r: int) -> RefinementResult:
    """Colour all edges at vertices of degree <= r/7, and leave the rest.

    Inside the low-degree set a proper colouring takes at most
    ``floor(r/7) + 1`` colours.  Edges from a low vertex to a high one get
    per-low-vertex distinct colours from a second range of at most
    ``floor(r/7)`` colours, whose classes are star forests centred at high
    vertices: each such edge's colour is the rank of its high end among the
    low end's high neighbours.  Total is within ``r/3`` once ``r >= 42``;
    smaller ``r`` may exceed it, which the caller's stage record reports.
    """
    if r < 1:
        raise UsageError("colour budget r must be positive")
    threshold = Fraction(r, 7)
    low = g.degrees <= math.floor(threshold)
    low_u, low_v = low[g.edge_array.T]

    inner, leaving = low_u & low_v, low_u != low_v
    colours = np.full(g.edge_count, -1, dtype=np.int64)
    proper = proper_edge_colouring(g.keep(inner))
    colours[inner] = proper.colours
    first_range = proper.colours_used

    # edges leaving the low set, by (low end, high end); rank at low end = colour
    rows = g.edge_array[leaving]
    low_end = np.where(low_u[leaving], rows[:, 0], rows[:, 1])
    order = row_order(np.column_stack((low_end, rows.sum(axis=1) - low_end)))
    low_end = low_end[order]
    rank = np.arange(len(rows)) - np.searchsorted(low_end, low_end)
    colours[np.flatnonzero(leaving)[order]] = first_range + rank
    return RefinementResult(
        colours=colours,
        threshold=threshold,
        vertices_removed=low,
        degree_bound_ok=True,
    )


def star_refinement(g: Graph, s: int, k: int) -> RefinementResult:
    """Colour the edges at up to ``s * floor(k/3)`` highest-degree vertices.

    Vertices of degree at least ``8 e / (k s)`` are packed, in decreasing
    degree order, into ``s`` centre sets of size at most ``floor(k/3)``; each
    edge touching a centre set is claimed by the first such set and takes its
    colour.  Vertices beyond the packing capacity keep their unclaimed edges,
    which then miss the degree target, as ``degree_bound_ok`` reports.
    """
    if s < 1:
        raise UsageError("need at least one star colour")
    if k < 4:
        raise UsageError(
            "star classes contain 3-vertex paths, so k must be at least 4"
        )
    threshold = Fraction(8 * g.edge_count, k * s)
    least = max(1, math.ceil(threshold))  # deg >= least: an edge and deg*k*s >= 8e
    heavy = np.flatnonzero(g.degrees >= least)
    heavy = heavy[np.argsort(-g.degrees[heavy], kind="stable")]
    capacity = k // 3
    centres = heavy[: s * capacity]
    unclaimed = len(centres)  # above every set index
    owner = np.full(g.vertex_count, unclaimed, dtype=np.int64)
    owner[centres] = [i // capacity for i in range(len(centres))]  # k may pass int64
    first = owner[g.edge_array].min(axis=1)
    claimed = first < unclaimed
    used_ids = np.unique(first[claimed])
    if len(used_ids) > s:
        raise InternalInvariantError("star refinement exceeded its colour count")
    offset = np.full(unclaimed + 1, -1, dtype=np.int64)  # by set index
    offset[used_ids] = np.arange(len(used_ids))
    return RefinementResult(
        colours=offset[first],
        threshold=threshold,
        vertices_removed=owner < unclaimed,
        degree_bound_ok=g.keep(~claimed).max_degree < least,
        parts=offset[owner],
    )


def serialize_colouring(g: Graph, colouring: EdgeColouring, r: int, k: int) -> str:
    """Text form of a total colouring: ``u v colour`` rows.

    Follows the edge-list conventions: a ``# n=...`` comment header carries
    the vertex count, ``r`` and ``k``, so a verification run can be replayed
    from the file alone.  The colouring must cover exactly the edges of ``g``.
    """
    if not np.array_equal(colouring.edge_array, g.edge_array):
        raise ContractViolation("colouring must cover exactly the graph's edges")
    head = f"n={g.vertex_count} r={r} k={k} colours_used={colouring.colours_used}"
    return write_rows(head, *g.edge_array.T, colouring.colours)


def parse_colouring(text: str) -> tuple[Graph, EdgeColouring, dict[str, int]]:
    """Inverse of :func:`serialize_colouring`; a header may lack ``r`` and ``k``."""
    lines = text.splitlines()
    header = read_header_fields(lines, ("n", "colours_used", "r", "k"))
    n, rows, extras = read_edge_rows(lines, header.get("n"), ("colour",))
    colouring = EdgeColouring(rows, extras[:, 0])
    g = Graph(n, rows)
    if "colours_used" in header and colouring.colours_used != header["colours_used"]:
        raise UsageError(
            f"header declares {header['colours_used']} colours but rows use "
            f"{colouring.colours_used}"
        )
    return g, colouring, header
