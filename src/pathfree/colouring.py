"""Edge-colouring primitives.

Three building blocks, each of which colours some edges of its input and
leaves the rest as an explicitly returned residual graph:

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
``colour_base .. colour_base + colours_used - 1``.  A result is an
:class:`EdgeColouring`, the sorted rows of a row mask of its input with each
row's colour in an aligned array; masks come from vertex masks over the
degree array, each threshold the exact integer floor or ceiling of its rational.
Sets are masks, partitions are part arrays: a refinement reports the vertices
it removed as a boolean mask over ``0..n-1``, and the star centres' colours
as a per-vertex int64 array with -1 off the centres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractViolation, InternalInvariantError, UsageError
from .graph import Edge, Graph, read_edge_rows, read_header_fields, row_order

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
    constructor trusts its rows to be sorted; :meth:`of` sorts any pairs."""

    edge_array: np.ndarray
    colours: np.ndarray

    def __post_init__(self) -> None:
        self.edge_array.flags.writeable = False
        self.colours.flags.writeable = False

    @staticmethod
    def of(
        pairs: Sequence[Edge] | np.ndarray, colours: Sequence[int] | np.ndarray
    ) -> "EdgeColouring":
        """Each pair with its colour, in any order; sorted, not canonicalised."""
        rows = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        colours = np.asarray(colours, dtype=np.int64)
        if colours.shape != (len(rows),):
            raise ContractViolation("a colouring needs one colour per edge")
        order = row_order(rows)
        return EdgeColouring(rows[order], colours[order])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColouring):
            return NotImplemented
        return np.array_equal(self.edge_array, other.edge_array) and np.array_equal(
            self.colours, other.colours
        )

    @cached_property
    def colours_used(self) -> int:
        return len(np.unique(self.colours))

    def colour_classes(self) -> dict[int, list[Edge]]:
        """Each colour's edges in ascending order, colours ascending."""
        order = np.argsort(self.colours, kind="stable")  # rows stay ascending
        used, starts = np.unique(self.colours[order], return_index=True)
        blocks = np.split(self.edge_array[order], starts[1:])
        return {c: list(map(tuple, b.tolist())) for c, b in zip(used.tolist(), blocks)}

    @cached_property
    def assignments(self) -> dict[Edge, int]:
        """The ``{(u, v): colour}`` dict, built on first read."""
        return dict(zip(map(tuple, self.edge_array.tolist()), self.colours.tolist()))


def proper_edge_colouring(g: Graph, colour_base: int = 0) -> EdgeColouring:
    """Colour all edges so adjacent edges differ, using <= max_degree+1 colours.

    Misra-Gries: for each uncoloured edge (u, v), build a maximal fan of u
    starting at v, free a colour at u by inverting a two-coloured path, then
    rotate a fan prefix.  With palette size max_degree+1 every vertex always
    has a free colour, and the fan lemma guarantees a rotatable prefix, so
    each edge is coloured in one pass.

    Each vertex keeps its used colours as one int bitmask (bit ``c`` set when
    colour ``c`` is at the vertex) beside its colour -> neighbour dict.  The
    next fan edge is the lowest colour that is used at u, free at the last
    fan vertex and not yet on a fan edge: the lowest set bit of
    ``mask[u] & ~mask[last] & ~fan_used``.  Since colours at u map one-to-one
    to u's coloured neighbours, this is the ascending scan over u's colours
    that skips fan vertices, in a constant number of big-int operations.  A
    free colour is the lowest zero bit of a mask.
    """
    palette = g.max_degree + 1
    # at[v] maps colour -> neighbour reached through the edge of that colour;
    # mask[v] has bit c set exactly when c is a key of at[v].
    at: list[dict[int, int]] = [dict() for _ in range(g.vertex_count)]
    mask = [0] * g.vertex_count
    colour_of: dict[Edge, int] = {}

    def set_colour(x: int, y: int, c: int) -> None:
        colour_of[(x, y) if x < y else (y, x)] = c
        at[x][c] = y
        at[y][c] = x
        mask[x] |= 1 << c
        mask[y] |= 1 << c

    def unset_colour(x: int, y: int) -> int:
        c = colour_of.pop((x, y) if x < y else (y, x))
        del at[x][c]
        del at[y][c]
        mask[x] ^= 1 << c
        mask[y] ^= 1 << c
        return c

    def free_colour(v: int) -> int:
        m = mask[v]
        c = ((m + 1) & ~m).bit_length() - 1
        if c >= palette:
            raise InternalInvariantError(f"no free colour at vertex {v}")
        return c

    def invert_path(u: int, c: int, d: int) -> None:
        # Maximal path from u alternating d, c (u has no c-edge). Proper
        # colourings make it simple, and it cannot return to u.
        hops: list[tuple[int, int, int]] = []
        prev, want = u, d
        while want in at[prev]:
            nxt = at[prev][want]
            hops.append((prev, nxt, want))
            prev, want = nxt, c if want == d else d
        for x, y, _ in hops:
            unset_colour(x, y)
        for x, y, col in hops:
            set_colour(x, y, c if col == d else d)

    for u, v in g.edge_array.tolist():
        # Maximal fan of u starting at v: each next fan edge's colour is
        # free at the previous fan vertex.  No colour at u reaches v, whose
        # edge is the uncoloured one.
        fan = [v]
        fan_used = 0
        at_u, mask_u = at[u], mask[u]
        while True:
            step = mask_u & ~mask[fan[-1]] & ~fan_used
            if not step:
                break
            step &= -step
            fan.append(at_u[step.bit_length() - 1])
            fan_used |= step

        c = free_colour(u)
        d = free_colour(fan[-1])
        if c != d and mask_u >> d & 1:
            invert_path(u, c, d)

        # First fan vertex with d free whose prefix is still a fan. The fan
        # lemma guarantees one exists after the inversion, which may have
        # recoloured one fan edge, so each edge's colour is read afresh.
        target = None
        for j, w in enumerate(fan):
            if j > 0:
                edge = (u, w) if u < w else (w, u)
                if mask[fan[j - 1]] >> colour_of[edge] & 1:
                    break  # prefix stopped being a fan; later vertices unusable
            if not mask[w] >> d & 1:
                target = j
                break
        if target is None:
            raise InternalInvariantError("fan rotation found no target vertex")

        shifted = [unset_colour(u, fan[i]) for i in range(1, target + 1)]
        for i in range(target):
            set_colour(u, fan[i], shifted[i])
        set_colour(u, fan[target], d)

    if len(colour_of) != g.edge_count:
        raise InternalInvariantError("proper colouring missed edges")
    raw = [colour_of[(u, v)] for u, v in g.edge_array.tolist()]
    _, compact = np.unique(raw, return_inverse=True)
    return EdgeColouring(g.edge_array, colour_base + compact)


@dataclass(frozen=True, eq=False)
class RefinementResult:
    """Partial colouring plus the residual left for later stages.

    ``vertices_removed`` masks the vertices whose incident edges were
    coloured (low-degree set or star centres).  For star refinements,
    ``parts`` holds each centre's colour offset from ``colour_base``, and -1
    for every other vertex, including a centre whose edges an earlier set
    claimed; it is None otherwise.  ``degree_bound_ok`` records whether the
    residual met the stage's degree target.
    """

    colouring: EdgeColouring
    residual: Graph
    threshold: Fraction
    vertices_removed: np.ndarray
    degree_bound_ok: bool
    parts: np.ndarray | None = None


def low_degree_refinement(g: Graph, r: int, colour_base: int = 0) -> RefinementResult:
    """Colour all edges at vertices of degree <= r/7; residual is the rest.

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

    inner, leaving, coloured = low_u & low_v, low_u != low_v, low_u | low_v
    colours = np.empty(g.edge_count, dtype=np.int64)
    proper = proper_edge_colouring(g.keep(inner), colour_base)
    colours[inner] = proper.colours
    first_range = proper.colours_used

    # edges leaving the low set, by (low end, high end); rank at low end = colour
    rows = g.edge_array[leaving]
    low_end = np.where(low_u[leaving], rows[:, 0], rows[:, 1])
    order = np.lexsort((rows.sum(axis=1) - low_end, low_end))
    low_end = low_end[order]
    rank = np.arange(len(rows)) - np.searchsorted(low_end, low_end)
    colours[np.flatnonzero(leaving)[order]] = colour_base + first_range + rank
    return RefinementResult(
        colouring=EdgeColouring(g.edge_array[coloured], colours[coloured]),
        residual=g.keep(~coloured),
        threshold=threshold,
        vertices_removed=low,
        degree_bound_ok=True,
    )


def star_refinement(
    g: Graph, s: int, k: int, colour_base: int = 0
) -> RefinementResult:
    """Colour the edges at up to ``s * floor(k/3)`` highest-degree vertices.

    Vertices of degree at least ``8 e / (k s)`` are packed, in decreasing
    degree order, into ``s`` centre sets of size at most ``floor(k/3)``; each
    edge touching a centre set is claimed by the first such set and takes its
    colour.  Vertices beyond the packing capacity stay in the residual, which
    then misses the degree target and is reported via ``degree_bound_ok``.
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
    used_ids, colours = np.unique(first[claimed], return_inverse=True)
    offset = np.full(unclaimed + 1, -1, dtype=np.int64)  # by set index
    offset[used_ids] = np.arange(len(used_ids))

    residual = g.keep(~claimed)
    if len(used_ids) > s:
        raise InternalInvariantError("star refinement exceeded its colour count")
    return RefinementResult(
        colouring=EdgeColouring(g.edge_array[claimed], colour_base + colours),
        residual=residual,
        threshold=threshold,
        vertices_removed=owner < unclaimed,
        degree_bound_ok=residual.max_degree < least,
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
    lines = ["# " + head]
    for (u, v), c in zip(g.edge_array.tolist(), colouring.colours.tolist()):
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def parse_colouring(text: str) -> tuple[Graph, EdgeColouring, dict[str, int]]:
    """Inverse of :func:`serialize_colouring`; a header may lack ``r`` and ``k``."""
    header = read_header_fields(text, ("n", "colours_used", "r", "k"))
    n, rows, extras = read_edge_rows(text, header.get("n"), ("colour",))
    colouring = EdgeColouring.of(rows, extras[:, 0])
    g = Graph(n, colouring.edge_array)
    if "colours_used" in header and colouring.colours_used != header["colours_used"]:
        raise UsageError(
            f"header declares {header['colours_used']} colours but rows use "
            f"{colouring.colours_used}"
        )
    return g, colouring, header
