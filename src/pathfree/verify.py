"""Ground-truth checking of colourings against the long-path ban.

The package's convention throughout: a "path on k vertices" means k distinct
vertices joined by k-1 edges, so the forbidden object for parameter ``k`` is
any colour class containing a simple path with k vertices.

The verifier never trusts how a colouring was produced.  It splits the
coloured edges into monochromatic components and, for every component with at
least ``k`` vertices, runs an exact longest-path computation (bitmask dynamic
programming over connected vertex sets, early exit once ``k`` is reachable).

Components larger than the configured cap cannot be searched exactly.  Before
giving up, the verifier tries a vertex-cover certificate: every edge of a
path touches the cover and no two cover-free vertices are adjacent, so a path
on p vertices needs at least (p-1)/2 cover vertices; a greedy cover C with
2|C| + 1 < k therefore rules the path out.  Star-forest classes (bounded
centre sets) always certify this way.  Only components that are both over the
cap and cover-uncertifiable make the verdict ``indeterminate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .colouring import EdgeColouring
from .errors import ContractViolation, InternalInvariantError, UsageError
from .graph import Edge, Graph, absent_edges, components, plain_record, repeats

__all__ = [
    "MonochromaticComponent",
    "monochromatic_components",
    "greedy_vertex_cover",
    "VerificationReport",
    "verify_colouring",
]

DEFAULT_COMPONENT_CAP = 24


@dataclass(frozen=True, slots=True)
class MonochromaticComponent:
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def monochromatic_components(
    g: Graph, colouring: EdgeColouring
) -> dict[int, list[MonochromaticComponent]]:
    """Connected components of each colour class, keyed by colour."""
    rows = colouring.edge_array
    # rows before edges: a row listed twice repeats an earlier row and a listed
    # edge repeats a row, so one comparison finds both faults
    seen = repeats(np.concatenate([rows, g.edge_array]))
    twice, listed = seen[: len(rows)], seen[len(rows) :]
    if len(rows) - twice.sum() > listed.sum():  # more distinct rows than edges listed
        stray = absent_edges(g, rows)[0]
        raise ContractViolation(
            f"colouring assigns edges absent from the graph, e.g. {stray}"
        )
    if twice.any():
        raise ContractViolation("colouring lists an edge more than once")
    return {
        colour: [MonochromaticComponent(vs, es) for vs, es in components(edges)]
        for colour, edges in colouring.colour_classes().items()
    }


def _mask_path_search(
    adj: list[list[int]], stop_at: int
) -> tuple[int, list[int] | None]:
    """Longest simple path over adjacency lists on vertices 0..s-1, up to ``stop_at``.

    Layer L holds, for every connected vertex set of size L reachable as a
    path, the bitmask of feasible endpoints.  The search stops with a
    witness as soon as a path of ``stop_at`` vertices appears, and returns
    the longest path found with no witness otherwise.  The caller passes
    ``s >= stop_at >= 2``.
    """
    layers: list[dict[int, int]] = [{1 << v: 1 << v for v in range(len(adj))}]
    best = 1
    while True:
        frontier = layers[-1]
        grown: dict[int, int] = {}
        for mask, ends in frontier.items():
            rest = ends
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                for w in adj[v]:
                    wbit = 1 << w
                    if not mask & wbit:
                        key = mask | wbit
                        grown[key] = grown.get(key, 0) | wbit
        if not grown:
            return best, None
        layers.append(grown)
        best += 1
        if best >= stop_at:
            mask, ends = next(iter(grown.items()))
            return best, _reconstruct(adj, layers, mask, ends)


def _reconstruct(
    adj: list[list[int]], layers: list[dict[int, int]], mask: int, ends: int
) -> list[int]:
    v = (ends & -ends).bit_length() - 1
    path = [v]
    for depth in range(len(layers) - 2, -1, -1):
        mask ^= 1 << v
        prev_ends = layers[depth].get(mask, 0)
        step = None
        for u in adj[v]:
            if prev_ends & (1 << u):
                step = u
                break
        if step is None:
            raise InternalInvariantError("path reconstruction lost its trail")
        path.append(step)
        v = step
    path.reverse()
    return path


def _local_adjacency(
    vertices: tuple[int, ...], edges: Iterable[Edge]
) -> list[list[int]]:
    index = {v: i for i, v in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in vertices]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    return adj


def greedy_vertex_cover(
    vertices: tuple[int, ...], edges: Iterable[Edge]
) -> tuple[int, ...]:
    """Max-degree-first vertex cover of ``edges``, whose ends lie in ``vertices``.

    Any cover works for the path-length certificate; greedy keeps star
    forests at one cover vertex per star.  Ties break toward the lowest id.
    Picks come off a heap of ``(-degree, vertex)``, stale entries re-pushed.
    """
    import heapq  # here, not at start-up: most verifications need no cover
    local: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        local[u].add(v)
        local[v].add(u)
    heap = [(-len(ns), v) for v, ns in local.items() if ns]
    heapq.heapify(heap)
    cover: list[int] = []
    while heap:
        neg_degree, best = heapq.heappop(heap)
        degree = len(local[best])
        if degree != -neg_degree:  # degrees only fall
            if degree:
                heapq.heappush(heap, (-degree, best))
        else:
            cover.append(best)
            for w in local.pop(best):
                local[w].discard(best)
    return tuple(cover)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one colouring against the path ban and budget."""

    verdict: str  # "pass", "fail", or "indeterminate"
    k: int
    r: int
    colours_used: int
    colours_within_budget: bool
    covers_all_edges: bool
    witness_colour: int | None = None
    witness_path: tuple[int, ...] | None = None
    failures: tuple[tuple[int, tuple[int, ...]], ...] = ()
    component_cap: int = DEFAULT_COMPONENT_CAP
    indeterminate_components: tuple[tuple[int, int], ...] = ()
    cover_certified: tuple[tuple[int, int, int], ...] = ()  # colour, order, |cover|
    worst_component: tuple[int, tuple[int, ...]] | None = None
    # per colour: (colour, component count, max order, max path found or None)
    per_colour_stats: tuple[tuple[int, int, int, int | None], ...] = ()
    class_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.verdict == "pass"

    @property
    def largest_component(self) -> tuple[int, int] | None:
        if self.worst_component is None:
            return None
        return (self.worst_component[0], len(self.worst_component[1]))

    def to_record(self) -> dict:
        return plain_record(self)


def verify_colouring(
    g: Graph,
    colouring: EdgeColouring,
    r: int,
    k: int,
    cap: int = DEFAULT_COMPONENT_CAP,
) -> VerificationReport:
    """Decide whether any colour class contains a path on ``k`` vertices.

    Partial colourings are allowed (uncoloured edges are simply not part of
    any class); ``covers_all_edges`` reports whether the colouring is total.
    The verdict is independent of the colour budget, which is reported via
    ``colours_within_budget = colours_used <= r``.
    """
    if k < 2:
        raise UsageError("a path needs at least 2 vertices, so k >= 2")
    if r < 0:
        raise UsageError("colour budget must be non-negative")
    comps = monochromatic_components(g, colouring)

    failures: list[tuple[int, tuple[int, ...]]] = []
    indeterminate: list[tuple[int, int]] = []
    covered: list[tuple[int, int, int]] = []
    worst: tuple[int, tuple[int, ...]] | None = None
    stats: list[tuple[int, int, int, int | None]] = []
    # in colour order, which the record keeps
    class_sizes = {c: sum(comp.edge_count for comp in cs) for c, cs in comps.items()}

    for colour, class_comps in comps.items():
        max_order = 0
        max_found: int | None = None
        for comp in class_comps:
            order = len(comp.vertices)
            max_order = max(max_order, order)
            if worst is None or order > len(worst[1]):
                worst = (colour, comp.vertices)
            if order < k:
                continue
            if order > cap:
                size = len(greedy_vertex_cover(comp.vertices, comp.edges))
                if 2 * size + 1 < k:
                    covered.append((colour, order, size))
                else:
                    indeterminate.append((colour, order))
                continue
            adj = _local_adjacency(comp.vertices, comp.edges)
            length, path = _mask_path_search(adj, stop_at=k)
            max_found = length if max_found is None else max(max_found, length)
            if path is not None:
                failures.append((colour, tuple(comp.vertices[i] for i in path)))
                break  # one witness per colour is plenty
        stats.append((colour, len(class_comps), max_order, max_found))

    if failures:
        verdict = "fail"
    elif indeterminate:
        verdict = "indeterminate"
    else:
        verdict = "pass"
    colours_used = colouring.colours_used
    return VerificationReport(
        verdict=verdict,
        k=k,
        r=r,
        colours_used=colours_used,
        colours_within_budget=colours_used <= r,
        covers_all_edges=len(colouring.colours) == g.edge_count,  # no stray, no repeat
        witness_colour=failures[0][0] if failures else None,
        witness_path=failures[0][1] if failures else None,
        failures=tuple(failures),
        component_cap=cap,
        indeterminate_components=tuple(indeterminate),
        cover_certified=tuple(covered),
        worst_component=worst,
        per_colour_stats=tuple(stats),
        class_sizes=class_sizes,
    )
