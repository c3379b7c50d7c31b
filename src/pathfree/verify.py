"""Ground-truth checking of colourings against the long-path ban.

The package's convention throughout: a "path on k vertices" means k distinct
vertices joined by k-1 edges, so the forbidden object for parameter ``k`` is
any colour class containing a simple path with k vertices.

The verifier never trusts how a colouring was produced.  One array pass
labels the monochromatic components of every colour class at once.  Each
edge end becomes a ``(colour, vertex)`` node with a dense id
(``graph.row_ids``), and hooking with pointer jumping runs over all nodes
until the two ends of every edge carry the same label, the least id of
their component.  The components are then numbered in order of least node,
and a bincount gives their orders.  A component on fewer than ``k`` vertices
holds no path on ``k``, so each class's component count, largest order and
largest component come from these numbers alone.

Only components with at least ``k`` vertices are searched, in order of
least vertex.  One pass cuts them from the class's arrays, in local ids;
each gets an exact longest-path computation (bitmask dynamic programming
over connected vertex sets, early exit once ``k`` is reachable).  The search
of a class stops at its first witness.

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
from itertools import islice
from typing import Iterator

import numpy as np

from .colouring import EdgeColouring
from .errors import ContractViolation, InternalInvariantError, UsageError
from .graph import Graph, absent_edges, plain_record, repeats, row_ids

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
    """One component: its ascending vertices, and its ascending rows with
    each end numbered by its vertex's place in ``vertices``, flattened as
    ``u0, v0, u1, v1, ...``."""

    vertices: tuple[int, ...]
    rows: tuple[int, ...]

    @property
    def neighbours(self) -> list[list[int]]:
        """Each local vertex's neighbours, ascending, as the rows are."""
        ascending: list[list[int]] = [[] for _ in self.vertices]
        for u, v in zip(self.rows[::2], self.rows[1::2]):
            ascending[u].append(v)
            ascending[v].append(u)
        return ascending

    @property
    def adjacency(self) -> list[list[int]]:
        """:attr:`neighbours` in the order the search reads them.

        A breadth-first walk from vertex 0 over ascending neighbours takes
        each edge at its lower end, and the lists grow in that order: ``y``
        comes in ``x``'s list by the walk rank of ``min(x, y)``, then by
        ``y``.  Every witness depends on this order.
        """
        ascending = self.neighbours
        adj: list[list[int]] = [[] for _ in self.vertices]
        walk, seen = [0], {0}
        for x in walk:  # grows while it is walked
            for y in ascending[x]:
                if y not in seen:
                    seen.add(y)
                    walk.append(y)
                if x < y:
                    adj[x].append(y)
                    adj[y].append(x)
        return adj


@dataclass(frozen=True, eq=False)
class ColourClass:
    """The monochromatic components of one colour class, in order of least vertex.

    ``rows`` are the class's edges and ``vertices`` the vertices they touch,
    both ascending.  ``labels`` gives each vertex the index of its component
    and ``orders`` each component's vertex count, one entry per component.
    :meth:`walk` cuts the components of ``k`` or more vertices from these
    arrays; iterating cuts them all.
    """

    rows: np.ndarray
    vertices: np.ndarray
    labels: np.ndarray
    orders: np.ndarray

    def members(self, index: int) -> tuple[int, ...]:
        """The vertices of component ``index``, from the labels."""
        return tuple(self.vertices[self.labels == index].tolist())

    def walk(self, k: int) -> Iterator[tuple[int, MonochromaticComponent]]:
        """Each component of ``k`` or more vertices with its index, lazily.

        The vertices and then the rows go under their components' labels;
        one mask keeps those of the picked components, and one stable sort by
        label groups them, each component's vertices and rows ascending.
        Each end of a row is then numbered by its vertex's place among its
        component's vertices.
        """
        n, picked = len(self.vertices), self.orders >= k
        ends = np.searchsorted(self.vertices, self.rows)  # vertex places
        # vertex place p is entry p and row i entry n + i, each under its label
        label = np.concatenate([self.labels, self.labels[ends[:, 0]]])
        entries = np.flatnonzero(picked[label])
        entries = entries[np.argsort(label[entries], kind="stable")]
        places, kept = entries[entries < n], entries[entries >= n] - n
        orders = self.orders[picked]
        local = np.empty(n, dtype=np.int64)
        first = np.cumsum(orders) - orders  # where each component starts in places
        local[places] = np.arange(len(places)) - np.repeat(first, orders)
        widths = 2 * np.bincount(label[n:], minlength=len(picked))[picked]  # row ends
        vertices = iter(self.vertices[places].tolist())
        row_ends = iter(local[ends[kept]].ravel().tolist())
        for index, order, width in zip(
            np.flatnonzero(picked).tolist(), orders.tolist(), widths.tolist()
        ):
            yield index, MonochromaticComponent(
                tuple(islice(vertices, order)), tuple(islice(row_ends, width))
            )

    def __iter__(self) -> Iterator[MonochromaticComponent]:
        for _, component in self.walk(0):
            yield component


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a 1-d array begins."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    return np.flatnonzero(new)


def _spans(starts: np.ndarray, end: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` slice bounds of runs beginning at ``starts``."""
    bounds = np.append(starts, end).tolist()
    return list(zip(bounds, bounds[1:]))


def _least_labels(ends: np.ndarray, node_count: int) -> np.ndarray:
    """Each node's component's least id, by hooking with pointer jumping
    (Shiloach and Vishkin, 1982).

    ``ends`` holds every edge's first node, then every edge's second node.
    Each node points at a node of its component with no greater id, and
    jumping leaves it pointing at a root, which points at itself.  A round
    hooks each root onto the least root across its edges, so every round
    joins trees, until every edge's two labels agree.
    """
    m = len(ends) // 2
    first, second = ends[:m], ends[m:]
    labels = np.arange(node_count)
    while True:
        at_first, at_second = labels[first], labels[second]
        if np.array_equal(at_first, at_second):
            return labels
        low, high = np.minimum(at_first, at_second), np.maximum(at_first, at_second)
        np.minimum.at(labels, high, low)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):  # until each points at a root
            labels, jumped = jumped, jumped[jumped]


def monochromatic_components(
    g: Graph, colouring: EdgeColouring
) -> dict[int, ColourClass]:
    """Connected components of each colour class, keyed by colour in ascending order.

    The labels of every class come from one pass over all of them.
    """
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

    by_colour = np.argsort(colouring.colours, kind="stable")  # rows stay ascending
    colours, rows = colouring.colours[by_colour], rows[by_colour]
    m = len(rows)
    # one node per (colour, vertex) end: the first ends, then the second ends;
    # the pair rows are dropped once they are numbered
    ends = np.empty((2 * m, 2), dtype=np.int64)
    ends[:m, 0] = ends[m:, 0] = colours
    ends[:m, 1], ends[m:, 1] = rows.T
    ends, nodes = row_ids(ends)
    labels = _least_labels(ends, len(nodes))
    edge_starts, node_starts = _run_starts(colours), _run_starts(nodes[:, 0])
    # each node's component, numbered over all classes in order of least node
    comp = (np.cumsum(labels == np.arange(len(nodes))) - 1)[labels]
    orders = np.bincount(comp)
    classes = {}
    for colour, (e0, e1), (n0, n1), (c0, c1) in zip(
        colours[edge_starts].tolist(),
        _spans(edge_starts, m),
        _spans(node_starts, len(nodes)),
        _spans(comp[node_starts], len(orders)),
    ):
        classes[colour] = ColourClass(
            rows[e0:e1], nodes[n0:n1, 1], comp[n0:n1] - c0, orders[c0:c1]
        )
    return classes


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


def greedy_vertex_cover(adjacency: list[list[int]]) -> tuple[int, ...]:
    """Max-degree-first vertex cover of the graph on ``0..s-1`` with these
    adjacency lists.

    Any cover works for the path-length certificate; greedy keeps star
    forests at one cover vertex per star.  Ties break toward the lowest id.
    Picks come off a heap of ``(-degree, vertex)``, stale entries re-pushed;
    a pick lowers its neighbours' degrees, and a picked vertex leaves the heap.
    """
    import heapq  # here, not at start-up: most verifications need no cover
    degree = list(map(len, adjacency))  # uncovered edges at each vertex off the cover
    heap = [(-d, v) for v, d in enumerate(degree) if d]
    heapq.heapify(heap)
    cover: list[int] = []
    while heap:
        neg_degree, best = heapq.heappop(heap)
        if degree[best] != -neg_degree:  # degrees only fall
            if degree[best]:
                heapq.heappush(heap, (-degree[best], best))
        else:
            cover.append(best)
            for w in adjacency[best]:  # a cover vertex's count is never read again
                degree[w] -= 1
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
    if cap < 0:
        raise UsageError("component cap must be non-negative")
    comps = monochromatic_components(g, colouring)

    failures: list[tuple[int, tuple[int, ...]]] = []
    indeterminate: list[tuple[int, int]] = []
    covered: list[tuple[int, int, int]] = []
    worst: tuple[int, tuple[int, ...]] | None = None
    stats: list[tuple[int, int, int, int | None]] = []
    # in colour order, which the record keeps
    class_sizes = {c: len(view.rows) for c, view in comps.items()}

    for colour, view in comps.items():
        orders = view.orders
        top = int(orders.argmax())  # the first component of largest order
        max_found: int | None = None
        # only a component on k or more vertices can hold a path on k
        searched = view.walk(k) if orders[top] >= k else ()
        for index, comp in searched:
            order = len(comp.vertices)
            if order > cap:  # the cover reads no order, so no breadth-first lists
                size = len(greedy_vertex_cover(comp.neighbours))
                if 2 * size + 1 < k:
                    covered.append((colour, order, size))
                else:
                    indeterminate.append((colour, order))
                continue
            length, path = _mask_path_search(comp.adjacency, stop_at=k)
            max_found = length if max_found is None else max(max_found, length)
            if path is not None:
                failures.append((colour, tuple(comp.vertices[i] for i in path)))
                # one witness per colour is plenty; the class's largest order
                # and worst component count the components up to it only
                top = int(orders[: index + 1].argmax())
                break
        if worst is None or orders[top] > len(worst[1]):
            worst = (colour, view.members(top))
        stats.append((colour, len(orders), int(orders[top]), max_found))

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
