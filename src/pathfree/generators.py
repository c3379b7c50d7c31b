"""Seeded test-graph generators.

Every generator is a pure function of its arguments including the seed, so
runs are reproducible from their recorded configuration alone.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .errors import InternalInvariantError, UsageError
from .graph import Edge, Graph, repeats
from .rng import substream

__all__ = [
    "uniform_edges",
    "regular_graph",
    "star_forest_graph",
    "path_union_graph",
    "GENERATOR_MODELS",
]


def uniform_edges(n: int, m: int, seed: int) -> Graph:
    """Uniformly random graph with exactly ``n`` vertices and ``m`` edges."""
    if n < 0 or m < 0:
        raise UsageError("vertex and edge counts must be non-negative")
    total = n * (n - 1) // 2
    if m > total:
        raise UsageError(f"{m} edges do not fit in {n} vertices")
    rng = substream(seed, "uniform-edges")
    if total <= 4_000_000:
        # triu_indices lists the pairs in ascending order, so sorted picks do too
        rows, cols = np.triu_indices(n, k=1)
        picked = np.sort(rng.choice(total, size=m, replace=False))
        return Graph(n, np.column_stack((rows[picked], cols[picked])))
    # Sparse regime: rejection sampling stays fast because m << total.  The
    # pairs are drawn in batches, which yields the same sequence as one draw
    # at a time; the graph is the first m distinct non-loop pairs drawn.
    pairs = np.empty((0, 2), dtype=np.int64)
    fresh = np.empty(0, dtype=np.int64)
    while len(fresh) < m:
        drawn = rng.integers(0, n, size=(m - len(fresh), 2))
        drawn = np.sort(drawn[drawn[:, 0] != drawn[:, 1]], axis=1)
        pairs = np.concatenate([pairs, drawn])
        fresh = np.flatnonzero(~repeats(pairs))
    return Graph.of(n, pairs[fresh[:m]])


def regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random ``d``-regular simple graph via stub pairing plus swap repair.

    A uniform pairing of degree stubs almost always contains a few loops or
    parallel edges; those are removed by random degree-preserving edge swaps,
    which converge quickly at any feasible ``(n, d)``.
    """
    if n < 0 or d < 0:
        raise UsageError("counts must be non-negative")
    if d >= n and not (n == 0 and d == 0):
        raise UsageError("degree must be below the vertex count")
    if (n * d) % 2 != 0:
        raise UsageError("n * d must be even for a d-regular graph")
    if d == 0 or n == 0:
        return Graph.of(n, ())

    rng = substream(seed, "regular")
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    pairs: list[list[int]] = [
        [int(stubs[2 * i]), int(stubs[2 * i + 1])] for i in range(len(stubs) // 2)
    ]

    def canon(p: list[int]) -> Edge:
        return (p[0], p[1]) if p[0] < p[1] else (p[1], p[0])

    # A swap changes two pairs, so each canonical pair's holders and the
    # ascending indices of bad pairs (loops, parallels) are updated in place.
    holders: dict[Edge, list[int]] = {}
    for i, p in enumerate(pairs):
        if p[0] != p[1]:
            holders.setdefault(canon(p), []).append(i)
    bad = [
        i for i, p in enumerate(pairs) if p[0] == p[1] or len(holders[canon(p)]) > 1
    ]

    def make_good(index: int) -> None:
        at = bisect_left(bad, index)
        if at < len(bad) and bad[at] == index:
            del bad[at]

    budget = 200 * len(pairs) + 1000
    while budget > 0:
        if not bad:
            break
        i = bad[int(rng.integers(0, len(bad)))]
        j = int(rng.integers(0, len(pairs)))
        if i == j:
            budget -= 1
            continue
        a, b = pairs[i]
        c, d2 = pairs[j]
        if int(rng.integers(0, 2)):
            c, d2 = d2, c
        new1, new2 = [a, c], [b, d2]
        if new1[0] == new1[1] or new2[0] == new2[1]:
            budget -= 1
            continue
        e1, e2 = canon(new1), canon(new2)
        if e1 == e2 or e1 in holders or e2 in holders:
            budget -= 1
            continue
        for index in (i, j):
            old = pairs[index]
            if old[0] != old[1]:
                key = canon(old)
                held = holders[key]
                held.remove(index)
                if len(held) == 1:
                    make_good(held[0])
                elif not held:
                    del holders[key]
            make_good(index)
        pairs[i], pairs[j] = new1, new2
        holders[e1] = [i]
        holders[e2] = [j]
        budget -= 1
    else:
        raise InternalInvariantError("edge-swap repair did not converge")

    if len({canon(p) for p in pairs if p[0] != p[1]}) != len(pairs):
        raise InternalInvariantError("edge-swap repair did not converge")
    g = Graph.of(n, map(canon, pairs))
    if (g.degrees != d).any():
        raise InternalInvariantError("repair broke regularity")
    return g


def star_forest_graph(n: int, d: int, seed: int) -> Graph:
    """Disjoint stars with ``d`` leaves each; leftover vertices are isolated.

    Layout is deterministic; the seed is accepted for interface uniformity.
    """
    del seed
    if n < 0 or d < 1:
        raise UsageError("need non-negative n and at least one leaf per star")
    block = d + 1
    starts = range(0, n - block + 1, block)
    return Graph.of(n, [(s, leaf) for s in starts for leaf in range(s + 1, s + block)])


def path_union_graph(n: int, d: int, seed: int) -> Graph:
    """Disjoint paths on ``d`` vertices each; leftover vertices are isolated.

    Layout is deterministic; the seed is accepted for interface uniformity.
    """
    del seed
    if n < 0 or d < 2:
        raise UsageError("need non-negative n and paths on at least 2 vertices")
    starts = range(0, n - d + 1, d)
    return Graph.of(n, [(v, v + 1) for s in starts for v in range(s, s + d - 1)])


GENERATOR_MODELS = {
    "uniform-m": uniform_edges,
    "d-regular": regular_graph,
    "star-forest": star_forest_graph,
    "path-union": path_union_graph,
}
