"""Shared helpers for the test suite.

Random instances come from hand-rolled seeded loops (random.Random with a
fixed seed per test), so every failure reproduces with plain pytest and no
plugin state.
"""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import numpy as np
import pytest

from pathfree import (
    ContractViolation,
    EdgeColouring,
    Graph,
    InternalInvariantError,
    SizeCapError,
    max_load_fraction_lower_bound,
    substream,
)
from pathfree.bins import MonteCarloEstimate, _require_counts
from pathfree.checks import GUARD
from pathfree.extract import BlockSplit


def random_graph(rnd: random.Random, n_max: int = 10, density: float = 0.4) -> Graph:
    """One random graph: n <= n_max vertices, each pair kept with ``density``."""
    n = rnd.randint(2, n_max)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rnd.random() < density]
    return Graph.build(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.build(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def same_value(x, y) -> bool:
    """Equality that reaches into dataclasses and tuples and compares numpy
    arrays by dtype, shape and entries, as a result's own ``==`` cannot."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (
            isinstance(x, np.ndarray)
            and isinstance(y, np.ndarray)
            and x.dtype == y.dtype
            and np.array_equal(x, y)
        )
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x) is type(y) and all(
            same_value(getattr(x, f.name), getattr(y, f.name))
            for f in dataclasses.fields(x)
        )
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(same_value, x, y))
    return x == y


def has_path_on(adjacency: dict[int, set[int]], k: int) -> bool:
    """Reference oracle: does any simple path span k vertices?

    Depth-first extension over all starts; exponential, fine below ~12
    vertices.  Kept independent of the package's own path search on purpose.
    """
    if k <= 1:
        return bool(adjacency) or k <= 0

    def extend(v: int, seen: set[int]) -> bool:
        if len(seen) >= k:
            return True
        for w in adjacency.get(v, ()):
            if w not in seen:
                seen.add(w)
                if extend(w, seen):
                    return True
                seen.remove(w)
        return False

    return any(extend(v, {v}) for v in adjacency)


def edge_adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def components(edges):
    """Reference oracle: connected components of a loop-free edge set, in
    order of least vertex, by a breadth-first walk over edge tuples.

    Yields each component's sorted vertices and its own edges (the input
    tuples, each once, taken at their first endpoint in walk order).  Lazy,
    so a caller that stops early skips the rest.
    """
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    seen: set[int] = set()
    for start in sorted(incident):
        if start in seen:
            continue
        seen.add(start)
        comp, own = [start], []
        for x in comp:  # grows while it is walked
            for e in incident[x]:
                if e[0] == x:  # each edge is taken at its first endpoint
                    own.append(e)
                y = e[1] if e[0] == x else e[0]
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        yield tuple(sorted(comp)), tuple(own)


def local_adjacency(vertices, edges) -> list[list[int]]:
    """Reference oracle: adjacency lists over the places of ``vertices``,
    appended in the order of ``edges`` (for a component, in the order that
    :func:`components` yields its edges)."""
    index = {v: i for i, v in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in vertices]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    return adj


def colour_classes(col: EdgeColouring) -> dict[int, list[tuple[int, int]]]:
    """Each colour's edges in ascending order, colours ascending, by a loop
    over the assignments."""
    classes: dict[int, list[tuple[int, int]]] = {}
    rows = map(tuple, col.edge_array.tolist())
    for e, c in sorted(zip(rows, col.colours.tolist())):
        classes.setdefault(c, []).append(e)
    return dict(sorted(classes.items()))


def serialize_edge_list_reference(g: Graph) -> str:
    """Reference oracle: the edge-list text with every row string built
    before one join."""
    u, v = g.edge_array.T.tolist()
    return "\n".join([f"# n={g.vertex_count}", *map("{} {}".format, u, v)]) + "\n"


def serialize_colouring_reference(
    g: Graph, colouring: EdgeColouring, r: int, k: int
) -> str:
    """Reference oracle: the colouring text with every row string built
    before one join."""
    head = f"n={g.vertex_count} r={r} k={k} colours_used={colouring.colours_used}"
    u, v = g.edge_array.T.tolist()
    rows = map("{} {} {}".format, u, v, colouring.colours.tolist())
    return "\n".join(["# " + head, *rows]) + "\n"


def induced_bipartite(g: Graph, a: Iterable[int], b: Iterable[int]) -> Graph:
    """Subgraph of ``g`` keeping exactly the edges with one endpoint in each set."""
    sa, sb = frozenset(a), frozenset(b)
    if sa & sb:
        raise ContractViolation("sides of a bipartite restriction must be disjoint")
    kept = [
        e for e in g.edges if (e[0] in sa and e[1] in sb) or (e[0] in sb and e[1] in sa)
    ]
    return Graph.build(g.vertex_count, kept)


def greedy_bin_assignment_reference(
    g: Graph, part_of: dict[int, int]
) -> dict[int, int]:
    """Reference oracle: count each B-vertex's neighbours per part in a loop.

    B is every vertex that ``part_of`` does not place.  Most neighbours
    wins, ties go to the lowest part, no neighbour in A means part 0.
    """
    adj = edge_adjacency(g.edges)
    out: dict[int, int] = {}
    for x in range(g.vertex_count):
        if x in part_of:
            continue
        counts: dict[int, int] = {}
        for w in adj.get(x, ()):
            i = part_of.get(w)
            if i is not None:
                counts[i] = counts.get(i, 0) + 1
        out[x] = min(counts, key=lambda i: (-counts[i], i), default=0)
    return out


def block_partition_reference(
    g: Graph, in_a: np.ndarray, q: int, rng: np.random.Generator
) -> BlockSplit:
    """Reference oracle for ``block_partition`` with dicts and adjacency scans.

    Takes side A as a mask, B being the rest, and makes the same single draw
    over the ascending ids of A; input checks are left to the package.
    """
    a = np.flatnonzero(in_a).tolist()
    part_of = dict(zip(a, rng.integers(0, q, size=len(a)).tolist()))
    b_part = greedy_bin_assignment_reference(g, part_of)
    adj = edge_adjacency(g.edges)
    kept = sorted(
        (x, w) if x < w else (w, x)
        for x, i in b_part.items()
        for w in adj.get(x, ())
        if part_of.get(w) == i
    )
    part = [-1] * g.vertex_count
    for v, i in [*part_of.items(), *b_part.items()]:
        part[v] = i
    sizes = [0] * q
    for i in part_of.values():
        sizes[i] += 1
    return BlockSplit(
        part=np.array(part, dtype=np.int64),
        in_a=np.array([v in part_of for v in range(g.vertex_count)], dtype=bool),
        sizes=np.array(sizes, dtype=np.int64),
        kept_edges=np.array(kept, dtype=np.int64).reshape(-1, 2),
    )


def uniform_edges_reference(n: int, m: int, seed: int) -> Graph:
    """Reference oracle: ``uniform_edges``' sparse regime, one draw at a time.

    The package draws the pairs in batches; both must keep the first ``m``
    distinct non-loop pairs of the same draw sequence.
    """
    rng = substream(seed, "uniform-edges")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return Graph.build(n, chosen)


def proper_edge_colouring_reference(g: Graph) -> EdgeColouring:
    """Reference oracle: Misra-Gries with a sorted scan of u's colours per fan step.

    The package's form picks each fan step from per-vertex colour bitmasks;
    this one keeps only the colour -> neighbour dicts and a set of fan
    vertices, so both must give the same assignment.
    """
    palette = g.max_degree + 1
    # at[v] maps colour -> neighbour reached through the edge of that colour.
    at: list[dict[int, int]] = [dict() for _ in range(g.vertex_count)]
    colour_of: dict[tuple[int, int], int] = {}

    def set_colour(x: int, y: int, c: int) -> None:
        colour_of[(x, y) if x < y else (y, x)] = c
        at[x][c] = y
        at[y][c] = x

    def unset_colour(x: int, y: int) -> int:
        c = colour_of.pop((x, y) if x < y else (y, x))
        del at[x][c]
        del at[y][c]
        return c

    def free_colour(v: int) -> int:
        for c in range(palette):
            if c not in at[v]:
                return c
        raise InternalInvariantError(f"no free colour at vertex {v}")

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

    for u, v in sorted(g.edges):
        # Maximal fan of u starting at v: each next fan edge's colour is
        # free at the previous fan vertex.
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            step = None
            for c in sorted(at[u]):
                w = at[u][c]
                if w not in in_fan and c not in at[last]:
                    step = w
                    break
            if step is None:
                break
            fan.append(step)
            in_fan.add(step)

        c = free_colour(u)
        d = free_colour(fan[-1])
        if c != d and d in at[u]:
            invert_path(u, c, d)

        # First fan vertex with d free whose prefix is still a fan. The fan
        # lemma guarantees one exists after the inversion.
        target = None
        for j, w in enumerate(fan):
            if j > 0:
                edge = (u, fan[j]) if u < fan[j] else (fan[j], u)
                if colour_of[edge] in at[fan[j - 1]]:
                    break  # prefix stopped being a fan; later vertices unusable
            if d not in at[w]:
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
    used = sorted(set(colour_of.values()))
    remap = {c: i for i, c in enumerate(used)}
    return EdgeColouring.of(list(colour_of), [remap[c] for c in colour_of.values()])


def longest_path_brute(g: Graph) -> int:
    """Reference implementation: enumerate every simple path by DFS."""
    adj = edge_adjacency(g.edges)
    active = sorted(adj)
    if not active:
        return 1 if g.vertex_count >= 1 else 0
    best = 1

    def extend(v: int, visited: set[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                extend(w, visited, length + 1)
                visited.remove(w)

    for v in active:
        extend(v, {v}, 1)
    return best


def enumerated_max_load_expectation(q: int, n: int, limit: int = 10**6) -> Fraction:
    """``E[M]`` by full enumeration of all ``q^n`` assignments (reference oracle).

    Every assignment is decoded from a base-``q`` index, so nothing is shared
    with the package's polynomial method.  Only feasible while ``q^n <= limit``.
    """
    _require_counts(q, n)
    total = q**n
    if total > limit:
        raise SizeCapError(f"q^n = {total} exceeds the enumeration cap {limit}")
    if q == 1:
        return Fraction(n)
    remaining = np.arange(total, dtype=np.int64)
    loads = np.zeros((total, q), dtype=np.int8)
    rows = np.arange(total)
    for _ in range(n):
        loads[rows, remaining % q] += 1
        remaining //= q
    max_sum = int(loads.max(axis=1).astype(np.int64).sum())
    return Fraction(max_sum, total)


def multinomial_max_expectation_reference(probabilities, n: int) -> Fraction:
    """Reference oracle: ``E[max_i X_i]`` summed one ``Fraction`` term at a time.

    Each composition's probability is a product of ``Fraction`` powers; the
    package sums integer numerators over one denominator instead.  Input
    checks are left to the package.
    """
    support = [x for x in map(Fraction, probabilities) if x > 0]
    s = len(support)
    total = Fraction(0)

    def recurse(i: int, remaining: int, coeff: int, prob: Fraction, peak: int) -> None:
        nonlocal total
        if i == s - 1:
            total += coeff * prob * support[i] ** remaining * max(peak, remaining)
            return
        for k in range(remaining + 1):
            recurse(
                i + 1,
                remaining - k,
                coeff * math.comb(remaining, k),
                prob * support[i] ** k,
                max(peak, k),
            )

    recurse(0, n, 1, Fraction(1), 0)
    return total


def binomial_tail_reference(n: int, p, t: int) -> Fraction:
    """Reference oracle: ``P(Bin(n, p) >= t)`` as a sum of ``Fraction`` terms."""
    p = Fraction(p)
    return sum(
        (
            Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)
            for k in range(max(t, 0), n + 1)
        ),
        Fraction(0),
    )


def joint_tail_reference(q: int, n: int, t: int) -> Fraction:
    """Reference oracle: ``P(X_1 >= t and X_2 >= t)`` by conditioning on ``X_1``.

    Each ``P(X_1 = k)`` multiplies the ``Fraction`` tail of ``Bin(n-k,
    1/(q-1))``; the package cancels the two denominators first.
    """
    p = Fraction(1, q)
    return sum(
        (
            Fraction(math.comb(n, k))
            * p**k
            * (1 - p) ** (n - k)
            * binomial_tail_reference(n - k, Fraction(1, q - 1), t)
            for k in range(max(t, 0), n + 1)
        ),
        Fraction(0),
    )


def monte_carlo_max_load_reference(
    q: int, n: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Reference oracle: the Monte Carlo maxima with loads filled by ``np.add.at``.

    Makes the same draws in the same chunks as the package, which fills the
    loads of a whole chunk with one ``bincount`` instead.
    """
    rng = substream(seed, "max-load-mc")
    maxima = np.empty(trials, dtype=np.int64)
    chunk = max(1, 10**6 // n)
    for done in range(0, trials, chunk):
        size = min(chunk, trials - done)
        draws = rng.integers(0, q, size=(size, n))
        loads = np.zeros((size, q), dtype=np.int32)
        np.add.at(loads, (np.arange(size)[:, None], draws), 1)
        maxima[done : done + size] = loads.max(axis=1)
    stderr = float(maxima.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloEstimate(float(maxima.mean()), stderr, trials)


def closed_form_floor_reference(q_range, n_range, expectation):
    """Reference oracle: the closed-form floor compared at every (cell, corner).

    Returns ``(cells, violations, min_margin, examples)`` as
    ``check_closed_form_floor`` reports them; the package compares each cell
    once against its largest corner bound and goes corner by corner only when
    that fails.
    """
    q_lo, q_hi = max(q_range[0], 2), q_range[1]
    n_lo, n_hi = n_range
    cells = violations = 0
    min_margin = math.inf
    examples = []
    for q in range(q_lo, q_hi + 1):
        for n in range(n_lo, n_hi + 1):
            w = expectation(q, n) / n
            for twice_q0 in range(2 * q, 2 * q_hi + 1):
                for twice_n0 in range(2 * n, 2 * n_hi + 1):
                    q0, n0 = twice_q0 / 2, twice_n0 / 2
                    bound = max_load_fraction_lower_bound(q0, n0)
                    cells += 1
                    min_margin = min(min_margin, float(w) - bound)
                    if w < Fraction(bound) * (1 + GUARD):
                        violations += 1
                        if len(examples) < 5:
                            examples.append(
                                f"q={q} n={n} q0={q0} n0={n0}: {float(w)} < {bound}"
                            )
    return cells, violations, min_margin, tuple(examples)


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0FFEE)
