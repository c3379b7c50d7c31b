"""Randomized extraction of dense subgraphs with no long paths.

The core move: split a vertex set ``core`` into a random half ``A`` (resampled
until at least half of all edges leave it), scatter ``A`` uniformly into
``q = floor((6/k) * ceil(|core|/2))`` parts, and send every other vertex to
the part holding most of its neighbours.  The union of the block-internal
bipartite graphs ``G[A_i, B_i]`` keeps, in expectation, a max-load fraction of
the crossing edges, while small parts force short paths: a path inside a block
alternates sides, so ``|A_i| < k/2 - 1`` caps it below ``k`` vertices.

Results carry a machine-checked certificate: ``part-size`` (every
``|A_i| < k/2 - 1``), the weaker but still sound ``block-path``
(``2 max|A_i| + 1 < k``, the exact alternation bound), or
``component-order`` (every connected component of the kept subgraph has
fewer than ``k`` vertices).  Uncertified attempts are never promoted.

Sets are masks, partitions are part arrays: every vertex set (a degree band,
the core the bipartition splits, its independent side, a side of a split)
is a boolean mask over ``0..n-1``, checked by ``graph.vertex_masks``, and a
partition of vertices is a per-vertex int64 array holding each vertex's
part and -1 off the partition.  Each trial works on numpy arrays over
``g.edge_array`` only: a side mask from the bipartition, a part array, the
A-part sizes and the kept edge rows.  ``component-order`` is ruled out at
once by a kept vertex of degree ``k - 1`` or more; otherwise it is checked
by min-label propagation over the kept rows for at most ``k - 1`` rounds: a
component on fewer than ``k`` vertices has diameter at most ``k - 2``, so
labels that have not settled by then rule the certificate out, and settled
labels are the components, whose sizes one ``bincount`` gives.  Only the
chosen trial becomes a ``Graph``.  Rows and keys are selected with
``compress``, not a boolean subscript, which on an unpredictable mask takes
several times as long and was the largest cost of a trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolation, InternalInvariantError, UsageError
from .graph import Graph, random_balanced_bipartition, vertex_masks
from .rng import substream

__all__ = [
    "greedy_bin_assignment",
    "BlockSplit",
    "block_partition",
    "ExtractionResult",
    "extract_path_free_subgraph",
    "DegreeClass",
    "Decomposition",
    "degree_class_decompose",
    "BandExtraction",
    "extract_from_densest_band",
    "BAND_RATIO",
    "SELECT_RATIO",
]

# Band geometry and selection thresholds: each degree band spans a factor
# e^-2, and band j is picked when it holds at least an e^-j share of the
# edges.  Stored as the exact rationals of the IEEE doubles so that all
# threshold comparisons are exact.  The selection argument needs
# 1/3 + c/(1-c) < 1, that is c < 2/5, for c = SELECT_RATIO.
BAND_RATIO = Fraction(math.exp(-2))
SELECT_RATIO = Fraction(math.exp(-1))


def greedy_bin_assignment(g: Graph, owner: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Send each vertex of ``b`` to the part with most of its neighbours.

    ``owner`` holds each A-vertex's part and -1 off A, and ``b`` is a mask;
    the result holds the part of each vertex of ``b`` and -1 off ``b``.  Ties
    break to the lowest part index, so the outcome does not depend on
    iteration order; a vertex with no neighbour in any part lands in part 0.
    """
    (in_b,) = vertex_masks(g, b)
    owner = np.asarray(owner)
    if owner.shape != (g.vertex_count,) or owner.dtype.kind != "i":
        raise ContractViolation(
            f"owner must be a signed int array over 0..{g.vertex_count - 1}"
        )
    both = in_b & (owner >= 0)
    if both.any():
        raise ContractViolation(f"vertex {both.argmax()} is on both sides of the split")
    u, v = g.edge_array.T
    x = np.where(in_b[u], u, v)  # the B-end of each A-B edge
    a_part = owner[u + v - x]
    ab = in_b[x] & (a_part >= 0)
    stride = int(owner.max(initial=0)) + 1
    key = x.compress(ab) * stride + a_part.compress(ab)
    key.sort()
    best = np.where(in_b, 0, -1)
    if key.size:
        # one run of equal keys per (B-vertex, part) pair, its length the count
        start = np.flatnonzero(np.diff(key, prepend=-1))
        counts = np.diff(start, append=key.size)
        x, part = np.divmod(key[start], stride)
        # per vertex, the largest score is the most neighbours and, among
        # equal counts, the lowest part
        lead = np.flatnonzero(np.diff(x, prepend=-1))
        score = np.maximum.reduceat(counts * stride + (stride - 1 - part), lead)
        best[x[lead]] = stride - 1 - score % stride
    return best


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """One random block structure over the vertices and edge rows of a graph.

    ``part`` holds each vertex's block (-1 for a vertex on neither side),
    ``in_a`` marks the A-side, ``sizes`` counts the A-vertices of each block
    and ``kept_edges`` holds the kept rows of ``edge_array``, in order.
    """

    part: np.ndarray
    in_a: np.ndarray
    sizes: np.ndarray
    kept_edges: np.ndarray

    @property
    def a_parts(self) -> tuple[np.ndarray, ...]:
        """The A-vertices of each block, ascending, derived on every read."""
        ids = np.flatnonzero(self.in_a)
        ids = ids[np.argsort(self.part[ids], kind="stable")]
        return tuple(np.split(ids, np.cumsum(self.sizes)[:-1]))


def block_partition(
    g: Graph, in_a: np.ndarray, in_b: np.ndarray, q: int, rng: np.random.Generator
) -> BlockSplit:
    """Scatter side A into ``q`` uniform parts, assign side B greedily, keep blocks.

    ``in_a`` and ``in_b`` are disjoint boolean masks over ``0..n-1``.  The
    kept edges are exactly those running between ``A_i`` and ``B_i`` for some
    shared ``i``; edges inside B or across blocks are dropped.
    """
    if q < 1:
        raise UsageError("need at least one block")
    in_a, in_b = vertex_masks(g, in_a, in_b)
    if (in_a & in_b).any():
        raise ContractViolation("split sides overlap")
    a_ids = np.flatnonzero(in_a)
    owner = np.full(g.vertex_count, -1, dtype=np.int64)
    owner[a_ids] = rng.integers(0, q, size=a_ids.size)  # one draw, over sorted a
    part = np.where(in_b, greedy_bin_assignment(g, owner, in_b), owner)
    u, v = g.edge_array.T
    # an edge with one end in A whose ends share a part has its other end in
    # B, as a vertex on neither side has part -1
    keep = (in_a[u] != in_a[v]) & (part[u] == part[v])
    sizes = np.bincount(owner[a_ids], minlength=q)
    return BlockSplit(part, in_a, sizes, g.edge_array.compress(keep, axis=0))


def _components_below(edges: np.ndarray, vertex_count: int, k: int) -> bool:
    """Whether every component of the ``(m, 2)`` edge rows has fewer than ``k`` vertices.

    A vertex of degree ``k - 1`` or more and its neighbours are ``k``
    vertices of one component, so such a vertex decides at once, before any
    propagation (:func:`_labels_below`).
    """
    if np.bincount(edges.ravel()).max(initial=0) >= k - 1:
        return False
    return _labels_below(edges, vertex_count, k)


def _labels_below(edges: np.ndarray, vertex_count: int, k: int) -> bool:
    """:func:`_components_below` by bounded min-label propagation alone.

    Each round lowers every vertex's label to the least label on it and its
    neighbours, so after ``t`` rounds it is the least id within distance
    ``t``.  Labels that agree across every edge are settled: each component
    then carries its least id.  A component on fewer than ``k`` vertices
    settles within ``k - 2`` rounds, so labels still unsettled after that
    mean a component on ``k`` or more.
    """
    u, v = edges.T
    labels = np.arange(vertex_count)
    for _ in range(k - 1):
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            return int(np.bincount(labels).max()) < k
        low = np.minimum(lu, lv)
        np.minimum.at(labels, u, low)
        np.minimum.at(labels, v, low)
    return False


@dataclass(frozen=True)
class ExtractionResult:
    """Best block subgraph found over the trial budget.

    ``certificate`` is "part-size", "block-path" or "component-order" when
    ``certified`` (or "empty" for an edgeless input); an uncertified result
    reports the best raw attempt but must not be used as a colour class.
    """

    subgraph: Graph
    q: int
    q_clamped: bool
    k: int
    certified: bool
    certificate: str | None
    crossing_edges: int
    chosen_trial: int | None
    mean_edges: float


def extract_path_free_subgraph(
    g: Graph,
    core: np.ndarray,
    independent: np.ndarray,
    k: int,
    trials: int,
    seed: int,
) -> ExtractionResult:
    """Run the block-split extraction and return the best certified attempt.

    Preconditions: ``core`` and ``independent`` are disjoint boolean masks
    over ``0..n-1``, every edge of ``g`` has at least one endpoint in
    ``core``, ``independent`` spans no edge, and ``k >= 4``.  Each trial
    draws its own substream of ``seed``, so results do not depend on
    execution order.
    """
    in_core, in_indep = vertex_masks(g, core, independent)
    if not in_core.any():
        raise ContractViolation("core vertex set is empty")
    if (in_core & in_indep).any():
        raise ContractViolation("core and independent sets overlap")
    if k < 4:
        raise UsageError("extraction certificates need k >= 4")
    if trials < 1:
        raise UsageError("need at least one trial")
    # an edge inside ``independent`` also avoids the core: the sets are disjoint
    u, v = g.edge_array.T
    stray = ~(in_core[u] | in_core[v])
    if stray.any():
        edge = tuple(g.edge_array[stray.argmax()].tolist())
        raise ContractViolation(f"edge {edge} avoids the core")
    sides = in_core | in_indep

    half = (int(np.count_nonzero(in_core)) + 1) // 2
    q_raw = (6 * half) // k
    q = max(1, q_raw)

    kept_total = 0
    # the best trial so far: a certified one beats any other, then the most
    # kept edges; on a tie the earlier trial stays
    best_rank, best = (False, -1), None
    for t in range(trials):
        rng = substream(seed, "extract-trial", t)
        bp = random_balanced_bipartition(g, in_core, rng)
        split = block_partition(g, bp.in_a, sides & ~bp.in_a, q, rng)
        kept = len(split.kept_edges)
        kept_total += kept
        certificate = None
        # a path inside block (A_i, B_i) alternates sides, so it has at
        # most 2|A_i| + 1 vertices; blocks are vertex-disjoint
        widest = int(split.sizes.max())
        if 2 * widest < k - 2:
            certificate = "part-size"
        elif 2 * widest + 1 < k:
            certificate = "block-path"
        elif _components_below(split.kept_edges, g.vertex_count, k):
            certificate = "component-order"
        rank = (certificate is not None, kept)
        if rank > best_rank:
            best_rank, best = rank, (t, split, bp.crossing_edges, certificate)

    chosen, split, crossing, certificate = best
    return ExtractionResult(
        subgraph=Graph(g.vertex_count, split.kept_edges),
        q=q,
        q_clamped=q_raw < 1,
        k=k,
        certified=certificate is not None,
        certificate=certificate,
        crossing_edges=crossing,
        chosen_trial=chosen,
        mean_edges=kept_total / trials,
    )


@dataclass(frozen=True, eq=False)
class DegreeClass:
    """One degree band: the mask of the vertices peeled at ``level`` and their edges."""

    level: int
    vertices: np.ndarray
    graph: Graph  # every edge here touches ``vertices``


@dataclass(frozen=True, eq=False)
class Decomposition:
    classes: tuple[DegreeClass, ...]
    residual: Graph
    residual_vertices: np.ndarray  # the mask of the vertices in no band


def degree_class_decompose(g: Graph, degree_floor: Fraction | int) -> Decomposition:
    """Peel vertices band by band in geometrically shrinking degree ranges.

    Band ``j`` collects the so-far-unclassified vertices whose remaining
    degree lies in ``[BAND_RATIO^j * D, BAND_RATIO^(j-1) * D]`` (``D`` the
    original max degree) together with all their remaining edges.  Peeling
    stops at the first ``T`` with ``BAND_RATIO^T * D <= degree_floor``;
    whatever is left is the residual, whose degrees are all at or below the
    floor.
    """
    floor = Fraction(degree_floor)
    if floor <= 0:
        raise UsageError("degree floor must be positive")

    delta = g.max_degree
    bands = 0
    bound = Fraction(delta)
    while bound > floor:
        bound *= BAND_RATIO
        bands += 1

    remaining = g
    classified = np.zeros(g.vertex_count, dtype=bool)
    classes: list[DegreeClass] = []
    for j in range(1, bands + 1):
        upper = BAND_RATIO ** (j - 1) * delta
        lower = BAND_RATIO**j * delta
        deg = remaining.degrees
        members = ~classified & (deg >= math.ceil(lower))
        over = members & (deg > math.floor(upper))
        if over.any():
            raise InternalInvariantError(
                f"band {j} saw degree {deg[over.argmax()]} above {upper}"
            )
        taken = members[remaining.edge_array].any(axis=1)
        classes.append(DegreeClass(j, members, remaining.keep(taken)))
        remaining = remaining.keep(~taken)
        classified |= members

    if (remaining.degrees[~classified] > math.floor(floor)).any():
        raise InternalInvariantError("residual degree above the floor")
    if sum(c.graph.edge_count for c in classes) + remaining.edge_count != g.edge_count:
        raise InternalInvariantError("decomposition lost or duplicated edges")
    return Decomposition(
        classes=tuple(classes),
        residual=remaining,
        residual_vertices=~classified,
    )


@dataclass(frozen=True)
class BandExtraction:
    """Outcome of extracting from the densest degree band (or the residual)."""

    extraction: ExtractionResult
    selection: str  # "band", "residual", or "empty"
    band_level: int | None
    selected_edges: int
    total_edges: int
    achieved_ratio: Fraction
    reference_ratio: float


def extract_from_densest_band(
    g: Graph,
    beta: float,
    r: int,
    k: int,
    trials: int,
    seed: int,
) -> BandExtraction:
    """Decompose by degree bands, pick a dense piece, extract path-free edges.

    Band ``j`` is selected if it holds at least a ``SELECT_RATIO^j`` share of
    the edges (first such ``j``); otherwise the residual, which then holds at
    least a third of the edges.  One of the two always fires because the
    geometric shares plus a third sum below 1.  ``reference_ratio`` records
    the asymptotic yardstick ``60 / (beta^0.9 * r)`` for e(H)/e(G); it is
    informational and not a promise at small scale.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise UsageError("density parameter beta must be positive and finite")
    if r < 1:
        raise UsageError("colour budget r must be positive")
    if k < 4:
        raise UsageError("extraction certificates need k >= 4")
    if trials < 1:
        raise UsageError("need at least one trial")
    reference = 60.0 / (beta**0.9 * r)
    if g.edge_count == 0:
        empty = ExtractionResult(
            subgraph=g,
            q=1,
            q_clamped=False,
            k=k,
            certified=True,
            certificate="empty",
            crossing_edges=0,
            chosen_trial=None,
            mean_edges=0.0,
        )
        return BandExtraction(empty, "empty", None, 0, 0, Fraction(0), reference)

    decomp = degree_class_decompose(g, Fraction(r))
    total = g.edge_count
    for band in decomp.classes:
        if band.graph.edge_count >= SELECT_RATIO**band.level * total:
            piece, core, level = band.graph, band.vertices, band.level
            selection = "band"
            break
    else:
        piece, core, level = decomp.residual, decomp.residual_vertices, None
        selection = "residual"
        if 3 * piece.edge_count < total:
            raise InternalInvariantError(
                "neither a dense band nor a dense residual exists"
            )
    # the ends of the piece's edges outside its core: none for the residual
    independent = (piece.degrees > 0) & ~core
    result = extract_path_free_subgraph(
        piece, core=core, independent=independent, k=k, trials=trials, seed=seed
    )
    return BandExtraction(
        extraction=result,
        selection=selection,
        band_level=level,
        selected_edges=piece.edge_count,
        total_edges=total,
        achieved_ratio=Fraction(result.subgraph.edge_count, total),
        reference_ratio=reference,
    )
