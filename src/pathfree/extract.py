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

Sets are masks, partitions are part arrays: every vertex set (the core the
bipartition splits, the A side of a split) is a boolean mask over
``0..n-1``, checked by ``graph.checked_mask``.  A partition is an int64
array: the blocks of a split hold each vertex's part, and -1 off the
partition; the degree bands hold each vertex's and each edge row's band
level, and 0 for the residual, so the chosen piece is one ``Graph.keep`` of
its rows and its core one comparison.  Side B is every vertex off A; an
isolated one lands in part 0, on no edge.  Each trial works on numpy arrays
over ``g.edge_array`` only:
the A mask from the bipartition, a part array, the A-part sizes and the kept
edge rows.  ``component-order`` is ruled out at once by a kept vertex of
degree ``k - 1`` or more; otherwise it is checked by min-label propagation
over the kept rows for at most ``k - 1`` rounds: a component on fewer than
``k`` vertices has diameter at most ``k - 2``, so labels that have not
settled by then rule the certificate out, and settled labels are the
components, whose sizes one ``bincount`` gives.  Only the chosen trial
becomes a ``Graph``.  Rows and keys are selected with ``compress``, not a
boolean subscript, which on an unpredictable mask takes several times as
long and was the largest cost of a trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolation, InternalInvariantError, UsageError
from .graph import Graph, checked_mask, random_balanced_bipartition
from .rng import substream

__all__ = [
    "greedy_bin_assignment",
    "BlockSplit",
    "block_partition",
    "ExtractionResult",
    "extract_path_free_subgraph",
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


def greedy_bin_assignment(g: Graph, owner: np.ndarray) -> np.ndarray:
    """Send each vertex off A to the part with most of its neighbours.

    ``owner`` holds each A-vertex's part and -1 off A, and B is every vertex
    off A; the result holds the part of each B-vertex and -1 on A.  Ties
    break to the lowest part index, so the outcome does not depend on
    iteration order; a vertex with no neighbour in any part lands in part 0.
    """
    owner = np.asarray(owner)
    if owner.shape != (g.vertex_count,) or owner.dtype.kind != "i":
        raise ContractViolation(
            f"owner must be a signed int array over 0..{g.vertex_count - 1}"
        )
    in_b = owner < 0
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

    ``part`` holds each vertex's block, ``in_a`` marks the A-side (B is the
    rest), ``sizes`` counts the A-vertices of each block and ``kept_edges``
    holds the kept rows of ``edge_array``, in order.
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
    g: Graph, in_a: np.ndarray, q: int, rng: np.random.Generator
) -> BlockSplit:
    """Scatter side A into ``q`` uniform parts, assign the rest greedily, keep blocks.

    ``in_a`` is a boolean mask over ``0..n-1`` and side B is every other
    vertex.  The kept edges are exactly those running between ``A_i`` and
    ``B_i`` for some shared ``i``; edges inside a side or across blocks are
    dropped.
    """
    if q < 1:
        raise UsageError("need at least one block")
    in_a = checked_mask(g, in_a)
    a_ids = np.flatnonzero(in_a)
    owner = np.full(g.vertex_count, -1, dtype=np.int64)
    owner[a_ids] = rng.integers(0, q, size=a_ids.size)  # one draw, over sorted a
    part = np.where(in_a, owner, greedy_bin_assignment(g, owner))
    u, v = g.edge_array.T
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
    k: int,
    trials: int,
    seed: int,
) -> ExtractionResult:
    """Run the block-split extraction and return the best certified attempt.

    Preconditions: ``core`` is a boolean mask over ``0..n-1``, every edge of
    ``g`` has at least one endpoint in ``core`` (so each trial's bipartition
    cuts at least half of them), and ``k >= 4``.  Each trial splits the core
    and scatters its A half; every vertex off A is that split's B side.
    Each trial draws its own substream of ``seed``, so results do not depend
    on execution order.
    """
    in_core = checked_mask(g, core)
    if not in_core.any():
        raise ContractViolation("core vertex set is empty")
    if k < 4:
        raise UsageError("extraction certificates need k >= 4")
    if trials < 1:
        raise UsageError("need at least one trial")
    u, v = g.edge_array.T
    stray = ~(in_core[u] | in_core[v])
    if stray.any():
        edge = tuple(g.edge_array[stray.argmax()].tolist())
        raise ContractViolation(f"edge {edge} avoids the core")

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
        split = block_partition(g, bp.in_a, q, rng)
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
class Decomposition:
    """The degree bands as part arrays over the vertices and the edge rows.

    ``vertex_band`` holds the level ``j >= 1`` of the band that peeled each
    vertex, and ``row_band`` that of each row of ``g.edge_array``: the first
    band to peel one of its ends.  Level 0 is the residual in both.
    """

    vertex_band: np.ndarray
    row_band: np.ndarray


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

    edges = g.edge_array
    u, v = edges.T
    vertex_band = np.zeros(g.vertex_count, dtype=np.int64)
    row_band = np.zeros(g.edge_count, dtype=np.int64)
    deg = g.degrees  # over the rows no band has taken yet
    for j in range(1, bands + 1):
        upper = BAND_RATIO ** (j - 1) * delta
        lower = BAND_RATIO**j * delta
        members = (vertex_band == 0) & (deg >= math.ceil(lower))
        over = members & (deg > math.floor(upper))
        if over.any():
            raise InternalInvariantError(
                f"band {j} saw degree {deg[over.argmax()]} above {upper}"
            )
        vertex_band[members] = j
        taken = (row_band == 0) & (members[u] | members[v])
        row_band[taken] = j
        deg = deg - np.bincount(
            edges.compress(taken, axis=0).ravel(), minlength=g.vertex_count
        )

    if (deg[vertex_band == 0] > math.floor(floor)).any():
        raise InternalInvariantError("residual degree above the floor")
    return Decomposition(vertex_band, row_band)


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
    try:
        reference = 60.0 / (beta**0.9 * r)
    except OverflowError:  # r itself is beyond float range
        raise UsageError("colour budget r must be within float range") from None
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
    counts = np.bincount(decomp.row_band).tolist()
    level = next(
        (j for j in range(1, len(counts)) if counts[j] >= SELECT_RATIO**j * total), 0
    )
    if level == 0 and 3 * counts[0] < total:
        raise InternalInvariantError("neither a dense band nor a dense residual exists")
    piece = g.keep(decomp.row_band == level)
    core = decomp.vertex_band == level
    result = extract_path_free_subgraph(piece, core=core, k=k, trials=trials, seed=seed)
    return BandExtraction(
        extraction=result,
        selection="band" if level else "residual",
        band_level=level or None,
        selected_edges=piece.edge_count,
        total_edges=total,
        achieved_ratio=Fraction(result.subgraph.edge_count, total),
        reference_ratio=reference,
    )
