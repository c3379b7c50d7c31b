"""The staged colouring pipeline.

Given a colour budget ``r`` and a forbidden path length ``k`` (vertices), the
pipeline colours every edge of the input through stages that each leave a
residual for the next:

1. low-degree refinement: everything touching a vertex of degree <= r/7,
   within ``r/3`` colours (matchings and star forests);
2. an initial star refinement with ``floor(r/6)`` colours, aiming the
   residual's maximum degree at ``beta0 * r * log r``;
3. shrinking rounds ``i = 0, 1, ...``: up to ``floor(r * RHO^i / 12)``
   certified path-free extractions, then a star refinement with the same
   number of colours, spending at most ``r * RHO^i / 6`` per round while the
   tracked degree bound decays by ``ZETA`` per round;
4. an endgame on what is left: a proper colouring directly when the maximum
   degree is at most ``r/7``, otherwise a wide star refinement followed by a
   proper colouring.

Every class produced anywhere is path-free for the given ``k`` by
construction, so the pipeline's only failure mode is spending more than ``r``
colours; soundness is re-checked independently by :mod:`pathfree.verify`.
Each stage colours its input's rows from 0, -1 on the rows it leaves.
:func:`colour_graph` places them: it holds one colour array over
``g.edge_array``, writes each stage's colours after those spent so far into
the rows still at -1, and owns the residual, ``g.keep(colour < 0)``.

``k = 3`` is special: only matchings avoid 3-vertex paths, so the pipeline
reduces to one proper colouring and ends as ``k3-direct``.  Otherwise the
rounds end at the first of ``degree-floor`` (tracked degree below ``r/7``),
``edge-floor`` (``m^4 <= r^7 k^4``), ``round-budget-exhausted`` (no
extraction affordable) and ``extraction-failed`` (a round aborted).  A round
starts only with an edge left and an extraction affordable, so it aborts or
spends a colour.

All thresholds and budgets are tracked as exact rationals.  The shrink
constants are fixed by the round analysis: ``ETA = 1/10`` (a round stops
extracting at ``ETA`` times its starting edge count), ``ZETA = 1/3`` and
``RHO = 2/5``, which satisfy ``RHO < 1/2``, ``ZETA^0.9 < RHO`` and
``ETA < RHO * ZETA``.  The density scale ``beta0`` defaults to the value
dictated by the asymptotic analysis (about 8e-153), which desk-scale
experiments will usually override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

import numpy as np

from .colouring import (
    EdgeColouring,
    low_degree_refinement,
    proper_edge_colouring,
    star_refinement,
)
from .errors import InternalInvariantError, UsageError
from .extract import extract_from_densest_band
from .graph import Graph, plain_record, subtract
from .rng import subseed

__all__ = [
    "ETA",
    "ZETA",
    "RHO",
    "default_density_scale",
    "PipelineParams",
    "StageRecord",
    "RoundTrace",
    "RoundOutcome",
    "run_round",
    "PipelineResult",
    "colour_graph",
    "audit_round_budgets",
]


ETA = Fraction(1, 10)
ZETA = Fraction(1, 3)
RHO = Fraction(2, 5)


def default_density_scale() -> float:
    """Largest beta0 satisfying both closing inequalities of the analysis.

    Solves ``(1/b)^(1/30) >= max(2e * 360 * 60, log(5 / b^2))`` for the
    largest ``b`` by bisection on the exponent.  The first constraint binds,
    so the value is essentially ``(2e * 360 * 60)^-30``.
    """
    big = 2 * math.e * 360 * 60

    def holds(log10_b: float) -> bool:
        # log-space to survive b**2 underflow near 1e-300
        lhs = 10.0 ** (-log10_b / 30.0)
        rhs = math.log(5.0) - 2.0 * log10_b * math.log(10.0)
        return lhs >= big and lhs >= rhs

    lo, hi = -300.0, 0.0  # holds at lo, fails at hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 10.0**lo


DEFAULT_DENSITY_SCALE = default_density_scale()


@dataclass(frozen=True)
class PipelineParams:
    """The settings of one pipeline run.

    ``strict`` raises on violated analytic preconditions instead of merely
    reporting them.  The shrink constants are the module's ``ETA``, ``ZETA``
    and ``RHO``, and the density scale ``c0`` is ``beta0 / 576``; the record
    still lists all four.  ``beta0`` must be positive, and with ``r`` leave
    ``density_cap`` and ``degree_goal`` finite, so every record is strict JSON.
    """

    r: int
    k: int
    beta0: float = DEFAULT_DENSITY_SCALE
    trials_per_extraction: int = 200
    seed: int = 0
    strict: bool = False

    def __post_init__(self) -> None:
        if self.r < 1:
            raise UsageError("colour budget r must be at least 1")
        if self.k < 3:
            raise UsageError("no colouring avoids 2-vertex paths; k must be >= 3")
        if not (math.isfinite(self.beta0) and self.beta0 > 0):
            raise UsageError("beta0 must be positive and finite")
        try:
            bounded = math.isfinite(self.density_cap) and math.isfinite(self.degree_goal)
        except OverflowError:  # r itself is beyond float range
            bounded = False
        if not bounded:
            raise UsageError(
                "the density cap beta0/576 * r^2 * log r * k and the degree "
                "goal beta0 * r * log r must be finite"
            )
        if self.trials_per_extraction < 1:
            raise UsageError("need at least one extraction trial")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")
        if self.strict and not self.k >= 100 * math.log(self.r):
            raise UsageError("strict mode requires k >= 100 log r")

    @property
    def density_scale(self) -> Fraction:
        return Fraction(self.beta0) / 576

    @property
    def log_r(self) -> float:
        return math.log(self.r) if self.r > 1 else 1.0

    @property
    def density_cap(self) -> float:
        """The edge count the analysis covers: ``beta0/576 · r² · log r · k``."""
        return float(self.density_scale) * self.r * self.r * self.log_r * self.k

    @property
    def degree_goal(self) -> float:
        """The initial star stage's maximum-degree aim: ``beta0 · r · log r``."""
        return _tracked_degree(self, 0)

    def to_record(self) -> dict:
        return {
            "r": self.r,
            "k": self.k,
            "eta": str(ETA),
            "zeta": str(ZETA),
            "rho": str(RHO),
            "beta0": self.beta0,
            "beta0_is_default": self.beta0 == DEFAULT_DENSITY_SCALE,
            "c0": str(self.density_scale),
            "trials_per_extraction": self.trials_per_extraction,
            "seed": self.seed,
            "strict": self.strict,
        }


def _tracked_degree(params: PipelineParams, i: int) -> float:
    """Round ``i``'s tracked maximum degree, ``beta0 · ZETA^i · r · log r``."""
    return params.beta0 * float(ZETA) ** i * params.r * params.log_r


def _round_budget(r: int, i: int) -> Fraction:
    """The colours round ``i`` may spend: ``r · RHO^i / 6``."""
    return Fraction(r) * RHO**i / 6


def _at_edge_floor(g: Graph, r: int, k: int) -> bool:
    """Whether ``g``'s edge count ``m`` is down to the floor ``m^4 <= r^7 k^4``."""
    return g.edge_count**4 <= r**7 * k**4


@dataclass(frozen=True)
class StageRecord:
    """Colour accounting for one non-round stage."""

    name: str
    colour_base: int
    colours_used: int
    budget: Fraction
    budget_ok: bool
    edges_before: int
    edges_after: int
    notes: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return plain_record(self)


@dataclass(frozen=True)
class RoundTrace:
    """Everything round ``i`` did, in exact numbers."""

    round_index: int
    colour_base: int
    edges_before: int
    edges_after: int
    max_degree_before: int
    max_degree_after: int
    extractions: int
    star_colours: int
    colours_spent: int
    extraction_budget: int
    budget: Fraction
    edge_target: Fraction
    edge_target_met: bool
    degree_target: float
    degree_target_met: bool
    extraction_ratios: tuple[Fraction, ...]
    aborted: bool
    abort_reason: str | None

    def to_record(self) -> dict:
        return plain_record(self)


@dataclass(frozen=True)
class RoundOutcome:
    """A round's trace and its colours, one per input row and -1 on the rows
    it leaves: extraction ``j`` is colour ``j``, the star colours follow."""

    trace: RoundTrace
    colours: np.ndarray


def run_round(
    g: Graph, round_index: int, params: PipelineParams, colour_base: int
) -> RoundOutcome:
    """One shrinking round: certified extractions, then a star refinement.

    Each extraction becomes one colour class; the loop stops once the edge
    count drops to ``ETA`` times the starting count or the extraction budget
    ``floor(r * RHO^i / 12)`` runs out.  The star step gets the same number
    of colours.  Total spending is at most ``r * RHO^i / 6`` by construction;
    exceeding it would be a bug and raises.  The round's colours start at 0:
    the caller places them, and ``colour_base`` only goes into the trace.
    """
    if params.k < 4:
        raise UsageError("rounds need k >= 4 (star classes contain P_3)")
    r, k = params.r, params.k
    budget = _round_budget(r, round_index)
    extraction_budget = math.floor(budget / 2)
    edges_before = g.edge_count
    degree_before = g.max_degree
    edge_target = ETA * edges_before

    work = g
    placed = _Spending(np.full(g.edge_count, -1, dtype=np.int64))
    ratios: list[Fraction] = []
    abort_reason: str | None = None

    for j in range(extraction_budget):
        if Fraction(work.edge_count) <= edge_target:
            break
        band = extract_from_densest_band(
            work,
            r=r,
            k=k,
            trials=params.trials_per_extraction,
            seed=subseed(params.seed, "round", round_index, "extract", j),
        )
        result = band.extraction
        if not result.certified:
            abort_reason = "uncertified-extraction"
            break
        # never empty: a cut edge's B-end joins a part holding an A-neighbour
        placed._place(np.where(subtract(work, result.subgraph), -1, 0))
        work = g.keep(placed.colour < 0)
        ratios.append(band.achieved_ratio)

    if abort_reason is None and extraction_budget >= 1 and work.edge_count > 0:
        placed._place(star_refinement(work, extraction_budget, k).colours)
        work = g.keep(placed.colour < 0)

    spent = placed.total
    if Fraction(spent) > budget:
        raise InternalInvariantError(
            f"round {round_index} spent {spent} colours over budget {budget}"
        )
    degree_target = _tracked_degree(params, round_index + 1)
    trace = RoundTrace(
        round_index=round_index,
        colour_base=colour_base,
        edges_before=edges_before,
        edges_after=work.edge_count,
        max_degree_before=degree_before,
        max_degree_after=work.max_degree,
        extractions=len(ratios),
        star_colours=spent - len(ratios),
        colours_spent=spent,
        extraction_budget=extraction_budget,
        budget=budget,
        edge_target=edge_target,
        edge_target_met=Fraction(work.edge_count) <= edge_target,
        degree_target=degree_target,
        degree_target_met=work.max_degree <= degree_target,
        extraction_ratios=tuple(ratios),
        aborted=abort_reason is not None,
        abort_reason=abort_reason,
    )
    return RoundOutcome(trace, placed.colour)


@dataclass(frozen=True)
class PipelineResult:
    params: PipelineParams
    colouring: EdgeColouring
    stages: tuple[StageRecord, ...]
    rounds: tuple[RoundTrace, ...]
    total_colours: int
    success: bool
    preconditions: dict
    termination_reason: str | None
    endgame_case: str | None

    def to_record(self) -> dict:
        """Every field but the colouring, plus ``params`` and ``colour_budget``."""
        return {
            "params": self.params.to_record(),
            **plain_record(self, skip=("params", "colouring")),
            "colour_budget": self.params.r,
        }


def _preconditions(g: Graph, params: PipelineParams) -> dict:
    k, log_r = params.k, params.log_r
    return {
        "edges": g.edge_count,
        "density_cap": params.density_cap,
        "density_ok": g.edge_count <= params.density_cap,
        "k": k,
        "k_floor": 100 * log_r,
        "k_ok": k >= 100 * log_r,
    }


@dataclass
class _Spending:
    """The colours spent so far and what spent them: ``colour`` holds each
    input row's colour, -1 until placed."""

    colour: np.ndarray
    stages: list[StageRecord] = field(default_factory=list)
    rounds: list[RoundTrace] = field(default_factory=list)
    total: int = 0

    def _place(self, part: np.ndarray) -> int:
        """Write a part, coloured from 0 with -1 on the rows it leaves, into
        the rows still at -1 after the colours spent so far, and return how
        many colours it takes."""
        open_rows = self.colour < 0
        if len(part) != np.count_nonzero(open_rows):
            raise InternalInvariantError(
                f"a part of {len(part)} rows for {open_rows.sum()} uncoloured rows"
            )
        self.colour[open_rows] = np.where(part < 0, -1, part + self.total)
        used = len(np.unique(part[part >= 0]))
        self.total += used
        return used

    def stage(
        self, name: str, budget: Fraction, base: int, before: int, **notes
    ) -> None:
        """End a stage that placed colours from ``base`` on ``before`` edges."""
        used = self.total - base
        after = int(np.count_nonzero(self.colour < 0))
        self.stages.append(
            StageRecord(name, base, used, budget, used <= budget, before, after, notes)
        )

    def round(self, outcome: RoundOutcome) -> None:
        """End a round; its colours must be the ones its trace spent."""
        used, trace = self._place(outcome.colours), outcome.trace
        if used != trace.colours_spent:
            raise InternalInvariantError(
                f"round {trace.round_index} placed {used} colours, "
                f"not the {trace.colours_spent} it spent"
            )
        self.rounds.append(trace)


def colour_graph(g: Graph, params: PipelineParams) -> PipelineResult:
    """Colour every edge of ``g``; success means at most ``r`` colours total.

    The result's colouring is always total and always path-free by
    construction for the given ``k``; budgets and preconditions are reported
    per stage so a failed run explains where the colours went.
    """
    r, k = params.r, params.k
    spending = _Spending(np.full(g.edge_count, -1, dtype=np.int64))

    if k == 3:
        spending._place(proper_edge_colouring(g).colours)
        spending.stage(
            "proper-only", Fraction(r), 0, g.edge_count,
            reason="k=3 admits only matchings as classes",
        )
        return _finish(g, params, spending, "k3-direct", "proper-only")

    low = low_degree_refinement(g, r)
    spending._place(low.colours)
    current = g.keep(spending.colour < 0)
    low_count = int(low.vertices_removed.sum())
    spending.stage(
        "low-degree", Fraction(r, 3), 0, g.edge_count,
        degree_threshold=str(low.threshold),
        low_vertices=low_count,
        high_vertices=g.vertex_count - low_count,
        residual_active_vertices=int((current.degrees > 0).sum()),
    )
    del low  # no stage result outlives its placement

    initial_star_colours = r // 6
    if initial_star_colours >= 1 and current.edge_count > 0:
        star0 = star_refinement(current, initial_star_colours, k)
        base, before = spending.total, current.edge_count
        spending._place(star0.colours)
        current = g.keep(spending.colour < 0)
        spending.stage(
            "initial-star", Fraction(r, 6), base, before,
            degree_threshold=str(star0.threshold),
            degree_goal=params.degree_goal,
            degree_goal_met=current.max_degree <= params.degree_goal,
            packing_ok=star0.degree_bound_ok,
        )
        del star0

    for i in count():
        if _tracked_degree(params, i) < r / 7:
            termination = "degree-floor"
            break
        if _at_edge_floor(current, r, k):
            termination = "edge-floor"
            break
        if _round_budget(r, i) < 2:  # floor(budget / 2) = 0 extractions
            termination = "round-budget-exhausted"
            break
        spending.round(run_round(current, i, params, spending.total))
        current = g.keep(spending.colour < 0)
        if spending.rounds[-1].aborted:
            termination = "extraction-failed"
            break

    endgame = "empty"
    if current.edge_count > 0:
        if 7 * current.max_degree <= r:
            endgame = "proper"
        elif _at_edge_floor(current, r, k):
            endgame = "star+proper"
        else:
            endgame = "fallback-star+proper"
        base, before, star_note = spending.total, current.edge_count, {}
        if endgame != "proper":
            wide = math.ceil(56 * r**0.75)
            star_end = star_refinement(current, wide, k)
            star_note = {
                "star_colour_cap": wide,
                "star_colours": spending._place(star_end.colours),
                "packing_ok": star_end.degree_bound_ok,
            }
            del star_end
            current = g.keep(spending.colour < 0)
        proper_colours = 0
        if current.edge_count > 0:
            proper_colours = spending._place(proper_edge_colouring(current).colours)
        spending.stage(
            "endgame", Fraction(r, 6), base, before,
            case=endgame,
            proper_colours=proper_colours,
            proper_cap=math.ceil(Fraction(r, 7)) + 1,
            **star_note,
        )

    return _finish(g, params, spending, termination, endgame)


def _finish(
    g: Graph,
    params: PipelineParams,
    spending: _Spending,
    termination: str | None,
    endgame: str | None,
) -> PipelineResult:
    left = np.count_nonzero(spending.colour < 0)
    if left:
        raise InternalInvariantError(
            f"the stages left {left} of {g.edge_count} edges uncoloured"
        )
    colouring = EdgeColouring(g.edge_array, spending.colour)
    total = colouring.colours_used
    if total != spending.total:
        raise InternalInvariantError(
            f"colour ranges are not compact: {total} used vs {spending.total} allocated"
        )
    return PipelineResult(
        params=params,
        colouring=colouring,
        stages=tuple(spending.stages),
        rounds=tuple(spending.rounds),
        total_colours=total,
        success=total <= params.r,
        preconditions=_preconditions(g, params),
        termination_reason=termination,
        endgame_case=endgame,
    )


def audit_round_budgets(result: PipelineResult) -> list[str]:
    """Re-check every round's spending against ``r * RHO^i / 6``, exactly.

    Returns human-readable violation strings; any entry means an internal
    invariant was broken (the command line maps that to exit code 3).  On
    any result of :func:`colour_graph` both checks hold by construction:
    ``run_round`` raises before a round spends over its budget, and sets
    ``star_colours`` to ``colours_spent - extractions``.  They catch a
    tampered or hand-built trace.
    """
    violations: list[str] = []
    r = result.params.r
    for trace in result.rounds:
        cap = _round_budget(r, trace.round_index)
        if Fraction(trace.colours_spent) > cap:
            violations.append(
                f"round {trace.round_index} spent {trace.colours_spent} "
                f"colours, budget {cap}"
            )
        if trace.colours_spent != trace.extractions + trace.star_colours:
            violations.append(
                f"round {trace.round_index} spending does not decompose"
            )
    return violations
