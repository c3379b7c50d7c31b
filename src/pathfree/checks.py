"""Exhaustive and sampled verification of the analytic inequalities.

Every check compares an exact rational quantity against a bound.  Where the
bound itself is irrational (solver values, exponentials, gamma functions) the
comparison is made conservative: the bound is nudged against the direction
being verified by a relative epsilon before comparing, and gamma-function
brackets are evaluated in 50-digit arithmetic.  A reported pass therefore
never hinges on float rounding.

Each check returns a :class:`CheckResult` with the cell count, violation
count, the smallest margin seen, and a few example cells for any violations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from .bins import (
    _exact_grid,
    _refuse_over_cap,
    binomial_tail,
    exact_max_load_expectation,
    max_load_expectation_lower_bound,
    max_load_fraction_lower_bound,
    monte_carlo_max_load,
    multinomial_max_expectation,
    t_transform,
    top_two_bins_joint_tail,
)
from .errors import UsageError
from .rng import substream

__all__ = [
    "CheckResult",
    "check_solver_floor",
    "check_fraction_floor",
    "check_closed_form_floor",
    "check_expectation_monotone",
    "check_schur_transforms",
    "check_two_bin_monotone",
    "check_joint_vs_single",
    "check_shifted_binomial",
    "check_gamma_bracket",
    "check_gamma_ratio_bracket",
    "check_mc_within_error",
    "run_all_checks",
]

ExpectationFn = Callable[[int, int], Fraction]

# Bounds computed in floats are tightened by this relative factor before a
# comparison counts as verified.
GUARD = Fraction(1, 10**9)


@dataclass(frozen=True)
class CheckResult:
    name: str
    cells: int
    violations: int
    min_margin: float
    seconds: float
    examples: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "cells": self.cells,
            "violations": self.violations,
            "min_margin": self.min_margin,
            "seconds": round(self.seconds, 3),
            "examples": list(self.examples),
        }

    def summary_line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"{self.name:<28} {status:<5} cells={self.cells:<8} "
            f"violations={self.violations:<4} min_margin={self.min_margin:.6g} "
            f"({self.seconds:.2f}s)"
        )


class _Tally:
    def __init__(self, name: str) -> None:
        self.name = name
        self.cells = 0
        self.violations = 0
        self.min_margin = math.inf
        self.examples: list[str] = []
        self.start = time.perf_counter()

    def record(self, ok: bool, margin: float, describe: Callable[[], str]) -> None:
        """Count one cell; ``describe`` is called, at once, only for an example."""
        self.cells += 1
        self.min_margin = min(self.min_margin, margin)
        if not ok:
            self.violations += 1
            if len(self.examples) < 5:
                self.examples.append(describe())

    def record_passes(self, count: int, margin: float) -> None:
        """Count ``count`` passing cells whose smallest margin is ``margin``."""
        self.cells += count
        self.min_margin = min(self.min_margin, margin)

    def done(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            cells=self.cells,
            violations=self.violations,
            min_margin=self.min_margin if self.cells else 0.0,
            seconds=time.perf_counter() - self.start,
            examples=tuple(self.examples),
        )


def _need_one(count: int, check: str, unit: str) -> None:
    if count < 1:
        raise UsageError(f"the {check} check needs at least one {unit}")


def _need_two_rows(q_range: tuple[int, int], n_range: tuple[int, int]) -> None:
    if q_range[1] <= q_range[0] or n_range[1] <= n_range[0]:
        raise UsageError(
            "the monotonicity check needs at least two bin counts and two "
            "ball counts"
        )


def check_solver_floor(
    q_range: tuple[int, int],
    n_range: tuple[int, int],
    expectation: ExpectationFn,
) -> CheckResult:
    """Exact E[M] dominates the solver bound x*n/(10q) on the whole grid."""
    tally = _Tally("solver-floor")
    for q, n in _exact_grid(q_range, n_range):
        exact = expectation(q, n)
        bound = max_load_expectation_lower_bound(q, n).value
        ok = exact >= Fraction(bound) * (1 + GUARD)
        tally.record(
            ok, float(exact) - bound, lambda: f"q={q} n={n}: {exact} < {bound}"
        )
    return tally.done()


def check_fraction_floor(
    q_range: tuple[int, int],
    n_range: tuple[int, int],
    expectation: ExpectationFn,
) -> CheckResult:
    """E[M]/n never drops below max(1/q, 1/n); exact comparison."""
    tally = _Tally("fraction-floor")
    for q, n in _exact_grid(q_range, n_range):
        w = expectation(q, n) / n
        floor = max(Fraction(1, q), Fraction(1, n))
        tally.record(
            w >= floor, float(w - floor), lambda: f"q={q} n={n}: {w} < {floor}"
        )
    return tally.done()


def check_closed_form_floor(
    q_range: tuple[int, int],
    n_range: tuple[int, int],
    expectation: ExpectationFn,
) -> CheckResult:
    """W(q, n) dominates the closed form at every worse corner (q0>=q, n0>=n).

    ``q0`` and ``n0`` run over half-integer steps up to the grid edge, since
    the closed form is stated for real arguments.  Each cell is compared once
    against the largest bound among its corners; only a cell that fails that
    comparison is compared corner by corner.  Float subtraction is monotone,
    so the smallest ``w - bound`` over the corners is ``w`` minus the largest.
    """
    tally = _Tally("closed-form-floor")
    q_lo, q_hi = max(q_range[0], 2), q_range[1]
    n_lo, n_hi = n_range
    cells = _exact_grid((q_lo, q_hi), n_range)
    # Each corner's bound serves every cell at or below it in both
    # coordinates, so it is computed once per corner; highest[a][b] is the
    # largest bound at or above corner (a, b).
    q0s = [twice_q0 / 2 for twice_q0 in range(2 * q_lo, 2 * q_hi + 1)]
    n0s = [twice_n0 / 2 for twice_n0 in range(2 * n_lo, 2 * n_hi + 1)]
    bounds = [[max_load_fraction_lower_bound(q0, n0) for n0 in n0s] for q0 in q0s]
    flipped = np.array(bounds)[::-1, ::-1]
    highest = np.maximum.accumulate(
        np.maximum.accumulate(flipped, axis=0), axis=1
    )[::-1, ::-1].tolist()
    for q, n in cells:
        w = expectation(q, n) / n
        w_float = float(w)
        a, b = 2 * (q - q_lo), 2 * (n - n_lo)
        top = highest[a][b]
        if w >= Fraction(top) * (1 + GUARD):
            tally.record_passes((len(q0s) - a) * (len(n0s) - b), w_float - top)
            continue
        for q0, bound_row in zip(q0s[a:], bounds[a:]):
            for n0, bound in zip(n0s[b:], bound_row[b:]):
                tally.record(
                    w >= Fraction(bound) * (1 + GUARD),
                    w_float - bound,
                    lambda: f"q={q} n={n} q0={q0} n0={n0}: {w_float} < {bound}",
                )
    return tally.done()


def check_expectation_monotone(
    q_range: tuple[int, int],
    n_range: tuple[int, int],
    expectation: ExpectationFn,
) -> CheckResult:
    """W(q, n) is non-increasing in each of q and n; exhaustive and exact.

    Each cell off the grid's last bin count and last ball count is compared
    with the cells one bin and one ball up, so every value read lies in the
    grid.
    """
    _need_two_rows(q_range, n_range)
    tally = _Tally("fraction-monotone")
    values = {(q, n): expectation(q, n) / n for q, n in _exact_grid(q_range, n_range)}
    (q_lo, q_hi), (n_lo, n_hi) = q_range, n_range
    for q, n in _exact_grid((q_lo, q_hi - 1), (n_lo, n_hi - 1)):
        here = values[(q, n)]
        more_bins = values[(q + 1, n)]
        more_balls = values[(q, n + 1)]
        tally.record(
            more_bins <= here,
            float(here - more_bins),
            lambda: f"q={q}->{q + 1} n={n}: {more_bins} > {here}",
        )
        tally.record(
            more_balls <= here,
            float(here - more_balls),
            lambda: f"q={q} n={n}->{n + 1}: {more_balls} > {here}",
        )
    return tally.done()


def check_schur_transforms(samples: int, seed: int) -> CheckResult:
    """Random T-transforms never increase the expected maximum cell.

    Each sample draws a rational probability vector on at most 4 bins, a
    mixing weight, and at most 6 balls; the transformed vector is majorized
    by the original, so its expected maximum must not exceed the original's.
    """
    _need_one(samples, "Schur", "sample")
    tally = _Tally("schur-transform")
    rng = substream(seed, "schur-check")
    for _ in range(samples):
        bins = int(rng.integers(2, 5))
        weights = [int(w) for w in rng.integers(1, 10, size=bins)]
        total = sum(weights)
        p = tuple(Fraction(w, total) for w in weights)
        n = int(rng.integers(1, 7))
        i, j = (int(x) for x in rng.choice(bins, size=2, replace=False))
        lam = Fraction(int(rng.integers(0, 11)), 10)
        before = multinomial_max_expectation(p, n)
        after = multinomial_max_expectation(t_transform(p, i, j, lam), n)
        tally.record(
            after <= before,
            float(before - after),
            lambda: f"p={p} n={n} i={i} j={j} lam={lam}: {after} > {before}",
        )
    return tally.done()


def check_two_bin_monotone() -> CheckResult:
    """E max(X, n-X) for X ~ Bin(n, p) is non-increasing as p rises to 1/2.

    Runs over ``n <= 10`` and ``p`` in steps of 1/20; each value is an
    integer sum over ``20^n``.
    """
    tally = _Tally("two-bin-monotone")
    for n in range(1, 11):
        values = []
        for step in range(11):  # p = 0, 1/20, ..., 1/2
            count = sum(
                math.comb(n, k) * step**k * (20 - step) ** (n - k) * max(k, n - k)
                for k in range(n + 1)
            )
            values.append((Fraction(step, 20), Fraction(count, 20**n)))
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                pa, va = values[a]
                pb, vb = values[b]
                tally.record(
                    va >= vb,
                    float(va - vb),
                    lambda: f"n={n} p={pa}<{pb}: {va} < {vb}",
                )
    return tally.done()


def check_joint_vs_single() -> CheckResult:
    """Joint two-bin tail is at most exp(n/q^2 + 1/q) times the single squared.

    Runs over ``4 <= q <= 8`` and ``q <= n <= 16``.
    """
    tally = _Tally("joint-tail-factor")
    for q in range(4, 9):
        for n in range(q, 17):
            for t in range(math.ceil(n / q), n + 1):
                tails = top_two_bins_joint_tail(q, n, t)
                factor = math.exp(n / q**2 + 1 / q)
                rhs = Fraction(factor) * (1 - GUARD) * tails.single**2
                tally.record(
                    tails.joint <= rhs,
                    float(rhs - tails.joint),
                    lambda: f"q={q} n={n} t={t}: joint {tails.joint} > {rhs}",
                )
    return tally.done()


def check_shifted_binomial() -> CheckResult:
    """Dropping the top p-fraction of trials costs at most exp(p^2 n + p).

    Verifies P(Bin(floor((1-p) n), p/(1-p)) >= t) <= exp(p^2 n + p) *
    P(Bin(n, p) >= t) for ``n <= 16`` and p in steps of 1/20 up to 1/4.
    """
    tally = _Tally("shifted-binomial")
    for step in range(1, 6):
        p = Fraction(step, 20)
        shifted_p = p / (1 - p)
        for n in range(1, 17):
            reduced = math.floor((1 - p) * n)
            factor = math.exp(float(p) ** 2 * n + float(p))
            for t in range(1, n + 1):
                lhs = binomial_tail(reduced, shifted_p, t)
                rhs = Fraction(factor) * (1 - GUARD) * binomial_tail(n, p, t)
                tally.record(
                    lhs <= rhs,
                    float(rhs - lhs),
                    lambda: f"p={p} n={n} t={t}: {lhs} > {rhs}",
                )
    return tally.done()


# The gamma brackets are checked at x = 0.1, 0.2, ..., 10.0.
_GAMMA_XS = tuple(tenths / 10 for tenths in range(1, 101))


def check_gamma_bracket() -> CheckResult:
    """Stirling bracket around Gamma(x+1), confirmed at 50-digit precision."""
    tally = _Tally("gamma-bracket")
    with mpmath.workdps(50):
        two_pi = 2 * mpmath.pi
        for x in _GAMMA_XS:
            mx = mpmath.mpf(x)
            core = mpmath.sqrt(two_pi) * mx ** (mx + mpmath.mpf(0.5)) * mpmath.exp(-mx)
            lower = core * mpmath.exp(1 / (12 * mx + 1))
            upper = core * mpmath.exp(1 / (12 * mx))
            gamma = mpmath.gamma(mx + 1)
            ok = lower < gamma <= upper
            margin = float(mpmath.mpf(min(gamma - lower, upper - gamma)) / gamma)
            tally.record(
                ok, margin, lambda: f"x={x}: bracket [{lower}, {upper}] misses {gamma}"
            )
    return tally.done()


def check_gamma_ratio_bracket() -> CheckResult:
    """Power bracket x^(x-y) <= Gamma(x+1)/Gamma(y+1) <= (x+1)^(x-y).

    ``y`` runs over ``x - offset`` for the offsets 0.9, 0.5 and 0.1, staying
    inside the strip x-1 < y < x where the bracket holds.
    """
    tally = _Tally("gamma-ratio-bracket")
    with mpmath.workdps(50):
        for x in _GAMMA_XS:
            mx = mpmath.mpf(x)
            for off in (0.9, 0.5, 0.1):
                my = mx - mpmath.mpf(off)
                ratio = mpmath.gamma(mx + 1) / mpmath.gamma(my + 1)
                lower = mx ** (mx - my)
                upper = (mx + 1) ** (mx - my)
                ok = lower <= ratio <= upper
                margin = float(min(ratio - lower, upper - ratio) / ratio)
                tally.record(
                    ok,
                    margin,
                    lambda: f"x={x} y={float(my)}: {ratio} outside [{lower}, {upper}]",
                )
    return tally.done()


def check_mc_within_error(seeds: int, trials: int) -> CheckResult:
    """Monte Carlo means land within 5 standard errors almost always.

    The cases are ``(q, n)`` = (2, 2), (3, 5), (6, 4) and (4, 12).  The check
    fails only if fewer than 99% of all (case, seed) runs fall inside the
    5-sigma window.
    """
    _need_one(seeds, "Monte Carlo", "seed")
    tally = _Tally("mc-within-error")
    hits = 0
    total = 0
    worst = math.inf
    example = ""
    for q, n in ((2, 2), (3, 5), (6, 4), (4, 12)):
        exact = float(exact_max_load_expectation(q, n))
        for s in range(seeds):
            est = monte_carlo_max_load(q, n, trials, seed=1000 + s)
            slack = 5 * est.stderr - abs(est.mean - exact)
            total += 1
            if slack >= 0:
                hits += 1
            elif not example:
                example = f"q={q} n={n} seed={1000 + s}: off by {-slack:.4f}"
            worst = min(worst, slack)
    ok = hits >= 0.99 * total
    tally.cells = total
    tally.violations = 0 if ok else total - hits
    tally.min_margin = worst
    if not ok and example:
        tally.examples.append(example)
    return tally.done()


def run_all_checks(
    q_range: tuple[int, int] = (2, 24),
    n_range: tuple[int, int] = (1, 24),
    seed: int = 0,
    schur_samples: int = 500,
    mc_seeds: int = 50,
    mc_trials: int = 2000,
    expectation: ExpectationFn = exact_max_load_expectation,
) -> list[CheckResult]:
    """Run the whole suite; the (q, n) grid override applies to the grid checks.

    The closed-form floor pairs every cell with every worse corner, so it
    runs on the grid's first 15 bin counts (from at least 2) and first 16
    ball counts, starting at the grid's lower corner.  The monotonicity check
    runs on the grid's first 12 bin counts and first 13 ball counts, also
    from the lower corner.  With the exact expectation, a grid whose corner
    ``q_hi * n_hi`` lies past the exact cap is refused before any check.
    """
    if expectation is exact_max_load_expectation:
        _refuse_over_cap(q_range, n_range)
    _need_one(schur_samples, "Schur", "sample")
    _need_one(mc_seeds, "Monte Carlo", "seed")
    _need_one(mc_trials, "Monte Carlo", "trial")
    if q_range[1] < 2:
        raise UsageError("the closed-form check needs a grid reaching two bins")
    _need_two_rows(q_range, n_range)
    closed_q_lo = max(q_range[0], 2)
    closed_q = (closed_q_lo, min(q_range[1], closed_q_lo + 14))
    closed_n = (n_range[0], min(n_range[1], n_range[0] + 15))
    monotone_q = (q_range[0], min(q_range[1], q_range[0] + 11))
    monotone_n = (n_range[0], min(n_range[1], n_range[0] + 12))
    return [
        check_solver_floor(q_range, n_range, expectation),
        check_fraction_floor(q_range, n_range, expectation),
        check_closed_form_floor(closed_q, closed_n, expectation),
        check_expectation_monotone(monotone_q, monotone_n, expectation),
        check_schur_transforms(schur_samples, seed),
        check_two_bin_monotone(),
        check_joint_vs_single(),
        check_shifted_binomial(),
        check_gamma_bracket(),
        check_gamma_ratio_bracket(),
        check_mc_within_error(seeds=mc_seeds, trials=mc_trials),
    ]
