"""Maximum-load statistics for balls thrown into bins.

``n`` balls land independently and uniformly in ``q`` bins; ``M`` denotes the
maximum bin load.  This module computes ``E[M]`` exactly as a rational number,
estimates it by Monte Carlo, evaluates the closed-form lower bounds used by
the colouring pipeline's expectation arguments, and provides the exact
binomial/multinomial helpers (tails, T-transforms, gamma-function brackets)
that the inequality checks are built on.

All logarithms are natural.  Exact values are ``fractions.Fraction``;
bounds whose definitions involve ``log`` are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractViolation, InternalInvariantError, SizeCapError, UsageError
from .rng import substream

__all__ = [
    "exact_max_load_expectation",
    "max_load_fraction",
    "monte_carlo_max_load",
    "MonteCarloEstimate",
    "solve_x_log_x",
    "max_load_expectation_lower_bound",
    "UnifiedBound",
    "max_load_fraction_lower_bound",
    "multinomial_max_expectation",
    "t_transform",
    "binomial_tail",
    "top_two_bins_joint_tail",
    "JointTail",
    "stirling_gamma_bounds",
    "BinsStats",
    "compute_bins_stats",
]


def _require_counts(q: int, n: int) -> None:
    if not (isinstance(q, int) and isinstance(n, int)):
        raise UsageError("bin and ball counts must be integers")
    if q < 1 or n < 1:
        raise UsageError("need at least one bin and one ball")


@lru_cache(maxsize=None)
def _binomial_row(m: int) -> tuple[int, ...]:
    return tuple(math.comb(m, i) for i in range(m + 1))


def _egf_mul(a: list[int], b: list[int], degree_cap: int) -> list[int]:
    # Coefficients are scaled by m!, so products convolve binomially:
    # (a*b)[m] = sum_i C(m,i) a[i] b[m-i].  Pass the all-ones series as ``a``
    # so that ``row[i] * a[i]`` stays a small-int product.
    top = min(degree_cap, len(a) + len(b) - 2)
    out = [0] * (top + 1)
    for m in range(top + 1):
        row = _binomial_row(m)
        acc = 0
        for i in range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1):
            acc += row[i] * a[i] * b[m - i]
        out[m] = acc
    return out


# The default cap on q * n for exact E[M]; a grid whose corner lies above it
# is not filled ahead of time.
_EXACT_CAP = 4096

# Exact E[M] by (q, n), written by one count per lone cell or grid.
_EXPECTATIONS: dict[tuple[int, int], Fraction] = {}


def _count_expectations(q_range: tuple[int, int], n_range: tuple[int, int]) -> None:
    """Cache exact ``E[M]`` for every cell of the grid ``q_range x n_range``.

    For a threshold ``t``, ``n! [x^n] (sum_{i<=t} x^i/i!)^q`` counts the throws
    of ``n`` balls into ``q`` bins with every load ``<= t``.  The series is
    raised to ``q_lo`` by repeated squaring and then multiplied by itself once
    per bin up to ``q_hi``, so a lone cell takes ``O(log q)`` products per
    threshold and a grid never recomputes the rows below ``q_lo``.  Then
    ``E[M] = n - sum_{t<n} P(M <= t)``.
    """
    (q_lo, q_hi), (n_lo, n_hi) = q_range, n_range
    below = {q: [0] * (n_hi + 1) for q in range(q_lo, q_hi + 1)}
    for t in range(1, n_hi):
        base = [1] * (t + 1)
        counts, power, e = [1], base, q_lo
        while True:
            if e & 1:
                counts = _egf_mul(power, counts, n_hi)
            e >>= 1
            if not e:
                break
            power = _egf_mul(power, power, n_hi)
        for q in range(q_lo, q_hi + 1):
            if q > q_lo:
                counts = _egf_mul(base, counts, n_hi)
            row = below[q]
            for m in range(t + 1, len(counts)):  # more than q*t balls cannot fit
                row[m] += counts[m]
    for q in range(q_lo, q_hi + 1):
        for n in range(n_lo, n_hi + 1):
            total = q**n
            _EXPECTATIONS[(q, n)] = Fraction(n * total - below[q][n], total)


def _exact_grid(
    q_range: tuple[int, int], n_range: tuple[int, int]
) -> list[tuple[int, int]]:
    """The cells of the grid ``q_range x n_range``, in q-major order.

    Rejects an empty or non-positive range.  When the grid's corner
    ``q_hi * n_hi`` is within the exact cap and some cell is not cached yet,
    the whole grid is counted in one pass first, so it fills no cell the cap
    refuses.
    """
    (q_lo, q_hi), (n_lo, n_hi) = q_range, n_range
    if min(q_lo, n_lo) < 1 or q_lo > q_hi or n_lo > n_hi:
        raise UsageError(
            f"need a non-empty grid of bins {q_range} and balls {n_range}, "
            "each from 1 up"
        )
    cells = [(q, n) for q in range(q_lo, q_hi + 1) for n in range(n_lo, n_hi + 1)]
    if q_hi * n_hi <= _EXACT_CAP and any(c not in _EXPECTATIONS for c in cells):
        _count_expectations(q_range, n_range)
    return cells


def exact_max_load_expectation(
    q: int, n: int, max_cells: int = _EXACT_CAP
) -> Fraction:
    """``E[M]`` for ``n`` uniform balls in ``q`` bins, exact.

    Computed from ``P(M <= t) = n! [x^n] (sum_{j<=t} x^j/j!)^q / q^n`` with
    integer polynomial arithmetic (coefficients scaled by factorials so
    products are binomial convolutions), then ``E[M] = n - sum_t P(M <= t)``.
    A lone cell raises the truncated series to the ``q``-th power by repeated
    squaring.  The grid callers (the grid checks and ``bins --grid``) count a
    whole grid ahead of time the same way, squaring up to its least ``q`` and
    then stepping one bin at a time, and both write one cache.  Refuses
    instances with ``q * n`` beyond ``max_cells`` whether cached or not; use
    :func:`monte_carlo_max_load` for those.
    """
    _require_counts(q, n)
    if q * n > max_cells:
        raise SizeCapError(
            f"q*n = {q * n} exceeds the exact-computation cap {max_cells}"
        )
    if (q, n) not in _EXPECTATIONS:
        _count_expectations((q, q), (n, n))
    return _EXPECTATIONS[(q, n)]


def max_load_fraction(q: int, n: int, max_cells: int = _EXACT_CAP) -> Fraction:
    """``E[M]/n``, the expected maximum load as a fraction of all balls."""
    return exact_max_load_expectation(q, n, max_cells) / n


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int


def monte_carlo_max_load(
    q: int, n: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Estimate ``E[M]`` from ``trials`` independent throws of all n balls."""
    _require_counts(q, n)
    if trials < 1:
        raise UsageError("need at least one trial")
    rng = substream(seed, "max-load-mc")
    maxima = np.empty(trials, dtype=np.int64)
    chunk = max(1, 10**6 // max(n, 1))
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        draws = rng.integers(0, q, size=(size, n))
        loads = np.zeros((size, q), dtype=np.int32)
        np.add.at(loads, (np.arange(size)[:, None], draws), 1)
        maxima[done : done + size] = loads.max(axis=1)
        done += size
    mean = float(maxima.mean())
    stderr = float(maxima.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloEstimate(mean, stderr, trials)


def solve_x_log_x(c: float) -> float:
    """The unique ``x >= 1`` with ``x log x = c``, for ``c >= 0``.

    Bracketed bisection down to machine-relative width, then a couple of
    Newton steps to polish.  ``x log x`` is increasing on [1, inf), so the
    root is unique and monotone in ``c``.
    """
    if c < 0:
        raise UsageError("x log x is non-negative on x >= 1")
    if c == 0:
        return 1.0

    def f(x: float) -> float:
        return x * math.log(x) - c

    lo, hi = 1.0, max(2.0, c + 2.0)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    x = (lo + hi) / 2
    for _ in range(4):
        slope = math.log(x) + 1.0
        if slope <= 0:
            break
        step = f(x) / slope
        if x - step >= 1.0:
            x -= step
    return x


@dataclass(frozen=True)
class UnifiedBound:
    """Solver-based lower bound ``x*n/(10*q)`` on ``E[M]``.

    ``branch`` records which regime produced ``x``: "small-ratio" when
    ``q log q <= 2n`` (so ``x <= e``) and "large-ratio" otherwise.
    """

    value: float
    x: float
    branch: str


def max_load_expectation_lower_bound(q: int, n: int) -> UnifiedBound:
    """Lower bound on ``E[M]`` valid for every ``q, n >= 1``."""
    _require_counts(q, n)
    c = q * math.log(q) / (2 * n)
    x = solve_x_log_x(c)
    branch = "small-ratio" if q * math.log(q) <= 2 * n else "large-ratio"
    return UnifiedBound(x * n / (10 * q), x, branch)


def max_load_fraction_lower_bound(q0: float, n0: float) -> float:
    """Closed-form lower bound on ``E[M]/n`` for all ``q >= q0``, ``n <= n0``.

    Evaluates ``log(q0) / (120 n0 log(q0 log(q0)/(2 n0) + 1))``; requires
    ``q0 > 1`` (the bound degenerates at one bin) and ``n0 >= 1``.
    """
    if q0 <= 1:
        raise UsageError("the closed-form bound needs q0 > 1")
    if n0 < 1:
        raise UsageError("the closed-form bound needs n0 >= 1")
    return math.log(q0) / (120 * n0 * math.log(q0 * math.log(q0) / (2 * n0) + 1))


def multinomial_max_expectation(
    probabilities: Sequence[Fraction | int | str], n: int, max_terms: int = 10**7
) -> Fraction:
    """``E[max_i X_i]`` for ``(X_1..X_s) ~ Multinomial(n, p)``, exact.

    Sums over all compositions of ``n`` across the support of ``p``; the
    term count is ``C(n+s-1, s-1)`` and instances beyond ``max_terms`` are
    refused.
    """
    if n < 1:
        raise UsageError("need at least one ball")
    p = [Fraction(x) for x in probabilities]
    if not p or any(x < 0 for x in p):
        raise ContractViolation("probabilities must be non-negative")
    if sum(p) != 1:
        raise ContractViolation("probabilities must sum to exactly 1")
    support = [x for x in p if x > 0]
    s = len(support)
    if math.comb(n + s - 1, s - 1) > max_terms:
        raise SizeCapError("composition count exceeds max_terms")

    total = Fraction(0)

    def recurse(i: int, remaining: int, coeff: int, prob: Fraction, peak: int) -> None:
        nonlocal total
        if i == s - 1:
            term_prob = prob * support[i] ** remaining
            total += coeff * term_prob * max(peak, remaining)
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


def t_transform(
    probabilities: Sequence[Fraction | int | str], i: int, j: int, lam: Fraction
) -> tuple[Fraction, ...]:
    """Mix entries ``i`` and ``j``: the classic majorization-decreasing step.

    Returns ``p`` with ``p_i' = lam*p_i + (1-lam)*p_j`` and symmetrically for
    ``j``; ``lam`` must lie in [0, 1].  The result is majorized by ``p``.
    """
    p = [Fraction(x) for x in probabilities]
    lam = Fraction(lam)
    if not (0 <= lam <= 1):
        raise UsageError("mixing weight must lie in [0, 1]")
    if i == j or not (0 <= i < len(p) and 0 <= j < len(p)):
        raise UsageError("need two distinct valid indices")
    pi, pj = p[i], p[j]
    p[i] = lam * pi + (1 - lam) * pj
    p[j] = lam * pj + (1 - lam) * pi
    return tuple(p)


def binomial_tail(n: int, p: Fraction | int | str, t: int) -> Fraction:
    """``P(Bin(n, p) >= t)`` exactly."""
    if n < 0:
        raise UsageError("need a non-negative trial count")
    pf = Fraction(p)
    if not (0 <= pf <= 1):
        raise UsageError("success probability must lie in [0, 1]")
    if t <= 0:
        return Fraction(1)
    if t > n:
        return Fraction(0)
    qf = 1 - pf
    return sum(
        (Fraction(math.comb(n, k)) * pf**k * qf ** (n - k) for k in range(t, n + 1)),
        Fraction(0),
    )


@dataclass(frozen=True)
class JointTail:
    joint: Fraction
    single: Fraction


def top_two_bins_joint_tail(q: int, n: int, t: int) -> JointTail:
    """``P(X_1 >= t and X_2 >= t)`` and ``P(X_1 >= t)`` for two fixed bins.

    ``X_1`` is the load of bin 1 under ``n`` uniform balls in ``q`` bins;
    conditioned on ``X_1 = k`` the load of bin 2 is ``Bin(n-k, 1/(q-1))``,
    which is what the joint sum uses.
    """
    _require_counts(q, n)
    if q < 2:
        raise UsageError("joint tail needs at least two bins")
    p = Fraction(1, q)
    single = binomial_tail(n, p, t)
    shifted = Fraction(1, q - 1)
    joint = Fraction(0)
    comp = 1 - p
    for k in range(max(t, 0), n + 1):
        weight = Fraction(math.comb(n, k)) * p**k * comp ** (n - k)
        joint += weight * binomial_tail(n - k, shifted, t)
    return JointTail(joint, single)


def stirling_gamma_bounds(x: float) -> tuple[float, float]:
    """Two-sided Stirling bracket for ``Gamma(x+1)``, valid for ``x >= 0``.

    ``sqrt(2 pi) x^(x+1/2) e^(-x + 1/(12x+1)) < Gamma(x+1) <=
    sqrt(2 pi) x^(x+1/2) e^(-x + 1/(12x))``.  At ``x = 0`` the lower bound
    degenerates to 0 and the upper to infinity.
    """
    if x < 0:
        raise UsageError("the bracket is stated for x >= 0")
    if x == 0:
        return 0.0, math.inf
    half_log = 0.5 * math.log(2 * math.pi) + (x + 0.5) * math.log(x) - x
    lower = math.exp(half_log + 1 / (12 * x + 1))
    upper = math.exp(half_log + 1 / (12 * x))
    return lower, upper


@dataclass(frozen=True)
class BinsStats:
    """Exact expectation plus every bound the package knows for one (q, n)."""

    q: int
    n: int
    expected_max: Fraction
    fraction: Fraction
    solver_x: float
    unified_lower_bound: float
    unified_branch: str
    usable_lower_bound: float | None
    mc: MonteCarloEstimate | None = None

    def to_record(self) -> dict:
        record = {
            "q": self.q,
            "n": self.n,
            "expected_max": str(self.expected_max),
            "expected_max_float": float(self.expected_max),
            "w": str(self.fraction),
            "x": self.solver_x,
            "lb_unified": self.unified_lower_bound,
            "lb_unified_branch": self.unified_branch,
            "lb_usable": self.usable_lower_bound,
        }
        if self.mc is not None:
            record["mc_mean"] = self.mc.mean
            record["mc_stderr"] = self.mc.stderr
            record["mc_trials"] = self.mc.trials
        return record


def compute_bins_stats(
    q: int, n: int, trials: int = 0, seed: int = 0, max_cells: int = _EXACT_CAP
) -> BinsStats:
    """Assemble :class:`BinsStats`, sanity-checking the bounds it reports.

    ``trials=0`` skips the Monte Carlo estimate.
    """
    if trials < 0:
        raise UsageError("need a non-negative trial count")
    expected = exact_max_load_expectation(q, n, max_cells)
    fraction = expected / n
    unified = max_load_expectation_lower_bound(q, n)
    usable = max_load_fraction_lower_bound(q, n) if q > 1 else None
    if float(expected) < unified.value * 0.999:
        raise InternalInvariantError(
            f"solver bound {unified.value} exceeds exact E[M] = {expected} "
            f"at q={q}, n={n}"
        )
    if fraction < Fraction(1, q) or fraction < Fraction(1, n):
        raise InternalInvariantError(
            f"fraction {fraction} fell below the trivial floor at q={q}, n={n}"
        )
    mc = monte_carlo_max_load(q, n, trials, seed) if trials > 0 else None
    return BinsStats(
        q=q,
        n=n,
        expected_max=expected,
        fraction=fraction,
        solver_x=unified.x,
        unified_lower_bound=unified.value,
        unified_branch=unified.branch,
        usable_lower_bound=usable,
        mc=mc,
    )
