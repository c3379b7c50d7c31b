"""Exact balls-in-bins machinery against hand computations and enumeration.

The reference oracle in this file is a plain itertools enumeration over all
q^n throws, written independently of the package's own (vectorised)
enumeration path; all comparisons between rationals are exact.
"""

import json
import math
from fractions import Fraction
from itertools import product

import pytest

import pathfree.bins as bins
from pathfree import (
    ContractViolation,
    SizeCapError,
    UsageError,
    binomial_tail,
    compute_bins_stats,
    exact_max_load_expectation,
    max_load_expectation_lower_bound,
    max_load_fraction,
    max_load_fraction_lower_bound,
    monte_carlo_max_load,
    multinomial_max_expectation,
    stirling_gamma_bounds,
    t_transform,
    top_two_bins_joint_tail,
)
from pathfree.checks import check_solver_floor

from conftest import enumerated_max_load_expectation


def brute_max_load_expectation(q: int, n: int) -> Fraction:
    total = 0
    for throw in product(range(q), repeat=n):
        loads = [0] * q
        for b in throw:
            loads[b] += 1
        total += max(loads)
    return Fraction(total, q**n)


def brute_two_bin_tail(q: int, n: int, t: int) -> tuple[Fraction, Fraction]:
    single = joint = 0
    for throw in product(range(q), repeat=n):
        first = sum(1 for b in throw if b == 0)
        second = sum(1 for b in throw if b == 1)
        single += first >= t
        joint += first >= t and second >= t
    return Fraction(single, q**n), Fraction(joint, q**n)


# hand-checked expectations: (q bins, n balls) -> E max load
HAND_VALUES = {
    (2, 2): Fraction(3, 2),
    (2, 3): Fraction(9, 4),
    (4, 2): Fraction(5, 4),
    (3, 4): Fraction(64, 27),
    (1, 7): Fraction(7),
    (9, 1): Fraction(1),
}


def test_exact_expectation_hand_values():
    for (q, n), expected in HAND_VALUES.items():
        assert exact_max_load_expectation(q, n) == expected


def test_exact_matches_brute_enumeration():
    for q in range(1, 5):
        for n in range(1, 6):
            assert exact_max_load_expectation(q, n) == brute_max_load_expectation(q, n)


def test_enumerated_path_agrees_with_dp():
    for q in range(1, 6):
        for n in range(1, 6):
            assert enumerated_max_load_expectation(q, n) == exact_max_load_expectation(
                q, n
            )


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty exact-expectation cache for one test; the shared one returns after."""
    cache = {}
    monkeypatch.setattr(bins, "_EXPECTATIONS", cache)
    return cache


@pytest.mark.parametrize(
    "q_range, n_range",
    [((1, 12), (1, 12)), ((5, 9), (3, 8)), ((7, 7), (12, 12))],
    ids=["1..12x1..12", "5..9x3..8", "7..7x12..12"],
)
def test_grid_sweep_matches_squaring_path(fresh_cache, q_range, n_range):
    cells = bins._exact_grid(q_range, n_range)
    (q_lo, q_hi), (n_lo, n_hi) = q_range, n_range
    assert cells == [
        (q, n) for q in range(q_lo, q_hi + 1) for n in range(n_lo, n_hi + 1)
    ]
    swept = dict(fresh_cache)
    assert set(swept) == set(cells)
    for q, n in cells:  # q = 1 and n = 1 included on the first grid
        if q**n <= 10**6:
            assert swept[(q, n)] == enumerated_max_load_expectation(q, n), (q, n)
        else:
            fresh_cache.clear()  # the lone cell counts on its own
            assert exact_max_load_expectation(q, n) == swept[(q, n)], (q, n)
            assert set(fresh_cache) == {(q, n)}


def test_grid_sweep_never_lifts_the_cap(fresh_cache):
    cap = bins._EXACT_CAP
    cells = bins._exact_grid((1, cap // 64 + 1), (1, 64))  # corner over the cap
    assert len(cells) == (cap // 64 + 1) * 64
    assert fresh_cache == {}  # not counted at all
    bins._exact_grid((1, 8), (1, 8))
    assert len(fresh_cache) == 64
    with pytest.raises(SizeCapError):
        exact_max_load_expectation(8, 8, max_cells=63)  # cached, still refused
    assert exact_max_load_expectation(8, 8, max_cells=64) == fresh_cache[(8, 8)]


def counted_products(monkeypatch) -> list:
    """Record one entry per series product ``bins`` makes from here on."""
    calls = []
    product = bins._egf_mul

    def counting(a, b, degree_cap):
        calls.append(degree_cap)
        return product(a, b, degree_cap)

    monkeypatch.setattr(bins, "_egf_mul", counting)
    return calls


def test_far_cells_never_pay_for_the_rectangle_below(fresh_cache, monkeypatch):
    calls = counted_products(monkeypatch)
    value = exact_max_load_expectation(64, 64)
    # 63 thresholds, each at most two products per bit of 64
    assert len(calls) <= 63 * 2 * 7
    assert set(fresh_cache) == {(64, 64)}

    calls.clear()
    fresh_cache.clear()
    cells = bins._exact_grid((60, 64), (60, 64))
    assert set(fresh_cache) == set(cells) and len(cells) == 25
    assert fresh_cache[(64, 64)] == value
    # one step per bin from j = 1 would take 63 * 64 products
    assert len(calls) <= 63 * 64 // 4


def test_grid_check_calls_its_expectation_once_per_cell(fresh_cache):
    calls = []

    def counting(q: int, n: int) -> Fraction:
        calls.append((q, n))
        return exact_max_load_expectation(q, n)

    result = check_solver_floor((2, 6), (1, 6), expectation=counting)
    assert result.ok and result.cells == 30
    assert calls == [(q, n) for q in range(2, 7) for n in range(1, 7)]
    assert len(fresh_cache) == 5 * 6  # the checked grid only, filled before the loop


def test_fraction_is_expectation_over_n():
    assert max_load_fraction(2, 3) == Fraction(3, 4)
    assert max_load_fraction(4, 2) == Fraction(5, 8)
    assert max_load_fraction(7, 1) == 1


def test_expectation_bounds_and_monotonicity_spot():
    for q in range(1, 8):
        for n in range(1, 8):
            e = exact_max_load_expectation(q, n)
            assert Fraction(n, q) <= e <= n
            assert exact_max_load_expectation(q + 1, n) <= e
            assert exact_max_load_expectation(q, n + 1) >= e  # E grows, E/n shrinks


def test_input_validation():
    with pytest.raises(UsageError):
        exact_max_load_expectation(0, 3)
    with pytest.raises(UsageError):
        exact_max_load_expectation(3, 0)
    with pytest.raises(SizeCapError):
        exact_max_load_expectation(100, 100, max_cells=500)
    with pytest.raises(SizeCapError):
        enumerated_max_load_expectation(10, 10, limit=10**6)
    with pytest.raises(UsageError):
        compute_bins_stats(3, 4, trials=-5)  # would skip Monte Carlo silently
    assert compute_bins_stats(3, 4, trials=0).mc is None


def test_multinomial_reduces_to_uniform_case():
    for q in range(1, 5):
        for n in range(1, 5):
            p = tuple(Fraction(1, q) for _ in range(q))
            assert multinomial_max_expectation(p, n) == exact_max_load_expectation(q, n)


def test_multinomial_hand_values():
    # two bins, p = (3/4, 1/4), 2 balls: max is 2 unless the balls split
    assert multinomial_max_expectation((Fraction(3, 4), Fraction(1, 4)), 2) == Fraction(
        13, 8
    )
    assert multinomial_max_expectation((1, 0, 0), 5) == 5


def test_multinomial_validation_and_cap():
    with pytest.raises(ContractViolation):
        multinomial_max_expectation((Fraction(1, 2), Fraction(1, 3)), 2)
    with pytest.raises(ContractViolation):
        multinomial_max_expectation((Fraction(3, 2), Fraction(-1, 2)), 2)
    with pytest.raises(UsageError):
        multinomial_max_expectation((Fraction(1, 2), Fraction(1, 2)), 0)
    with pytest.raises(SizeCapError):
        multinomial_max_expectation(tuple(Fraction(1, 8) for _ in range(8)), 30,
                                    max_terms=10)


def test_t_transform_hand_value_and_mass():
    p = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    moved = t_transform(p, 0, 1, Fraction(7, 10))
    assert moved == (Fraction(17, 40), Fraction(13, 40), Fraction(1, 4))
    assert sum(moved) == 1
    # lam = 1 is the identity, lam = 0 the swap
    assert t_transform(p, 0, 1, Fraction(1)) == p
    assert t_transform(p, 0, 1, Fraction(0)) == (p[1], p[0], p[2])
    with pytest.raises(UsageError):
        t_transform(p, 0, 0, Fraction(1, 2))
    with pytest.raises(UsageError):
        t_transform(p, 0, 1, Fraction(3, 2))


def test_binomial_tail_hand_values():
    assert binomial_tail(4, "1/4", 1) == Fraction(175, 256)
    assert binomial_tail(2, "1/2", 2) == Fraction(1, 4)
    assert binomial_tail(5, "1/3", 0) == 1
    assert binomial_tail(3, 0, 1) == 0
    assert binomial_tail(3, 1, 3) == 1


def test_binomial_tail_complements_pmf():
    n, p = 9, Fraction(2, 7)
    pmf = [
        Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k) for k in range(n + 1)
    ]
    for t in range(n + 1):
        assert binomial_tail(n, p, t) == sum(pmf[t:])
    with pytest.raises(UsageError):
        binomial_tail(3, "7/6", 1)
    with pytest.raises(UsageError):
        binomial_tail(-1, "1/2", 0)


def test_joint_tail_matches_enumeration():
    for q, n, t in [(4, 4, 1), (3, 5, 2), (2, 2, 2), (2, 6, 3), (5, 3, 1)]:
        single, joint = brute_two_bin_tail(q, n, t)
        tails = top_two_bins_joint_tail(q, n, t)
        assert tails.single == single
        assert tails.joint == joint


def test_joint_tail_fixed_points():
    tails = top_two_bins_joint_tail(4, 4, 1)
    assert tails.single == Fraction(175, 256)
    assert tails.joint == Fraction(110, 256)
    # both bins cannot hold all n balls at once
    assert top_two_bins_joint_tail(2, 2, 2).joint == 0
    assert top_two_bins_joint_tail(2, 1, 1).joint == 0
    with pytest.raises(UsageError):
        top_two_bins_joint_tail(1, 3, 1)


def test_solver_lower_bound_branches():
    small = max_load_expectation_lower_bound(6, 8)
    assert small.branch == "small-ratio"
    assert small.value == pytest.approx(small.x * 8 / 60)
    large = max_load_expectation_lower_bound(24, 2)
    assert large.branch == "large-ratio"
    # x solves x log x = q ln q / (2n)
    assert large.x * math.log(large.x) == pytest.approx(24 * math.log(24) / 4)
    assert exact_max_load_expectation(24, 2) >= Fraction(large.value)


def test_usable_bound_formula_value():
    # log(q0) / (120 n0 log(q0 log(q0) / (2 n0) + 1)) at q0 = e, n0 = 1
    got = max_load_fraction_lower_bound(math.e, 1.0)
    assert got == pytest.approx(1 / (120 * math.log(math.e / 2 + 1)), rel=1e-12)
    assert got == pytest.approx(0.009709142819731845, rel=1e-12)
    with pytest.raises(UsageError):
        max_load_fraction_lower_bound(1.0, 1.0)
    with pytest.raises(UsageError):
        max_load_fraction_lower_bound(4.0, 0.5)


def test_stirling_bounds_bracket_gamma():
    for x in [0.3, 1.0, 2.5, 5.0, 9.0]:
        lower, upper = stirling_gamma_bounds(x)
        assert lower < math.gamma(x + 1) <= upper
    lower, upper = stirling_gamma_bounds(0.0)
    assert upper == math.inf
    with pytest.raises(UsageError):
        stirling_gamma_bounds(-1.0)


def test_monte_carlo_is_seeded_and_close():
    a = monte_carlo_max_load(3, 4, trials=4000, seed=9)
    b = monte_carlo_max_load(3, 4, trials=4000, seed=9)
    assert (a.mean, a.stderr, a.trials) == (b.mean, b.stderr, b.trials)
    exact = float(exact_max_load_expectation(3, 4))
    assert abs(a.mean - exact) <= 5 * a.stderr
    assert monte_carlo_max_load(3, 4, trials=4000, seed=10).mean != a.mean
    with pytest.raises(UsageError):
        monte_carlo_max_load(3, 4, trials=0, seed=0)


def test_stats_record_carries_the_pinned_keys():
    record = compute_bins_stats(3, 4).to_record()
    for key in ("q", "n", "expected_max", "w", "x", "lb_unified", "lb_usable"):
        assert key in record
    assert record["expected_max"] == "64/27"
    assert record["w"] == "16/27"
    assert isinstance(record["expected_max"], str)
    json.dumps(record)  # exact rationals travel as strings


def test_stats_single_bin_has_no_usable_bound():
    record = compute_bins_stats(1, 5).to_record()
    assert record["lb_usable"] is None
    assert record["expected_max"] == "5"
    assert json.loads(json.dumps(record))["lb_usable"] is None


def test_stats_optional_monte_carlo_fields():
    bare = compute_bins_stats(2, 3).to_record()
    assert "mc_mean" not in bare
    rich = compute_bins_stats(2, 3, trials=500, seed=4).to_record()
    assert rich["mc_trials"] == 500
    assert abs(rich["mc_mean"] - 9 / 4) <= 5 * rich["mc_stderr"]
