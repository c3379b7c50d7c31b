"""Inequality audit suite: clean passes, and a corrupted-oracle control."""

from fractions import Fraction

import pytest

import pathfree.bins as bins
from pathfree import SizeCapError, UsageError, checks, exact_max_load_expectation
from pathfree.checks import (
    check_closed_form_floor,
    check_expectation_monotone,
    check_fraction_floor,
    check_gamma_bracket,
    check_gamma_ratio_bracket,
    check_joint_vs_single,
    check_mc_within_error,
    check_schur_transforms,
    check_shifted_binomial,
    check_solver_floor,
    check_two_bin_monotone,
    run_all_checks,
)

from conftest import closed_form_floor_reference


def test_solver_floor_small_grid():
    result = check_solver_floor((2, 6), (1, 8), exact_max_load_expectation)
    assert result.ok
    assert result.cells == 5 * 8
    assert result.min_margin > 0
    assert result.examples == ()


def test_fraction_floor_small_grid():
    result = check_fraction_floor((2, 6), (1, 8), exact_max_load_expectation)
    assert result.ok and result.min_margin >= 0


def test_closed_form_floor_small_grid():
    result = check_closed_form_floor((2, 6), (1, 6), exact_max_load_expectation)
    assert result.ok
    assert result.cells > 5 * 6  # every worse half-integer corner is a cell


def test_expectation_monotone_small():
    result = check_expectation_monotone((1, 6), (1, 7), exact_max_load_expectation)
    assert result.ok
    assert result.cells == 2 * 5 * 6


def test_schur_transforms_sampled():
    result = check_schur_transforms(samples=60, seed=1)
    assert result.ok and result.cells == 60
    for samples in (0, -3):  # no sample would pass vacuously
        with pytest.raises(UsageError):
            check_schur_transforms(samples=samples, seed=0)


def test_two_bin_monotone():
    result = check_two_bin_monotone()
    assert result.ok and result.cells == 10 * (11 * 10 // 2)  # n <= 10, 11 values of p


def test_joint_vs_single_factor():
    result = check_joint_vs_single()
    assert result.ok and result.cells == 525 and result.min_margin >= 0


def test_shifted_binomial_factor():
    result = check_shifted_binomial()
    # five values of p, then every 1 <= t <= n <= 16
    assert result.ok and result.cells == 5 * (16 * 17 // 2)


def test_gamma_brackets():
    stirling = check_gamma_bracket()
    assert stirling.ok and stirling.cells == 100  # x = 0.1, 0.2, ..., 10.0
    ratio = check_gamma_ratio_bracket()
    assert ratio.ok and ratio.cells == 300  # three offsets per x


def test_mc_within_error_small():
    result = check_mc_within_error(seeds=5, trials=800)
    assert result.ok and result.cells == 4 * 5  # four (q, n) cases
    for seeds in (0, -1):  # no seed would pass vacuously
        with pytest.raises(UsageError):
            check_mc_within_error(seeds=seeds, trials=2000)


def test_corrupted_oracle_is_caught():
    # negative control: an expectation that under-reports by 10% must trip
    # the exact fraction floor at n = 1 (true value is exactly 1)
    lying = lambda q, n: exact_max_load_expectation(q, n) * Fraction(9, 10)
    result = check_fraction_floor((2, 4), (1, 4), expectation=lying)
    assert not result.ok
    assert result.violations >= 3
    assert result.examples
    assert "FAIL" in result.summary_line()


def test_corrupted_oracle_trips_closed_form_floor():
    # negative control with the failure report pinned: an expectation that
    # under-reports by 100x falls under the closed form at small q and n
    lying = lambda q, n: exact_max_load_expectation(q, n) * Fraction(1, 100)
    result = check_closed_form_floor((2, 6), (1, 6), expectation=lying)
    assert (result.cells, result.violations) == (900, 85)
    assert result.min_margin == -0.0022434166723525216
    assert result.examples == (
        "q=2 n=1 q0=2.0 n0=1.0: 0.01 < 0.010969135569087853",
        "q=2 n=1 q0=2.0 n0=1.5: 0.01 < 0.010137132708362744",
        "q=2 n=1 q0=2.5 n0=1.0: 0.01 < 0.010003493312798876",
        "q=2 n=2 q0=2.0 n0=2.0: 0.0075 < 0.009705879051559629",
        "q=2 n=2 q0=2.0 n0=2.5: 0.0075 < 0.009441507707819312",
    )


@pytest.mark.parametrize("grid", [((2, 16), (1, 16)), ((2, 6), (1, 6)), ((5, 19), (4, 19))])
@pytest.mark.parametrize(
    "expectation",
    [
        exact_max_load_expectation,
        lambda q, n: exact_max_load_expectation(q, n) / 100,
        lambda q, n: exact_max_load_expectation(q, n) / (100 if (q + n) % 3 else 1),
    ],
    ids=["exact", "lying", "mixed"],
)
def test_closed_form_floor_matches_per_corner_loop(grid, expectation):
    result = check_closed_form_floor(*grid, expectation=expectation)
    reference = closed_form_floor_reference(*grid, expectation)
    assert (result.cells, result.violations, result.min_margin, result.examples) == (
        reference
    )


def counting_expectation(calls: list):
    def counting(q: int, n: int) -> Fraction:
        calls.append((q, n))
        return exact_max_load_expectation(q, n)

    return counting


@pytest.mark.parametrize(
    "bad",
    [
        {"schur_samples": -3},
        {"mc_seeds": 0},
        {"mc_trials": 0},
        {"n_range": (5, 1)},
        {"q_range": (3, 3)},  # one bin count leaves no monotonicity step
        {"n_range": (2, 2)},
    ],
)
def test_run_all_checks_rejects_bad_counts_before_any_check(bad):
    calls = []
    kwargs = {"q_range": (2, 3), "n_range": (1, 3), **bad}
    with pytest.raises(UsageError):
        run_all_checks(expectation=counting_expectation(calls), **kwargs)
    assert calls == []


def test_run_all_checks_refuses_a_grid_past_the_exact_cap_up_front(monkeypatch):
    # the corner cell q_hi * n_hi is always counted exactly, so such a grid
    # can only end in the size-cap error; it must end there before counting
    # the cells below the corner one at a time
    def counted(*args):
        raise AssertionError("a grid past the exact cap was counted")

    class Asked(Exception):
        pass

    def oracle(q, n):
        raise Asked

    monkeypatch.setattr(bins, "_EXPECTATIONS", {})
    monkeypatch.setattr(bins, "_egf_mul", counted)
    with pytest.raises(SizeCapError, match=r"q\*n = 4480 exceeds"):
        run_all_checks(q_range=(2, 64), n_range=(1, 70))
    with pytest.raises(Asked):  # a custom oracle is not held to the exact cap
        run_all_checks(q_range=(2, 64), n_range=(1, 70), expectation=oracle)


@pytest.mark.parametrize(
    "check, args",
    [
        (check_solver_floor, ((3, 2), (1, 4))),
        (check_solver_floor, ((0, 3), (1, 4))),
        (check_fraction_floor, ((2, 3), (0, 4))),
        (check_closed_form_floor, ((2, 5), (4, 1))),
        (check_expectation_monotone, ((1, 1), (1, 4))),
        (check_expectation_monotone, ((0, 3), (1, 4))),
        (check_expectation_monotone, ((1, 4), (2, 2))),
    ],
)
def test_grid_checks_refuse_empty_grids(check, args):
    calls = []
    with pytest.raises(UsageError):
        check(*args, expectation=counting_expectation(calls))
    assert calls == []


def test_run_all_checks_closed_form_window_lies_in_the_grid(monkeypatch):
    # A grid starting above 16 once got the closed form checked on 2..16 x
    # 1..16 instead, none of it in the grid.
    cells = []
    real = checks.check_closed_form_floor

    def recording(q_range, n_range, expectation):
        return real(q_range, n_range, counting_expectation(cells))

    monkeypatch.setattr(checks, "check_closed_form_floor", recording)
    results = run_all_checks(
        (20, 24), (20, 24), schur_samples=10, mc_seeds=2, mc_trials=200
    )
    assert cells and all(20 <= q <= 24 and 20 <= n <= 24 for q, n in cells)
    closed = next(r for r in results if r.name == "closed-form-floor")
    assert closed.ok


@pytest.mark.parametrize(
    "q_range, n_range, cells",
    [((20, 24), (20, 24), 2 * 4 * 4), ((2, 24), (1, 24), 264), ((2, 32), (1, 32), 264)],
)
def test_run_all_checks_monotone_window_lies_in_the_grid(
    monkeypatch, q_range, n_range, cells
):
    # The monotonicity check once ran on its default grid, q 1..12 and n
    # 1..13, whatever grid was requested.
    seen = []
    real = checks.check_expectation_monotone

    def recording(q_range, n_range, expectation):
        return real(q_range, n_range, counting_expectation(seen))

    monkeypatch.setattr(checks, "check_expectation_monotone", recording)
    results = run_all_checks(
        q_range, n_range, schur_samples=10, mc_seeds=2, mc_trials=200
    )
    (q_lo, q_hi), (n_lo, n_hi) = q_range, n_range
    assert seen and all(q_lo <= q <= q_hi and n_lo <= n <= n_hi for q, n in seen)
    monotone = next(r for r in results if r.name == "fraction-monotone")
    assert monotone.ok and monotone.cells == cells


def test_run_all_checks_order_and_records():
    results = run_all_checks(
        q_range=(2, 5),
        n_range=(1, 6),
        schur_samples=40,
        mc_seeds=3,
        mc_trials=500,
    )
    names = [r.name for r in results]
    assert names == [
        "solver-floor",
        "fraction-floor",
        "closed-form-floor",
        "fraction-monotone",
        "schur-transform",
        "two-bin-monotone",
        "joint-tail-factor",
        "shifted-binomial",
        "gamma-bracket",
        "gamma-ratio-bracket",
        "mc-within-error",
    ]
    assert all(r.ok for r in results)
    record = results[0].to_record()
    assert set(record) == {
        "name",
        "cells",
        "violations",
        "min_margin",
        "seconds",
        "examples",
    }
    assert "ok" in results[0].summary_line()
