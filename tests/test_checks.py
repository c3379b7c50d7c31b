"""Inequality audit suite: clean passes, and a corrupted-oracle control."""

from fractions import Fraction

import pytest

from pathfree import UsageError, exact_max_load_expectation
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


def test_solver_floor_small_grid():
    result = check_solver_floor((2, 6), (1, 8))
    assert result.ok
    assert result.cells == 5 * 8
    assert result.min_margin > 0
    assert result.examples == ()


def test_fraction_floor_small_grid():
    result = check_fraction_floor((2, 6), (1, 8))
    assert result.ok and result.min_margin >= 0


def test_closed_form_floor_small_grid():
    result = check_closed_form_floor((2, 6), (1, 6))
    assert result.ok
    assert result.cells > 5 * 6  # every worse half-integer corner is a cell


def test_expectation_monotone_small():
    result = check_expectation_monotone(q_max=5, n_max=6)
    assert result.ok
    assert result.cells == 2 * 5 * 6


def test_schur_transforms_sampled():
    result = check_schur_transforms(samples=60, seed=1)
    assert result.ok and result.cells == 60
    for samples in (0, -3):  # no sample would pass vacuously
        with pytest.raises(UsageError):
            check_schur_transforms(samples=samples)


def test_two_bin_monotone():
    assert check_two_bin_monotone(n_max=5, grid_steps=8).ok


def test_joint_vs_single_factor():
    result = check_joint_vs_single((4, 5), n_max=8)
    assert result.ok and result.min_margin >= 0


def test_shifted_binomial_factor():
    assert check_shifted_binomial(n_max=8, grid_steps=20).ok


def test_gamma_brackets():
    assert check_gamma_bracket([0.5, 1.0, 2.0, 5.0, 9.5]).ok
    ratio = check_gamma_ratio_bracket([1.0, 3.0])
    assert ratio.ok and ratio.cells == 6


def test_mc_within_error_small():
    result = check_mc_within_error(cases=((2, 2), (3, 3)), seeds=5, trials=800)
    assert result.ok and result.cells == 10
    for seeds in (0, -1):  # no seed would pass vacuously
        with pytest.raises(UsageError):
            check_mc_within_error(cases=((2, 2),), seeds=seeds)


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


def counting_expectation(calls: list):
    def counting(q: int, n: int) -> Fraction:
        calls.append((q, n))
        return exact_max_load_expectation(q, n)

    return counting


@pytest.mark.parametrize(
    "bad",
    [{"schur_samples": -3}, {"mc_seeds": 0}, {"mc_trials": 0}, {"n_range": (5, 1)}],
)
def test_run_all_checks_rejects_bad_counts_before_any_check(bad):
    calls = []
    kwargs = {"q_range": (2, 3), "n_range": (1, 3), **bad}
    with pytest.raises(UsageError):
        run_all_checks(expectation=counting_expectation(calls), **kwargs)
    assert calls == []


@pytest.mark.parametrize(
    "check, args",
    [
        (check_solver_floor, ((3, 2), (1, 4))),
        (check_solver_floor, ((0, 3), (1, 4))),
        (check_fraction_floor, ((2, 3), (0, 4))),
        (check_closed_form_floor, ((2, 5), (4, 1))),
        (check_expectation_monotone, (0, 0)),
        (check_expectation_monotone, (0, 3)),
        (check_expectation_monotone, (3, 0)),
    ],
)
def test_grid_checks_refuse_empty_grids(check, args):
    calls = []
    with pytest.raises(UsageError):
        check(*args, expectation=counting_expectation(calls))
    assert calls == []


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
