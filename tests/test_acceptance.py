"""Acceptance gate: twelve criteria, one test and one printed verdict each.

Each criterion ends with a single ``ACCEPTANCE n: PASS`` line (reaching the
print means every assertion above it held; a failure shows up as the pytest
FAILED line for that criterion instead).  Tolerances and grids are pinned in
the test bodies, not configurable.
"""

import contextlib
import dataclasses
import io
import json
import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

import pathfree.cli as cli
from pathfree import (
    Graph,
    PipelineParams,
    audit_round_budgets,
    colour_graph,
    exact_max_load_expectation,
    path_union_graph,
    proper_edge_colouring,
    regular_graph,
    star_forest_graph,
    star_refinement,
    uniform_edges,
    verify_colouring,
)
from pathfree.checks import (
    check_closed_form_floor,
    check_expectation_monotone,
    check_gamma_bracket,
    check_gamma_ratio_bracket,
    check_joint_vs_single,
    check_schur_transforms,
    check_shifted_binomial,
    check_solver_floor,
)
from pathfree.extract import block_partition
from pathfree.graph import serialize_edge_list
from pathfree.pipeline import RHO
from pathfree.rng import substream

from conftest import (
    colour_classes,
    colouring_of,
    edge_adjacency,
    has_path_on,
    random_graph,
    split_refinement,
)


def _verdict(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: the exact oracle equals literal enumeration wherever feasible


def _enumerated_expectation(q: int, n: int) -> Fraction:
    """Max-load mean over all q^n assignments, materialized with numpy."""
    total_assignments = q**n
    idx = np.arange(total_assignments, dtype=np.int64)
    loads = np.zeros((total_assignments, q), dtype=np.int8)
    for ball in range(n):
        loads[idx, (idx // q**ball) % q] += 1
    top = int(loads.max(axis=1).astype(np.int64).sum())
    return Fraction(top, total_assignments)


def test_criterion_01_exact_oracle_matches_enumeration():
    start = time.perf_counter()
    cells = [(q, n) for q in range(1, 33) for n in range(1, 21) if q**n <= 10**6]
    # wide-q spot rows keep the degenerate small-n corner honest too
    cells += [(50, 1), (50, 2), (50, 3), (100, 2), (100, 3), (250, 2)]
    assert len(cells) >= 190
    for q, n in cells:
        assert _enumerated_expectation(q, n) == exact_max_load_expectation(q, n), (q, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _verdict(1, f"{len(cells)} cells, exact equality, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2-7: the analytic inequality suite on its pinned grids


def test_criterion_02_unified_lower_bound_grid():
    result = check_solver_floor((2, 24), (1, 24), exact_max_load_expectation)
    assert result.cells == 23 * 24
    assert result.violations == 0
    _verdict(2, f"{result.cells} cells, min margin {result.min_margin:.3g}")


def test_criterion_03_usable_bound_at_worse_corners():
    result = check_closed_form_floor((2, 16), (1, 16), exact_max_load_expectation)
    assert result.violations == 0
    _verdict(3, f"{result.cells} (q,n,q0,n0) cells, zero violations")


def test_criterion_04_fraction_monotone_both_directions():
    result = check_expectation_monotone((1, 12), (1, 13), exact_max_load_expectation)
    assert result.cells == 2 * 11 * 12
    assert result.violations == 0
    _verdict(4, "q<=11, n<=12 exhaustive, both directions")


def test_criterion_05_schur_step_never_increases():
    result = check_schur_transforms(samples=500, seed=0)
    assert result.cells >= 500
    assert result.violations == 0
    _verdict(5, f"{result.cells} sampled transforms")


def test_criterion_06_tail_comparison_claims():
    start = time.perf_counter()
    joint = check_joint_vs_single()
    shifted = check_shifted_binomial()
    elapsed = time.perf_counter() - start
    assert joint.violations == 0
    assert shifted.violations == 0
    assert elapsed < 120
    _verdict(6, f"{joint.cells} + {shifted.cells} exact-rational cells, {elapsed:.1f}s")


def test_criterion_07_gamma_function_brackets():
    stirling = check_gamma_bracket()
    ratio = check_gamma_ratio_bracket()
    assert stirling.cells == 100 and stirling.violations == 0
    assert ratio.violations == 0
    _verdict(7, "x = 0.1..10.0, Stirling and ratio brackets")


# ---------------------------------------------------------------------------
# criterion 8: expected kept-edge count of a block split clears e(A,B)*W(q,D)


def _block_cases() -> list[tuple[str, Graph, np.ndarray, int]]:
    """Each case's name, graph, A-side mask (B is the rest) and part count."""
    matching = Graph.build(12, [(i, 6 + i) for i in range(6)])
    k33 = Graph.build(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    c8 = Graph.build(8, [(i, (i + 1) % 8) for i in range(8)])
    cases = [
        ("matching", matching, np.arange(12) < 6, 4),
        ("K33", k33, np.arange(6) < 3, 2),
        ("C8", c8, np.arange(8) % 2 == 0, 2),
    ]
    for seed in (101, 202):
        g = uniform_edges(12, 20, seed=seed)
        cases.append((f"G(12,20)#{seed}", g, np.arange(12) < 6, 2))
    return cases


def test_criterion_08_block_split_keeps_enough_edges():
    trials = 10**4
    details = []
    for tag, (name, g, in_a, q) in enumerate(_block_cases()):
        cross = sum(1 for u, v in g.edges if in_a[u] != in_a[v])
        delta = g.max_degree
        bound = cross * exact_max_load_expectation(q, delta) / delta
        counts = [
            len(block_partition(g, in_a, q, substream(5150, "obsH", tag, t)).kept_edges)
            for t in range(trials)
        ]
        mean = statistics.fmean(counts)
        stderr = statistics.pstdev(counts) / math.sqrt(trials)
        assert mean >= float(bound) - 4 * stderr - 1e-12, (name, mean, float(bound), stderr)
        details.append(f"{name} {mean:.3f}>={float(bound):.3f}-4se")
    _verdict(8, "; ".join(details))


# ---------------------------------------------------------------------------
# criteria 9 and 12 share a corpus of 100 seeded command line runs


@pytest.fixture(scope="module")
def colour_corpus(tmp_path_factory):
    rnd = random.Random(0xACCE97)
    cases = []
    for _ in range(40):  # mid-size uniform graphs, generous budget, short k
        n = rnd.randint(30, 200)
        m = rnd.randint(n // 2, min(3 * n, n * (n - 1) // 2))
        cases.append(dict(model="uniform-m", n=n, m=m, r=rnd.randint(24, 64),
                          k=rnd.randint(6, 24), beta0="0.5", trials=120))
    for _ in range(20):  # structured models
        model = rnd.choice(["d-regular", "star-forest", "path-union"])
        n = rnd.randint(24, 240)
        if model == "d-regular":
            d = rnd.randint(3, 8)
            if (n * d) % 2:
                n += 1
        elif model == "star-forest":
            d = rnd.randint(3, 20)
        else:
            d = rnd.randint(4, 20)
        cases.append(dict(model=model, n=n, d=d, r=rnd.randint(8, 64),
                          k=rnd.randint(6, 64), beta0=None, trials=120))
    for _ in range(30):  # long forbidden paths on the default density scale
        n = rnd.randint(40, 400)
        m = rnd.randint(n, min(4 * n, n * (n - 1) // 2))
        cases.append(dict(model="uniform-m", n=n, m=m, r=rnd.randint(8, 64),
                          k=rnd.randint(25, 64), beta0=None, trials=120))
    for _ in range(10):  # big instances up to the stated size ceiling
        n = rnd.randint(500, 2000)
        m = rnd.randint(2 * n, min(10**4, n * (n - 1) // 2))
        cases.append(dict(model="uniform-m", n=n, m=m, r=rnd.randint(24, 64),
                          k=rnd.randint(8, 24), beta0="0.5", trials=60))

    workdir = tmp_path_factory.mktemp("corpus")
    runs = []
    start = time.perf_counter()
    for idx, cfg in enumerate(cases):
        if cfg["model"] == "uniform-m":
            g = uniform_edges(cfg["n"], cfg["m"], seed=idx)
        else:
            maker = {"d-regular": regular_graph, "star-forest": star_forest_graph,
                     "path-union": path_union_graph}[cfg["model"]]
            g = maker(cfg["n"], cfg["d"], seed=idx)
        path = workdir / f"g{idx}.txt"
        path.write_text(serialize_edge_list(g))
        args = ["colour", "--input", str(path), "--r", str(cfg["r"]),
                "--k", str(cfg["k"]), "--seed", str(idx),
                "--trials", str(cfg["trials"])]
        if cfg["beta0"] is not None:
            args += ["--beta0", cfg["beta0"]]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exit_code = cli.main(args)
        runs.append({
            "config": cfg,
            "exit": exit_code,
            "record": json.loads(buffer.getvalue()),
        })
    return {"runs": runs, "seconds": time.perf_counter() - start}


def test_criterion_09_every_reported_success_verifies(colour_corpus):
    runs = colour_corpus["runs"]
    assert len(runs) == 100
    successes = 0
    for run in runs:
        record = run["record"]
        verification = record["verification"]
        assert run["exit"] in (0, 1), run["config"]
        if record["success"]:
            successes += 1
            assert run["exit"] == 0
            assert verification["verdict"] == "pass", run["config"]
            assert verification["colours_within_budget"], run["config"]
            assert record["total_colours"] <= run["config"]["r"]
        else:
            assert run["exit"] == 1
    assert successes >= 50  # the corpus must actually exercise the success path
    assert colour_corpus["seconds"] < 600
    _verdict(9, f"{successes}/100 successes, all verified, "
                f"{colour_corpus['seconds']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: star and proper colouring postconditions on random instances


def test_criterion_10_star_and_proper_postconditions():
    rnd = random.Random(0xACC10)
    # k = 5 is excluded: a one-leaf star capacity cannot always absorb every
    # heavy vertex, so the residual degree bound is not guaranteed there
    # (test_star_overflow_when_capacity_is_one pins a concrete witness).
    k_choices = (4, 6, 7, 8, 9, 10, 12)
    checked = 0
    for _ in range(1000):
        g = random_graph(rnd, n_max=30, density=rnd.uniform(0.05, 0.6))
        s = rnd.randint(1, 6)
        k = rnd.choice(k_choices)

        star = star_refinement(g, s, k)
        coloured, residual = split_refinement(g, star)
        assert coloured.colours_used <= s
        for v in range(g.vertex_count):
            assert residual.degree(v) * k * s <= 8 * g.edge_count
        assert star.degree_bound_ok
        # each class must be a union of at most floor(k/3) stars: its centre
        # set has that size and touches every edge (stars may share leaves)
        if coloured.colours_used:
            parts = star.parts  # each centre's colour, -1 elsewhere
            assert parts is not None
            assert len(set(parts[parts >= 0].tolist())) == coloured.colours_used
            for colour, edges in colour_classes(coloured).items():
                part = parts == colour
                assert 1 <= part.sum() <= k // 3
                for u, v in edges:
                    assert part[u] or part[v]

        proper = proper_edge_colouring(g)
        assert proper.colours_used <= g.max_degree + 1
        for u, v in g.edges:
            colour = proper.assignments[(u, v)]
            for x, y in g.edges:
                if (x, y) != (u, v) and {x, y} & {u, v}:
                    assert proper.assignments[(x, y)] != colour
        checked += 1
    assert checked == 1000
    _verdict(10, "1000 instances, star residual bound + star-forest shape + "
                 "proper Delta+1")


# ---------------------------------------------------------------------------
# criterion 11: verifier verdicts equal brute-force path search on <= 7 vertices


def test_criterion_11_verifier_matches_bruteforce():
    rnd = random.Random(0xACC11)
    cases = 0
    disagreements = 0
    while cases < 10**4:
        g = random_graph(rnd, n_max=7, density=rnd.uniform(0.1, 0.9))
        k = rnd.randint(3, 7)
        assignments = {e: rnd.randint(0, 1) for e in g.edges}
        colouring = colouring_of(list(assignments), list(assignments.values()))
        report = verify_colouring(g, colouring, 2, k)
        assert report.verdict in ("pass", "fail")  # exact below the cap

        expected_fail = False
        for colour in (0, 1):
            class_edges = [e for e, c in assignments.items() if c == colour]
            if class_edges and has_path_on(edge_adjacency(class_edges), k):
                expected_fail = True
        if (report.verdict == "fail") != expected_fail:
            disagreements += 1
        cases += 1
    assert cases >= 10**4
    assert disagreements == 0
    _verdict(11, f"{cases} random 2-coloured graphs, zero disagreements")


# ---------------------------------------------------------------------------
# criterion 12: exact-rational round budgets, overspend surfaces as exit 3


def test_criterion_12_round_budgets_hold_exactly(colour_corpus, tmp_path, capsys, monkeypatch):
    rounds_seen = 0
    for run in colour_corpus["runs"]:
        record = run["record"]
        r = record["params"]["r"]
        rho = Fraction(record["params"]["rho"])
        for trace in record["rounds"]:
            cap = Fraction(r) * rho ** trace["round_index"] / 6
            assert Fraction(trace["colours_spent"]) <= cap, run["config"]
            assert trace["colours_spent"] == trace["extractions"] + trace["star_colours"]
            assert Fraction(trace["budget"]) == cap
            rounds_seen += 1
        for stage in record["stages"]:
            # stage budgets are report-only (a failing run overspends its
            # endgame honestly) but the flag must match the exact numbers
            within = Fraction(stage["colours_used"]) <= Fraction(stage["budget"])
            assert stage["budget_ok"] == within, (run["config"], stage["name"])

    # dedicated round-heavy runs: the shared corpus rarely needs more than
    # one round, so audit a few denser instances with exact arithmetic too
    for n, m, r, k in [(90, 1100, 14, 10), (200, 4000, 30, 8),
                       (400, 8000, 36, 10), (300, 7000, 40, 9)]:
        dense = uniform_edges(n, m, seed=n)
        params = PipelineParams(r=r, k=k, beta0=0.5, seed=n)
        result = colour_graph(dense, params)
        assert audit_round_budgets(result) == []
        for trace in result.rounds:
            cap = Fraction(r) * RHO ** trace.round_index / 6
            assert Fraction(trace.colours_spent) <= cap
            assert trace.colours_spent == trace.extractions + trace.star_colours
            assert trace.extraction_budget == math.floor(
                Fraction(r) * RHO ** trace.round_index / 12
            )
            rounds_seen += 1
    assert rounds_seen >= 6

    # an overspent trace must surface as an internal error, exit code 3
    g = uniform_edges(90, 1100, seed=0)
    honest = colour_graph(g, PipelineParams(r=14, k=10, beta0=0.5, seed=0))
    assert honest.rounds
    forged = dataclasses.replace(
        honest, rounds=(dataclasses.replace(honest.rounds[0], colours_spent=999),)
    )
    monkeypatch.setattr(cli, "colour_graph", lambda *a, **kw: forged)
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(serialize_edge_list(g))
    code = cli.main(["colour", "--input", str(graph_path), "--r", "14", "--k", "10"])
    assert code == 3
    assert "internal error" in capsys.readouterr().err
    _verdict(12, f"{rounds_seen} round traces within exact budgets; "
                 f"forged overspend exits 3")
