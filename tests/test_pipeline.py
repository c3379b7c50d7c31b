"""The staged pipeline: parameters, rounds, termination, colour accounting."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from pathfree import (
    EdgeColouring,
    Graph,
    InternalInvariantError,
    PipelineParams,
    UsageError,
    audit_round_budgets,
    colour_graph,
    default_density_scale,
    parse_colouring,
    run_round,
    serialize_colouring,
    uniform_edges,
    verify_colouring,
)
from pathfree import pipeline
from pathfree.extract import BAND_RATIO, SELECT_RATIO
from pathfree.pipeline import ETA, RHO, ZETA

from conftest import complete_graph, path_graph


def triangles(count: int) -> Graph:
    edges = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b), (b, c), (a, c)]
    return Graph.build(3 * count, edges)


def hub_and_cycle(leaves: int) -> Graph:
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(i, i + 1) for i in range(1, leaves)] + [(leaves, 1)]
    return Graph.build(leaves + 1, edges)


def test_default_density_scale_value():
    b = default_density_scale()
    assert b == pytest.approx(8.06590566603358e-153, rel=1e-10)
    big = 2 * math.e * 360 * 60
    lhs = (1 / b) ** (1 / 30)
    assert lhs >= big
    assert lhs >= math.log(5.0) - 2 * math.log(b)  # log form of log(5/b^2)
    assert (1 / (2 * b)) ** (1 / 30) < big  # any larger scale breaks the bound


def test_params_validation():
    PipelineParams(r=8, k=6)  # defaults satisfy every constraint
    with pytest.raises(UsageError):
        PipelineParams(r=0, k=6)
    with pytest.raises(UsageError):
        PipelineParams(r=8, k=2)
    for beta0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            PipelineParams(r=8, k=6, beta0=beta0)
    # the degree goal (first), the density cap (second) or r itself (third)
    # beyond float range
    for r, k, beta0 in ((3, 3, 1.7e308), (100, 10**8, 1e300), (10**400, 8, 0.5)):
        with pytest.raises(UsageError, match="finite"):
            PipelineParams(r=r, k=k, beta0=beta0)
    with pytest.raises(UsageError):
        PipelineParams(r=8, k=6, trials_per_extraction=0)


def test_strict_mode_wants_asymptotic_k():
    with pytest.raises(UsageError):
        PipelineParams(r=8, k=6, strict=True)
    PipelineParams(r=2, k=70, strict=True)  # 100 log 2 = 69.3


def test_density_scale_defaults_to_beta0_over_576():
    params = PipelineParams(r=8, k=6, beta0=0.5)
    assert params.density_scale == Fraction(0.5) / 576
    record = params.to_record()
    assert record["r"] == 8 and not record["beta0_is_default"]


def test_fixed_constants_satisfy_the_round_analysis():
    assert 0 < ETA < 1 and 0 < ZETA < 1 and 0 < RHO < 1
    assert RHO < Fraction(1, 2)
    assert float(ZETA) ** 0.9 < float(RHO)
    assert ETA < RHO * ZETA
    # a band or the residual is always dense enough to select
    assert 0 < BAND_RATIO < 1
    assert Fraction(1, 3) + SELECT_RATIO / (1 - SELECT_RATIO) < 1
    # the constants are not settable, but the record still lists them
    assert [f.name for f in dataclasses.fields(PipelineParams)] == [
        "r", "k", "beta0", "trials_per_extraction", "seed", "strict"
    ]
    record = PipelineParams(r=8, k=6, beta0=0.5).to_record()
    assert list(record) == [
        "r", "k", "eta", "zeta", "rho", "beta0", "beta0_is_default", "c0",
        "trials_per_extraction", "seed", "strict",
    ]
    assert (record["eta"], record["zeta"], record["rho"], record["c0"]) == (
        "1/10", "1/3", "2/5", "1/1152"
    )


def test_single_edge_needs_one_colour():
    g = Graph.build(2, [(0, 1)])
    for k in (3, 4):
        result = colour_graph(g, PipelineParams(r=2, k=k))
        assert result.success
        assert result.total_colours == 1
        assert verify_colouring(g, result.colouring, 2, k).verdict == "pass"


def test_empty_graph_uses_no_colours():
    g = Graph.build(7, [])
    result = colour_graph(g, PipelineParams(r=7, k=5, beta0=0.5))
    assert result.success and result.total_colours == 0
    assert result.endgame_case == "empty"


def test_k3_routes_directly_to_proper_colouring():
    g = triangles(100)
    result = colour_graph(g, PipelineParams(r=12, k=3))
    assert result.termination_reason == "k3-direct"
    assert [s.name for s in result.stages] == ["proper-only"]
    assert result.total_colours == 3  # an odd cycle needs Delta + 1
    assert result.success
    report = verify_colouring(g, result.colouring, 12, 3)
    assert report.verdict == "pass"


def test_run_round_respects_scale_budget():
    g = uniform_edges(200, 400, seed=5)
    params = PipelineParams(r=16, k=12, beta0=0.5, seed=5)
    outcome = run_round(g, 0, params, colour_base=0)
    trace = outcome.trace
    assert not trace.aborted
    assert trace.extraction_budget == 1  # floor(16 / 12)
    assert trace.budget == Fraction(16, 6)
    assert trace.colours_spent <= 2
    assert trace.colours_spent == trace.extractions + trace.star_colours
    assert trace.edges_after < trace.edges_before
    assert len(trace.extraction_ratios) == trace.extractions
    assert outcome.residual.edge_count == trace.edges_after
    # the extraction classes, then the star colouring, each coloured from 0
    used = [part.colours_used for part in outcome.parts]
    assert used == [1] * trace.extractions + [trace.star_colours]
    for part, colours in zip(outcome.parts, used):
        assert set(part.colours.tolist()) == set(range(colours))
    assert sum(used) == trace.colours_spent
    with pytest.raises(UsageError):
        run_round(g, 0, PipelineParams(r=16, k=3), colour_base=0)


def test_run_round_is_deterministic():
    g = uniform_edges(150, 500, seed=7)
    params = PipelineParams(r=30, k=9, beta0=0.5, seed=11)
    first = run_round(g, 0, params, colour_base=4)
    second = run_round(g, 0, params, colour_base=4)
    assert first.parts and first.parts == second.parts
    assert first.trace == second.trace


@pytest.mark.parametrize(
    "n,m,r,k,trials,seed,success,rounds",
    [
        (120, 360, 48, 8, 200, 1, True, 0),
        (120, 360, 48, 3, 200, 1, True, 0),  # k = 3: one proper-only stage
        # two rounds of extractions; desk scale is far from the budget's regime
        (300, 6000, 30, 12, 10, 100, False, 2),
    ],
    ids=["desk", "k3", "extractions"],
)
def test_desk_scale_run_succeeds_and_audits_clean(
    n, m, r, k, trials, seed, success, rounds
):
    g = uniform_edges(n, m, seed=seed)
    params = PipelineParams(
        r=r, k=k, beta0=0.5, seed=seed, trials_per_extraction=trials
    )
    result = colour_graph(g, params)
    assert result.success is success
    assert (result.total_colours <= r) is success
    assert len(result.rounds) == rounds
    assert all(t.extractions > 0 and not t.aborted for t in result.rounds)
    assert audit_round_budgets(result) == []
    report = verify_colouring(g, result.colouring, r, k)
    assert report.verdict == "pass"
    assert report.covers_all_edges
    # in colour order, each stage and round starts where the last one ended,
    # and its range [colour_base, colour_base + used) is exactly the colours
    # carried by the edges it coloured
    colours = result.colouring.colours
    spenders = [(s, s.colours_used) for s in result.stages if s.name != "endgame"]
    spenders += [(t, t.colours_spent) for t in result.rounds]
    spenders += [(s, s.colours_used) for s in result.stages if s.name == "endgame"]
    end = 0
    for spender, used in spenders:
        base = spender.colour_base
        assert base == end
        end += used
        inside = (base <= colours) & (colours < end)
        assert np.unique(colours[inside]).tolist() == list(range(base, end))
        assert inside.sum() == spender.edges_before - spender.edges_after
    assert end == result.total_colours == colours.max() + 1


def test_termination_degree_floor_with_default_scale():
    g = uniform_edges(60, 240, seed=4)
    result = colour_graph(g, PipelineParams(r=21, k=8))
    assert result.termination_reason == "degree-floor"
    assert result.rounds == ()
    assert verify_colouring(g, result.colouring, 21, 8).verdict == "pass"


def test_termination_edge_floor():
    g = uniform_edges(40, 50, seed=6)
    result = colour_graph(g, PipelineParams(r=8, k=6, beta0=0.5))
    assert result.termination_reason == "edge-floor"
    assert result.rounds == ()


def test_termination_round_budget_exhausted():
    g = uniform_edges(100, 1200, seed=3)
    result = colour_graph(g, PipelineParams(r=11, k=6, beta0=50.0, seed=3))
    assert result.termination_reason == "round-budget-exhausted"
    assert result.endgame_case == "fallback-star+proper"
    assert not result.success  # desk-scale honesty: 11 colours is hopeless here
    assert verify_colouring(g, result.colouring, 11, 6).verdict == "pass"


def test_termination_extraction_failed_still_colours_everything():
    # k = 4 leaves almost no certifiable block structure at this density
    g = uniform_edges(42, 320, seed=2)
    params = PipelineParams(r=12, k=4, beta0=5.0, seed=2, trials_per_extraction=60)
    result = colour_graph(g, params)
    assert result.termination_reason == "extraction-failed"
    assert result.rounds[-1].aborted
    assert result.rounds[-1].abort_reason == "uncertified-extraction"
    assert result.colouring.assignments.keys() == g.edges
    assert verify_colouring(g, result.colouring, 12, 4).verdict == "pass"


@pytest.mark.parametrize(
    "n,m,r,k,trials,seed",
    # dense-rounds' graph at five seeds, and the [extractions] case of
    # test_desk_scale_run_succeeds_and_audits_clean
    [(400, 8000, 36, 10, 200, seed) for seed in range(1, 6)]
    + [(300, 6000, 30, 12, 10, 100)],
    ids=[f"dense-{seed}" for seed in range(1, 6)] + ["extractions"],
)
def test_every_round_aborts_or_spends_a_colour(monkeypatch, n, m, r, k, trials, seed):
    # why colour_graph needs no "stalled" exit: it runs a round only with an
    # edge left and room for one extraction, so the first extraction runs and
    # either aborts the round or takes a colour
    seen = []
    real_round = pipeline.run_round

    def spy(g, i, params, colour_base):
        outcome = real_round(g, i, params, colour_base)
        seen.append((g.edge_count, i, outcome.trace))
        return outcome

    monkeypatch.setattr(pipeline, "run_round", spy)
    params = PipelineParams(
        r=r, k=k, beta0=0.5, seed=seed, trials_per_extraction=trials
    )
    result = colour_graph(uniform_edges(n, m, seed=seed), params)
    assert seen and [trace for *_, trace in seen] == list(result.rounds)
    for edges, i, trace in seen:
        assert edges > 0 and RHO**i * r / 6 >= 2
        assert trace.extractions + trace.aborted >= 1
        assert trace.aborted or trace.colours_spent >= 1


def test_round_parts_must_take_the_colours_the_round_spent(monkeypatch):
    real_round = pipeline.run_round

    def short(g, i, params, colour_base):
        outcome = real_round(g, i, params, colour_base)
        assert outcome.parts[0].colours_used == 1  # an extraction class
        return dataclasses.replace(outcome, parts=outcome.parts[1:])

    monkeypatch.setattr(pipeline, "run_round", short)
    params = PipelineParams(r=30, k=12, beta0=0.5, seed=100, trials_per_extraction=10)
    with pytest.raises(InternalInvariantError, match="round 0 parts use"):
        colour_graph(uniform_edges(300, 6000, seed=100), params)


def test_endgame_proper_after_star_strips_the_hub():
    g = hub_and_cycle(100)
    result = colour_graph(g, PipelineParams(r=20, k=8, beta0=0.5))
    assert result.endgame_case == "proper"
    assert result.success
    assert result.total_colours <= 5  # one star class + a cycle colouring
    endgame = result.stages[-1]
    assert endgame.name == "endgame" and endgame.notes["case"] == "proper"


def test_faithful_failure_on_tight_budget():
    g = complete_graph(6)
    result = colour_graph(g, PipelineParams(r=2, k=3))
    assert not result.success
    assert result.total_colours > 2
    assert verify_colouring(g, result.colouring, 2, 3).verdict == "pass"


def test_rounds_run_and_spend_within_budget():
    g = uniform_edges(90, 1100, seed=0)
    params = PipelineParams(r=14, k=10, beta0=0.5, seed=0)
    result = colour_graph(g, params)
    assert len(result.rounds) >= 1
    for trace in result.rounds:
        cap = Fraction(14) * Fraction(2, 5) ** trace.round_index / 6
        assert Fraction(trace.colours_spent) <= cap
        assert trace.edges_after <= trace.edges_before
    assert audit_round_budgets(result) == []
    assert verify_colouring(g, result.colouring, 14, 10).verdict == "pass"


def test_audit_flags_tampered_traces():
    g = uniform_edges(90, 1100, seed=0)
    result = colour_graph(g, PipelineParams(r=14, k=10, beta0=0.5, seed=0))
    trace = result.rounds[0]
    overspent = dataclasses.replace(trace, colours_spent=999)
    broken = dataclasses.replace(result, rounds=(overspent,))
    messages = audit_round_budgets(broken)
    assert any("budget" in m for m in messages)
    lopsided = dataclasses.replace(trace, star_colours=trace.star_colours + 1)
    assert any(
        "decompose" in m
        for m in audit_round_budgets(dataclasses.replace(result, rounds=(lopsided,)))
    )


def test_preconditions_reported_not_enforced():
    g = path_graph(40)
    result = colour_graph(g, PipelineParams(r=8, k=6, beta0=0.5))
    pre = result.preconditions
    assert pre["edges"] == 39
    assert not pre["k_ok"]  # desk k is far below 100 log r
    assert result.colouring.assignments.keys() == g.edges


def test_result_record_is_json_friendly():
    g = uniform_edges(30, 60, seed=9)
    result = colour_graph(g, PipelineParams(r=10, k=6, beta0=0.5, seed=9))
    record = result.to_record()
    text = json.dumps(record, allow_nan=False)
    assert json.loads(text)["total_colours"] == result.total_colours


@pytest.mark.parametrize(
    "seed,colours,digest",
    [
        (1, 99, "2c5b1bb04a759a962e1538cd9fec106ba8dadbb6512d7060eac7d2aed5708704"),
        (3, 95, "9e0b2b73d603543fc21cabaec73310605a57990e5a0597b6f4e042508f422c86"),
    ],
)
def test_colouring_output_is_pinned(seed, colours, digest):
    # two certified extractions in round 0, so a refactor of the trial that
    # reorders a random draw changes the colouring and fails here
    g = uniform_edges(200, 3000, seed)
    result = colour_graph(g, PipelineParams(r=24, k=8, beta0=0.5, seed=seed))
    text = serialize_colouring(g, result.colouring, r=24, k=8)
    assert result.total_colours == colours
    rows_and_counts = text.replace(" r=24 k=8", "", 1)  # the digest omits r and k
    assert hashlib.sha256(rows_and_counts.encode("utf-8")).hexdigest() == digest


@pytest.mark.slow
def test_400k_rung_output_is_pinned():
    # the ladder's largest rung, colour, write, parse and verify (about
    # 10 s and 250 MiB); run it with ``pytest -m slow``
    g = uniform_edges(20000, 400000, 1)
    result = colour_graph(g, PipelineParams(r=120, k=16, beta0=0.5, seed=1))
    text = serialize_colouring(g, result.colouring, r=120, k=16)
    parsed, colouring, _ = parse_colouring(text)
    report = verify_colouring(parsed, colouring, 120, 16)
    record = json.dumps(report.to_record(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "c565e83d02c7fde62eef1ee38f96f425627d97faeca211bfeeef10b4c6f75e34"
    )
    assert hashlib.sha256(record.encode("utf-8")).hexdigest() == (
        "e7258f81c89629fdc7f952bf711e8160629cd1e0b3992c732840d022314387f0"
    )


@pytest.mark.parametrize("k", [8, 3])
def test_colour_write_parse_verify_never_build_the_edge_set(monkeypatch, k):
    # Graph.edges and EdgeColouring.assignments hold tuples, several times
    # the arrays' memory; only callers outside the run path may build them
    g = uniform_edges(200, 3000, 1)

    def refuse(graph):
        raise AssertionError("Graph.edges was read on the run path")

    def refuse_dict(colouring):
        raise AssertionError("EdgeColouring.assignments was read on the run path")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    monkeypatch.setattr(EdgeColouring, "assignments", property(refuse_dict))
    result = colour_graph(g, PipelineParams(r=24, k=k, beta0=0.5))
    text = serialize_colouring(g, result.colouring, r=24, k=k)
    parsed_g, parsed, header = parse_colouring(text)
    assert parsed_g == g and header["colours_used"] == result.total_colours
    report = verify_colouring(parsed_g, parsed, 24, k)
    assert report.verdict == "pass" and report.covers_all_edges
    if k == 8:
        assert result.rounds and result.rounds[0].extractions > 0


@pytest.mark.parametrize("fault", ["overlap", "gap"])
def test_stage_colourings_must_partition_the_edges(monkeypatch, fault):
    g = uniform_edges(120, 360, seed=1)
    real = pipeline.low_degree_refinement

    def faulty(graph, r):
        low = real(graph, r)
        rows, colours = low.colouring.edge_array, low.colouring.colours
        kept = low.residual.edge_array[:1]
        assert len(rows) and len(kept)
        if fault == "overlap":  # also colour an edge that a later stage colours
            both = np.vstack([rows, kept])
            bad = EdgeColouring.of(both, np.append(colours, colours[0]))
        else:  # drop an edge without leaving it in the residual
            bad = EdgeColouring(rows[1:], colours[1:])
        return dataclasses.replace(low, colouring=bad)

    monkeypatch.setattr(pipeline, "low_degree_refinement", faulty)
    with pytest.raises(InternalInvariantError, match="partition"):
        colour_graph(g, PipelineParams(r=48, k=8, beta0=0.5, seed=1))
