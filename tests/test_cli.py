"""End-to-end command line tests, run in process through ``main(argv)``."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import pathfree.bins as bins
import pathfree.checks as checks
import pathfree.cli as cli
from pathfree import (
    EdgeColouring,
    Graph,
    InternalInvariantError,
    PipelineParams,
    colour_graph,
    compute_bins_stats,
    parse_colouring,
    parse_edge_list,
    serialize_colouring,
    serialize_edge_list,
    uniform_edges,
)
from pathfree.cli import main

from conftest import complete_graph


@pytest.fixture
def desk_graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(serialize_edge_list(uniform_edges(120, 360, seed=1)))
    return str(path)


def test_generate_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["generate", "--n", "30", "--m", "60", "--seed", "7", "--output", str(out)]) == 0
    g = parse_edge_list(out.read_text())
    assert g.vertex_count == 30 and g.edge_count == 60

    assert main(["generate", "--n", "30", "--m", "60", "--seed", "7"]) == 0
    assert parse_edge_list(capsys.readouterr().out).edges == g.edges

    assert main(["generate", "--n", "30", "--m", "60", "--seed", "8"]) == 0
    assert parse_edge_list(capsys.readouterr().out).edges != g.edges


def test_generate_other_models(capsys):
    assert main(["generate", "--model", "star-forest", "--n", "12", "--d", "3"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.edge_count == 9

    assert main(["generate", "--model", "d-regular", "--n", "10", "--d", "4"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert all(g.degree(v) == 4 for v in range(10))


def test_generate_usage_errors(capsys):
    assert main(["generate", "--n", "10"]) == 2  # uniform-m needs --m
    assert "error:" in capsys.readouterr().err
    assert main(["generate", "--model", "d-regular", "--n", "5", "--d", "3"]) == 2
    assert main(["generate", "--model", "path-union", "--n", "10"]) == 2


def test_colour_round_trip(desk_graph_file, tmp_path, capsys):
    colouring_path = tmp_path / "colouring.txt"
    report_path = tmp_path / "report.json"
    code = main(
        [
            "colour",
            "--input", desk_graph_file,
            "--r", "48",
            "--k", "8",
            "--seed", "1",
            "--beta0", "0.5",
            "--output", str(colouring_path),
            "--report", str(report_path),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["success"] is True
    assert record["verification"]["verdict"] == "pass"
    assert record["total_colours"] <= 48

    g, colouring, header = parse_colouring(colouring_path.read_text())
    assert header["r"] == 48 and header["k"] == 8
    assert colouring.assignments.keys() == g.edges

    saved = json.loads(report_path.read_text())
    assert saved["total_colours"] == record["total_colours"]

    # the emitted file verifies on its own header
    assert main(["verify", "--input", str(colouring_path)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "pass" and verdict["k"] == 8

    # forcing k=2 makes every nonempty class a forbidden path
    assert main(["verify", "--input", str(colouring_path), "--k", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_colour_reports_failure_with_exit_1(tmp_path, capsys):
    path = tmp_path / "k6.txt"
    path.write_text(serialize_edge_list(complete_graph(6)))
    code = main(["colour", "--input", str(path), "--r", "2", "--k", "3"])
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    assert record["success"] is False
    assert record["verification"]["verdict"] == "pass"  # coloured, just over budget


def test_colour_strict_rejects_desk_parameters(desk_graph_file, capsys):
    code = main(["colour", "--input", desk_graph_file, "--r", "48", "--k", "8", "--strict"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_colour_text_format(desk_graph_file, capsys):
    code = main(
        ["colour", "--input", desk_graph_file, "--r", "48", "--k", "8",
         "--beta0", "0.5", "--format", "text"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "total_colours:" in out and "success: True" in out


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_colour_and_extract_reject_a_non_finite_density(desk_graph_file, capsys, value):
    # nan once crashed inside Fraction() with exit 1, and extract printed
    # "reference_ratio": NaN, which is not JSON; a density of 0 or below is
    # refused with the same message
    for argv in (
        ["colour", "--input", desk_graph_file, "--r", "48", "--k", "8", "--beta0", value],
        ["extract", "--input", desk_graph_file, "--r", "16", "--k", "8", "--beta", value],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err


def test_colour_rejects_a_density_whose_cap_overflows(desk_graph_file, capsys):
    # finite, but beta0 * r * log r is not: this once exited 0 and printed
    # "degree_goal": Infinity, which strict JSON parsers reject
    argv = ["colour", "--input", desk_graph_file, "--r", "48", "--k", "8", "--beta0", "1e308"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


def test_colour_report_bytes_are_pinned(tmp_path, capsys):
    # The digests in the benchmark skip ``params``; these pin every byte of
    # one report and of its text form, the fixed constants' entries included.
    # Hashes recorded before the constants stopped being settable.
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(serialize_edge_list(uniform_edges(200, 3000, seed=1)))
    report_path = tmp_path / "report.json"
    argv = ["colour", "--input", str(graph_path), "--r", "24", "--k", "8",
            "--seed", "1", "--beta0", "0.5"]
    assert main(argv + ["--report", str(report_path)]) == 1  # over budget
    capsys.readouterr()
    record = json.loads(report_path.read_text())
    assert record["rounds"] and record["rounds"][0]["extractions"] == 2
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == (
        "485646c3e1434da86049efc4a85cf873b54252b9876e025e435d1fae18ed1b56"
    )
    assert main(argv + ["--format", "text"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ab793c970ba29e3d04feb57802e4a75b4d08d574a7da874442d2bc94ab8a27c7"
    )


@pytest.mark.parametrize(
    "k,report_digest,text_digest",
    [
        pytest.param(
            "5",
            "6ae5cbb81c096c84f5d2f03d1a45508977b61669eb309e1649dfb2f529cc9a98",
            "68dda27a4149be1eb4427f9641bfa5cb6e01769ec665e2c032da69ff58f7360f",
            id="aborted-round",
        ),
        pytest.param(
            "3",
            "0497f544b1b1c21a358c374c5ac94167dc0e74ff612cb8f09b19d67c87ef2766",
            "be4e9939bab2fb7a18578986082e9a60571b9542a8b0933504fb42ce0e54f3eb",
            id="proper-only",
        ),
    ],
)
def test_colour_report_bytes_are_pinned_on_other_paths(
    tmp_path, capsys, k, report_digest, text_digest
):
    # The instance pinned above at k=5 (its one round aborts) and k=3 (one
    # proper colouring, no rounds): abort reasons and stage notes, byte by byte.
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(serialize_edge_list(uniform_edges(200, 3000, seed=1)))
    report_path = tmp_path / "report.json"
    argv = ["colour", "--input", str(graph_path), "--r", "24", "--k", k,
            "--seed", "1", "--beta0", "0.5"]
    assert main(argv + ["--report", str(report_path)]) == 1  # over budget
    capsys.readouterr()
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == report_digest
    assert main(argv + ["--format", "text"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == text_digest


@pytest.fixture(scope="module")
def pinned_colouring_file(tmp_path_factory):
    # what ``colour --output`` writes for the report pinned above
    g = uniform_edges(200, 3000, seed=1)
    result = colour_graph(g, PipelineParams(r=24, k=8, beta0=0.5, seed=1))
    path = tmp_path_factory.mktemp("pinned") / "colouring.txt"
    path.write_text(serialize_colouring(g, result.colouring, r=24, k=8))
    return str(path)


@pytest.mark.parametrize(
    "extra,code,verdict,json_digest,text_digest",
    [
        pytest.param(
            [], 0, "pass",
            "00b1ab9565aac8a0e53b760e30a80213ab4bdd06ae6bea80bdd0c79e98f5d8e6",
            "544049d9d2f0197efb3f4db175971f1d47c397e1c5d2e5d8d9b3b8167ec35aac",
            id="pass",
        ),
        pytest.param(
            ["--k", "3"], 1, "fail",
            "026dc053163763b02c2fee44e3137b523ddaff088316fcc7c6b11b264862eb3e",
            "d31148a467812611b3edef957fc6e5858324ad4f0f6d935e762d1af834600358",
            id="fail-with-witness",
        ),
        pytest.param(
            ["--exact-cap", "6"], 0, "pass",
            "f52658fdf6366bac4a03ede72268640643fdc5eb5868023efa9cb56429df1be0",
            "d2293aa1df41877d132c9771d81d8b7c2ef00507fb4f63ac82869024bdc8c71f",
            id="cover-certified",
        ),
    ],
)
def test_verify_output_bytes_are_pinned(
    pinned_colouring_file, capsys, extra, code, verdict, json_digest, text_digest
):
    # Every byte of the verifier's json and text output: witness path,
    # failures, cover certificates, per-colour stats and class sizes.
    argv = ["verify", "--input", pinned_colouring_file, *extra]
    assert main(argv) == code
    out = capsys.readouterr().out
    record = json.loads(out)
    assert record["verdict"] == verdict
    assert (record["witness_path"] is not None) == (verdict == "fail")
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest
    assert main(argv + ["--format", "text"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == text_digest


def test_colour_internal_error_exit_3(desk_graph_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalInvariantError("forced for the test")

    monkeypatch.setattr(cli, "colour_graph", boom)
    code = main(["colour", "--input", desk_graph_file, "--r", "8", "--k", "6"])
    assert code == 3
    assert "internal error:" in capsys.readouterr().err


@pytest.mark.parametrize("r, success", [(2, False), (60, True)])
def test_colour_exits_3_on_any_fail_verdict(tmp_path, capsys, monkeypatch, r, success):
    # every class is path-free by construction, so a fail verdict is a bug
    # whether or not the run kept to its budget
    path = tmp_path / "g.txt"
    path.write_text(serialize_edge_list(uniform_edges(12, 14, 1)))

    def one_colour(g, params):
        result = colour_graph(g, params)
        assert result.success == success
        lumped = EdgeColouring(g.edge_array, np.zeros(g.edge_count, dtype=np.int64))
        return dataclasses.replace(result, colouring=lumped)

    monkeypatch.setattr(cli, "colour_graph", one_colour)
    code = main(["colour", "--input", str(path), "--r", str(r), "--k", "6"])
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verification"]["verdict"] == "fail"
    assert "internal error:" in captured.err


def test_extract_certified_star(tmp_path, capsys):
    from pathfree import star_forest_graph

    graph_path = tmp_path / "star.txt"
    graph_path.write_text(serialize_edge_list(star_forest_graph(21, 20, seed=0)))
    out_path = tmp_path / "sub.txt"
    code = main(
        ["extract", "--input", str(graph_path), "--r", "2", "--k", "4",
         "--beta", "0.5", "--output", str(out_path)]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["certified"] is True
    assert record["q"] == 1
    assert record["kept_edges"] == 20
    sub = parse_edge_list(out_path.read_text())
    assert sub.edge_count == record["kept_edges"]


def hub_graph() -> Graph:
    """A 40-star on ``uniform_edges(60, 120, 2)``: band 1 holds 130 of its 156 edges."""
    rows = set(map(tuple, uniform_edges(60, 120, seed=2).edge_array.tolist()))
    return Graph.build(60, sorted(rows | {(0, v) for v in range(1, 41)}))


EXTRACT_PINS = {
    "band": (
        lambda: serialize_edge_list(hub_graph()),
        ["--r", "4", "--k", "6", "--beta", "0.5", "--trials", "50", "--seed", "1"],
        {
            "achieved_ratio": "17/52",
            "achieved_ratio_float": 0.3269230769230769,
            "band_level": 1,
            "certificate": "block-path",
            "certified": True,
            "chosen_trial": 6,
            "crossing_edges": 84,
            "kept_edges": 51,
            "mean_edges": 48.48,
            "q": 10,
            "q_clamped": False,
            "reference_ratio": 27.990989746104223,
            "selected_edges": 130,
            "total_edges": 156,
        },
    ),
    "residual": (
        lambda: serialize_edge_list(uniform_edges(120, 360, seed=1)),
        ["--r", "16", "--k", "8", "--beta", "0.5"],
        {
            "achieved_ratio": "17/90",
            "achieved_ratio_float": 0.18888888888888888,
            "band_level": None,
            "certificate": "component-order",
            "certified": True,
            "chosen_trial": 111,
            "crossing_edges": 184,
            "kept_edges": 68,
            "mean_edges": 62.61,
            "q": 45,
            "q_clamped": False,
            "reference_ratio": 6.997747436526056,
            "selected_edges": 360,
            "total_edges": 360,
        },
    ),
    "empty": (
        lambda: "# n=5\n",
        ["--r", "4", "--k", "5", "--beta", "2.5"],
        {
            "achieved_ratio": "0",
            "achieved_ratio_float": 0.0,
            "band_level": None,
            "certificate": "empty",
            "certified": True,
            "chosen_trial": None,
            "crossing_edges": 0,
            "kept_edges": 0,
            "mean_edges": 0.0,
            "q": 1,
            "q_clamped": False,
            "reference_ratio": 6.575749358311303,
            "selected_edges": 0,
            "total_edges": 0,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(EXTRACT_PINS))
def test_extract_record_is_pinned(tmp_path, capsys, case):
    # every key and value of the printed record, the reference ratio and the
    # edge total included, on a band pick, a residual pick and no edges
    text, args, record = EXTRACT_PINS[case]
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(text())
    assert main(["extract", "--input", str(graph_path), *args]) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert captured.err == ""


@pytest.mark.parametrize("rows", ["", "0 1\n"])
def test_extract_rejects_small_k_and_no_trials_without_edges(tmp_path, capsys, rows):
    graph_path = tmp_path / "g.txt"
    graph_path.write_text("# n=5\n" + rows)
    code = main(
        ["extract", "--input", str(graph_path), "--r", "4", "--k", "2",
         "--beta", "0.5", "--trials", "0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_extract_rejects_a_budget_beyond_float_range(desk_graph_file, capsys):
    # 60 / (beta^0.9 * r) once raised an uncaught OverflowError: exit 1
    # with a traceback, where colour already exits 2
    argv = ["extract", "--input", desk_graph_file, "--r", "1" + "0" * 400,
            "--k", "5", "--beta", "0.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float range" in captured.err


def test_extract_uncertified_exit_1(tmp_path, capsys):
    graph_path = tmp_path / "dense.txt"
    graph_path.write_text(serialize_edge_list(uniform_edges(42, 320, seed=2)))
    code = main(
        ["extract", "--input", str(graph_path), "--r", "12", "--k", "4",
         "--beta", "5.0", "--trials", "5", "--seed", "0"]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    assert record["certified"] is False and record["certificate"] is None


def test_verify_needs_budget_and_bound(tmp_path, capsys):
    bare = tmp_path / "bare.txt"
    bare.write_text("# n=3 colours_used=2\n0 1 0\n1 2 1\n")  # header has no r/k
    assert main(["verify", "--input", str(bare)]) == 2
    assert "pass --r and --k" in capsys.readouterr().err
    assert main(["verify", "--input", str(bare), "--r", "4", "--k", "3"]) == 0


def test_a_negative_exact_cap_is_refused(desk_graph_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "colouring.txt"
    colour = ["colour", "--input", desk_graph_file, "--r", "48", "--k", "8", "--beta0", "0.5"]

    def unreachable(*args):
        raise AssertionError("the cap must be refused before any graph work")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "colour_graph", unreachable)
        patched.setattr(cli, "parse_colouring", unreachable)
        assert main(colour + ["--exact-cap", "-3", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cap must be non-negative" in captured.err
        assert not out.exists()
        # refused before the file, which does not exist yet, is read
        assert main(["verify", "--input", str(out), "--exact-cap", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cap must be non-negative" in captured.err
    assert main(colour + ["--exact-cap", "0", "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--exact-cap", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap must be non-negative" in captured.err
    assert main(["verify", "--input", str(out), "--exact-cap", "0"]) == 0


def test_verify_refuses_a_colour_past_int64(tmp_path, capsys):
    # colours are int64 array entries, so a larger one is a usage error
    too_big = tmp_path / "too_big.txt"
    too_big.write_text("# r=2 k=3\n0 1 9223372036854775808\n")
    assert main(["verify", "--input", str(too_big)]) == 2
    assert "line 2: colour above" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "--input", "/nonexistent/colouring.txt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bins_single_cell(capsys):
    assert main(["bins", "--q", "2", "--n", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["expected_max"] == "9/4"
    assert record["w"] == "3/4"
    assert "mc_mean" not in record

    assert main(["bins", "--q", "2", "--n", "3", "--trials", "500", "--seed", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["mc_trials"] == 500
    assert abs(record["mc_mean"] - 2.25) < 5 * record["mc_stderr"] + 1e-9


def test_unset_seeds_and_trials_keep_the_library_defaults(desk_graph_file, capsys):
    # the library holds the one copy of each default, so naming it changes nothing
    runs = [
        (["colour", "--input", desk_graph_file, "--r", "48", "--k", "8", "--beta0", "0.5"],
         ["--seed", str(PipelineParams.seed),
          "--trials", str(PipelineParams.trials_per_extraction)]),
        (["extract", "--input", desk_graph_file, "--r", "48", "--k", "8", "--beta", "0.5"],
         ["--seed", str(PipelineParams.seed)]),
        (["bins", "--q", "3", "--n", "4"], ["--trials", "0", "--seed", "0"]),
    ]
    for argv, defaults in runs:
        code = main(argv)
        unset = capsys.readouterr().out
        assert main(argv + defaults) == code
        assert capsys.readouterr().out == unset


def test_bins_grid_and_text(capsys):
    assert main(["bins", "--grid", "2..3", "1..4"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 8
    assert {r["q"] for r in records} == {2, 3}

    assert main(["bins", "--grid", "2..3", "1..4", "--format", "text"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8 and all(line.startswith("q=") for line in lines)


def test_bins_grid_matches_cell_by_cell(monkeypatch, capsys):
    monkeypatch.setattr(bins, "_EXPECTATIONS", {})
    assert main(["bins", "--grid", "2..5", "1..7"]) == 0
    records = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(bins, "_EXPECTATIONS", {})  # each cell on its own below
    cells = [(q, n) for q in range(2, 6) for n in range(1, 8)]
    assert records == [compute_bins_stats(q, n).to_record() for q, n in cells]


def test_bins_usage(capsys):
    assert main(["bins"]) == 2
    assert main(["bins", "--q", "4"]) == 2
    assert main(["bins", "--grid", "4..2", "1..3"]) == 2  # argparse rejects bad range
    assert main(["bins", "--q", "3", "--n", "4", "--trials", "-5"]) == 2
    assert "non-negative trial count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bins", "--grid", "1..64", "1..70"],
        ["check-inequalities", "--grid", "2..64", "1..70"],
    ],
    ids=["bins", "check-inequalities"],
)
def test_grid_past_the_exact_cap_is_refused_before_counting(monkeypatch, capsys, argv):
    # the corner cell q_hi * n_hi is always counted exactly, so such a grid
    # can only end in the size-cap error; it must end there before counting
    # the cells below the corner one at a time
    def counted(*args):
        raise AssertionError("a grid past the exact cap was counted")

    monkeypatch.setattr(bins, "_EXPECTATIONS", {})
    monkeypatch.setattr(bins, "_egf_mul", counted)
    assert main(argv) == 2
    assert f"q*n = 4480 exceeds the exact-computation cap {bins._EXACT_CAP}" in (
        capsys.readouterr().err
    )


def test_check_inequalities_small_grid(capsys):
    code = main(
        ["check-inequalities", "--grid", "2..4", "1..5", "--samples", "30",
         "--mc-seeds", "2", "--mc-trials", "300"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(" ok " in line for line in lines)

    code = main(
        ["check-inequalities", "--grid", "2..3", "1..4", "--samples", "20",
         "--mc-seeds", "1", "--mc-trials", "200", "--format", "json"]
    )
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["violations"] for r in records] == [0] * 11


def test_check_inequalities_benchmark_grid_pin(capsys):
    # the inequality-audit workload's grid, records pinned without timings
    assert main(["check-inequalities", "--grid", "2..32", "1..32", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    for record in records:
        del record["seconds"]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "5dff82bb1f15361fc4f54847b7e52d4903e1e09a07fb84042a747bfe50455aa6"


def test_check_inequalities_passes_only_the_counts_given(monkeypatch):
    # run_all_checks holds the one copy of the sampling defaults
    calls = []

    def audit(**kwargs):
        calls.append(kwargs)
        return []

    monkeypatch.setattr(cli, "run_all_checks", audit)
    assert main(["check-inequalities"]) == 0
    assert main(["check-inequalities", "--samples", "7", "--mc-trials", "9"]) == 0
    assert main(["check-inequalities", "--seed", "4"]) == 0
    assert calls == [{}, {"schur_samples": 7, "mc_trials": 9}, {"seed": 4}]


def test_check_inequalities_rejects_vacuous_audits(capsys):
    # zero samples or seeds would report "ok cells=0" for a check never run
    small = ["check-inequalities", "--grid", "2..3", "1..3", "--mc-trials", "100"]
    assert main(small + ["--samples", "-3", "--mc-seeds", "1"]) == 2
    assert "at least one sample" in capsys.readouterr().err
    assert main(small + ["--samples", "5", "--mc-seeds", "0"]) == 2
    assert "at least one seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,unit",
    [
        ("--samples", "-3", "sample"),
        ("--mc-seeds", "0", "seed"),
        ("--mc-trials", "0", "trial"),
    ],
)
def test_check_inequalities_rejects_bad_counts_up_front(
    monkeypatch, capsys, flag, value, unit
):
    def floor_ran(*args, **kwargs):
        raise AssertionError("a floor check ran before the counts were checked")

    monkeypatch.setattr(checks, "check_solver_floor", floor_ran)
    assert main(["check-inequalities", flag, value]) == 2
    assert f"at least one {unit}" in capsys.readouterr().err


def test_check_inequalities_rejects_a_grid_without_two_bins(monkeypatch, capsys):
    # the closed-form floor is stated for q >= 2, so --grid 1..1 would leave
    # it with no cell and report "ok cells=0"
    def floor_ran(*args, **kwargs):
        raise AssertionError("a floor check ran on a grid without two bins")

    monkeypatch.setattr(checks, "check_solver_floor", floor_ran)
    assert main(["check-inequalities", "--grid", "1..1", "1..1"]) == 2
    assert "two bins" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--r", "16", "--k", "8", "--beta", "0.5"],
        ["generate", "--n", "30", "--m", "60"],
        ["bins", "--q", "2", "--n", "3", "--trials", "10"],
        ["check-inequalities", "--grid", "2..3", "1..4", "--samples", "20",
         "--mc-seeds", "1", "--mc-trials", "200"],
        ["colour", "--r", "36", "--k", "10", "--beta0", "0.5"],
        # these never draw, so they once took the seed and exited 0
        ["bins", "--q", "3", "--n", "4"],
        ["bins", "--grid", "2..3", "1..2"],
        ["generate", "--model", "star-forest", "--n", "10", "--d", "3"],
        ["generate", "--model", "path-union", "--n", "10", "--d", "3"],
    ],
    ids=["extract", "generate", "bins", "check-inequalities", "colour",
         "bins-exact", "bins-grid", "star-forest", "path-union"],
)
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # it once reached numpy's SeedSequence: exit 1 with a ValueError
    # traceback; now it is refused before the input (absent here) is read
    if argv[0] in ("extract", "colour"):
        argv = argv + ["--input", str(tmp_path / "absent.txt")]
    assert main(argv + ["--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -3\n"


def test_help_and_bad_usage(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["colour", "--r", "4"]) == 2  # --k is required
