"""Command line front end.

Subcommands
-----------
generate            write a random graph in edge-list format
colour              run the full colouring pipeline and verify the result
extract             one banded path-free extraction on an input graph
verify              check a colouring file against the budget and path bound
bins                exact / Monte Carlo max-load statistics
check-inequalities  run the analytic inequality suite

Exit codes: 0 success (and verified where applicable), 1 verified failure,
2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bins import _exact_grid, _refuse_over_cap, compute_bins_stats
from .checks import run_all_checks
from .colouring import parse_colouring, serialize_colouring
from .errors import InternalInvariantError, UsageError
from .extract import extract_from_densest_band
from .generators import GENERATOR_MODELS
from .graph import Graph, parse_edge_list, serialize_edge_list
from .pipeline import PipelineParams, audit_round_budgets, colour_graph
from .verify import DEFAULT_COMPONENT_CAP, verify_colouring

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for key in sorted(record):
            print(f"{key}: {record[key]}")


def _grid(value: str) -> tuple[int, int]:
    try:
        lo_text, _, hi_text = value.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {value!r}") from exc
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {value!r}")
    return lo, hi


def _given(flags: dict) -> dict:
    """The flags set on the command line; an unset one keeps its library default."""
    return {name: value for name, value in flags.items() if value is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfree",
        description="Colour graphs so no colour class contains a long path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random graph")
    gen.add_argument("--model", choices=sorted(GENERATOR_MODELS), default="uniform-m")
    gen.add_argument("--n", type=int, required=True, help="number of vertices")
    gen.add_argument("--m", type=int, help="edge count (uniform-m)")
    gen.add_argument("--d", type=int, help="degree parameter (other models)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default="-")

    col = sub.add_parser("colour", help="colour a graph and verify the result")
    col.add_argument("--input", default="-")
    col.add_argument("--r", type=int, required=True, help="colour budget")
    col.add_argument("--k", type=int, required=True, help="forbidden path length in vertices")
    # unset seed, trials and beta0 leave PipelineParams' own defaults in force
    col.add_argument("--seed", type=int)
    col.add_argument("--trials", type=int, help="resamples per extraction")
    col.add_argument("--beta0", type=float, default=None, help="override density scale seed")
    col.add_argument("--strict", action="store_true", help="enforce the analytic preconditions")
    col.add_argument("--exact-cap", type=int, default=DEFAULT_COMPONENT_CAP, dest="exact_cap")
    col.add_argument("--output", default=None, help="write the colouring here")
    col.add_argument("--report", default=None, help="write the JSON report here")
    col.add_argument("--format", choices=["json", "text"], default="json")

    ext = sub.add_parser("extract", help="one banded path-free extraction")
    ext.add_argument("--input", default="-")
    ext.add_argument("--r", type=int, required=True)
    ext.add_argument("--k", type=int, required=True)
    ext.add_argument("--beta", type=float, required=True,
                     help="density scale; sets only the printed reference_ratio")
    ext.add_argument("--seed", type=int, default=PipelineParams.seed)
    ext.add_argument("--trials", type=int, default=PipelineParams.trials_per_extraction)
    ext.add_argument("--output", default=None, help="write the extracted subgraph here")
    ext.add_argument("--format", choices=["json", "text"], default="json")

    ver = sub.add_parser("verify", help="verify a colouring file")
    ver.add_argument("--input", default="-")
    ver.add_argument("--r", type=int, default=None, help="override the header budget")
    ver.add_argument("--k", type=int, default=None, help="override the header path bound")
    ver.add_argument("--exact-cap", type=int, default=DEFAULT_COMPONENT_CAP, dest="exact_cap")
    ver.add_argument("--format", choices=["json", "text"], default="json")

    bins = sub.add_parser("bins", help="max-load statistics for balls in bins")
    bins.add_argument("--q", type=int, help="number of bins")
    bins.add_argument("--n", type=int, help="number of balls")
    bins.add_argument("--grid", type=_grid, nargs=2, metavar=("QLO..QHI", "NLO..NHI"))
    # unset trials and seed leave compute_bins_stats' own defaults in force
    bins.add_argument("--trials", type=int, help="Monte Carlo trials (0 = skip)")
    bins.add_argument("--seed", type=int)
    bins.add_argument("--format", choices=["json", "text"], default="json")

    chk = sub.add_parser("check-inequalities", help="run the inequality suite")
    chk.add_argument("--grid", type=_grid, nargs=2, metavar=("QLO..QHI", "NLO..NHI"))
    # unset sampling flags and seed leave run_all_checks' own defaults in force
    chk.add_argument("--samples", type=int, help="Schur transform samples")
    chk.add_argument("--mc-seeds", type=int, dest="mc_seeds")
    chk.add_argument("--mc-trials", type=int, dest="mc_trials")
    chk.add_argument("--seed", type=int)
    chk.add_argument("--format", choices=["json", "text"], default="text")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    flag = "m" if args.model == "uniform-m" else "d"  # edge count or degree
    size = getattr(args, flag)
    if size is None:
        raise UsageError(f"--{flag} is required for the {args.model} model")
    g = GENERATOR_MODELS[args.model](args.n, size, args.seed)
    _write_text(args.output, serialize_edge_list(g))
    return 0


def _cmd_colour(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    given = {"seed": args.seed, "trials_per_extraction": args.trials, "beta0": args.beta0}
    params = PipelineParams(r=args.r, k=args.k, strict=args.strict, **_given(given))
    result = colour_graph(g, params)
    audit = audit_round_budgets(result)
    if audit:
        raise InternalInvariantError("round budget audit failed: " + "; ".join(audit))
    report = verify_colouring(g, result.colouring, args.r, args.k, cap=args.exact_cap)
    if args.output is not None:
        _write_text(args.output, serialize_colouring(g, result.colouring, r=args.r, k=args.k))
    record = result.to_record()
    record["verification"] = report.to_record()
    if args.report is not None:
        _write_text(args.report, json.dumps(record, indent=2, sort_keys=True))
    _emit(record, args.format)
    if report.verdict == "fail":  # every class is path-free by construction
        raise InternalInvariantError(
            f"colour {report.witness_colour} contains a path on {args.k} vertices"
        )
    return 0 if result.success else 1


def _cmd_extract(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    if not (math.isfinite(args.beta) and args.beta > 0):
        raise UsageError("density parameter beta must be positive and finite")
    banded = extract_from_densest_band(g, args.r, args.k, args.trials, args.seed)
    try:
        reference = 60.0 / (args.beta**0.9 * args.r)
    except OverflowError:  # r itself is beyond float range
        raise UsageError("colour budget r must be within float range") from None
    extraction = banded.extraction
    record = {
        "certified": extraction.certified,
        "certificate": extraction.certificate,
        "band_level": banded.band_level,
        "selected_edges": banded.selected_edges,
        "total_edges": g.edge_count,
        "achieved_ratio": str(banded.achieved_ratio),
        "achieved_ratio_float": float(banded.achieved_ratio),
        "reference_ratio": reference,
        "q": extraction.q,
        "q_clamped": extraction.q_clamped,
        "crossing_edges": extraction.crossing_edges,
        "kept_edges": extraction.subgraph.edge_count,
        "chosen_trial": extraction.chosen_trial,
        "mean_edges": extraction.mean_edges,
    }
    if args.output is not None:
        _write_text(args.output, serialize_edge_list(extraction.subgraph))
    _emit(record, args.format)
    return 0 if extraction.certified else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    g, colouring, header = parse_colouring(_read_text(args.input))
    r = args.r if args.r is not None else header.get("r")
    k = args.k if args.k is not None else header.get("k")
    if r is None or k is None:
        raise UsageError("the file header carries no r/k; pass --r and --k")
    report = verify_colouring(g, colouring, r, k, cap=args.exact_cap)
    _emit(report.to_record(), args.format)
    return 0 if report.accepted else 1


def _cmd_bins(args: argparse.Namespace) -> int:
    sampling = _given({"trials": args.trials, "seed": args.seed})
    if args.grid is not None:
        _refuse_over_cap(*args.grid)
        records = [
            compute_bins_stats(q, n, **sampling).to_record()
            for q, n in _exact_grid(*args.grid)
        ]
        if args.format == "json":
            print(json.dumps(records, indent=2, sort_keys=True))
        else:
            for record in records:
                print(
                    f"q={record['q']:<3} n={record['n']:<3} "
                    f"w={record['w']:<12} "
                    f"lb_unified={record['lb_unified']:.6f}"
                )
        return 0
    if args.q is None or args.n is None:
        raise UsageError("pass --q and --n, or --grid")
    stats = compute_bins_stats(args.q, args.n, **sampling)
    _emit(stats.to_record(), args.format)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    kwargs = _given({
        "schur_samples": args.samples,
        "mc_seeds": args.mc_seeds,
        "mc_trials": args.mc_trials,
        "seed": args.seed,
    })
    if args.grid is not None:
        kwargs["q_range"], kwargs["n_range"] = args.grid
    results = run_all_checks(**kwargs)
    if args.format == "json":
        print(json.dumps([r.to_record() for r in results], indent=2))
    else:
        for result in results:
            print(result.summary_line())
    return 0 if all(r.ok for r in results) else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "colour": _cmd_colour,
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "bins": _cmd_bins,
    "check-inequalities": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        if getattr(args, "exact_cap", 0) < 0:  # before any input is read
            raise UsageError("component cap must be non-negative")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
