"""Run one workload of the pathfree benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   (untraced)

Each repetition runs ``rep.py`` in a fresh interpreter that regenerates its
input from the seed, so the ``lru_cache`` in ``bins`` and each graph's cached
properties start cold, as they do for every command-line call.  Repetitions
run one at a time and go on until the next one would end after ``--seconds``
(at least one; with ``--trace 1`` at least two, alternating untraced and
traced).

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` reports the per-layer metrics, each the median
over the traced repetitions, plus the tracing overhead: the median traced
``wall_s`` minus the median untraced one.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Only ``wall_s``, ``setup_s`` and ``peak_rss_mb`` apply to every workload, so
only they go into that object; ``--workload all`` prints every end-to-end
metric of every workload, ``colour_s``, ``verify_s``, ``colours`` and
``fail_rate`` included, keyed ``<workload>.<metric>``.

A repetition fails when it raises, when its outputs fail the workload's
gate, when its digest differs from the one recorded in ``expected.json`` for
this workload and seed, or when it differs from the run's first digest.
Exit status: 0 when every repetition was correct, 1 otherwise, 2 when the
package or the benchmark cannot run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"
RUN_LIMIT_S = 165  # every run must end well inside 180 s
NO_PACKAGE = 3  # rep.py's exit status when pathfree cannot be imported

# end-to-end metrics, in the order printed: (name, unit, workload kinds)
END_TO_END = (
    ("wall_s", "s", ("graph", "audit")),
    ("colour_s", "s", ("graph",)),
    ("verify_s", "s", ("graph",)),
    ("setup_s", "s", ("graph", "audit")),
    ("peak_rss_mb", "MiB", ("graph", "audit")),
    ("colours", "count", ("graph",)),
)
# the subset every workload reports to BENCHMARK.json
COMMON = ("wall_s", "setup_s", "peak_rss_mb")


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_expected() -> dict:
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_rep(workload: str, seed: int, traced: bool, smoke: bool, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode == NO_PACKAGE:
        raise Fatal(proc.stderr.strip())
    lines = proc.stdout.splitlines()
    if not lines:
        return {"traced": traced, "error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    return json.loads(lines[-1])


def judge(reps: list[dict], expected: str | None) -> None:
    """Mark each repetition ``ok`` and list what went wrong in ``problems``."""
    first = next((r["digest"] for r in reps if "digest" in r), None)
    for rep in reps:
        problems = list(rep.get("problems", []))
        if "error" in rep:
            problems.append(rep["error"])
        elif expected is not None and rep["digest"] != expected:
            problems.append(f"digest {rep['digest'][:12]} is not the recorded {expected[:12]}")
        elif rep["digest"] != first:
            problems.append("digest differs between repetitions of one seed")
        rep["problems"] = problems
        rep["ok"] = not problems


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run repetitions for about ``seconds``; return them, judged."""
    from workloads import SMOKE, WORKLOADS

    kind = (SMOKE if smoke else WORKLOADS)[workload].kind
    table = {} if smoke else load_expected().get(workload, {})
    expected = table.get("any" if kind == "audit" else str(seed))
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        reps.append(
            run_rep(workload, seed, trace and len(reps) % 2 == 1, smoke, RUN_LIMIT_S - elapsed)
        )
        elapsed = time.monotonic() - start
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if "timed out" in reps[-1].get("error", ""):
            break
        if trace and len(reps) < 2:
            continue
        if next_end > seconds or next_end > RUN_LIMIT_S:
            break
    judge(reps, expected)
    return {"workload": workload, "kind": kind, "seed": seed, "reps": reps,
            "expected": expected}


def median_of(reps: list[dict], key: str) -> float | None:
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else None


def workload_metrics(run: dict) -> dict:
    """Every end-to-end metric that applies to the run's workload, with units."""
    untraced = [r for r in run["reps"] if not r.get("traced")]
    metrics = {}
    for name, unit, kinds in END_TO_END:
        value = median_of(untraced, name)
        if run["kind"] in kinds and value is not None:
            metrics[name] = {"value": value, "unit": unit}
    failed = sum(not r["ok"] for r in run["reps"])
    metrics["fail_rate"] = {"value": failed / len(run["reps"]), "unit": "ratio"}
    return metrics


def describe(run: dict) -> list[str]:
    """Human-readable lines: one per repetition, then the medians."""
    lines = []
    for i, rep in enumerate(run["reps"], start=1):
        parts = [f"rep {i}{' traced' if rep.get('traced') else ''}:"]
        parts += [
            f"{name}={rep[name]}" if name == "colours" else f"{name}={rep[name]:.4f}"
            for name, _, _ in END_TO_END
            if name in rep
        ]
        parts.append("ok" if rep["ok"] else "FAILED " + "; ".join(rep["problems"]))
        if rep.get("missing_patch_points"):
            parts.append("(not traced: " + ", ".join(rep["missing_patch_points"]) + ")")
        lines.append(" ".join(parts))
    untraced = sum(not r.get("traced") for r in run["reps"])
    summary = [f"{run['workload']} seed {run['seed']}, median of {untraced} untraced:"]
    for name, metric in workload_metrics(run).items():
        summary.append(f"{name}={metric['value']:.4g} {metric['unit']}")
    digest = "recorded digest" if run["expected"] else "no recorded digest; checked within the run"
    lines.append(" ".join(summary) + f" ({digest})")
    return lines


def end_to_end_metrics(run: dict) -> dict:
    metrics = workload_metrics(run)
    missing = [name for name in COMMON if name not in metrics]
    if missing:
        raise Fatal(f"no repetition measured {', '.join(missing)}: " + describe(run)[0])
    return {name: metrics[name] for name in COMMON}


def per_layer_metrics(run: dict) -> dict:
    from tracer import metric_names

    traced = [r["layers"] for r in run["reps"] if r.get("traced") and "layers" in r]
    untraced = [r for r in run["reps"] if not r.get("traced")]
    if not traced or median_of(untraced, "wall_s") is None:
        raise Fatal("the traced run measured nothing: " + describe(run)[-1])
    metrics = {}
    for name in metric_names():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        if name.endswith("_ratio"):
            unit = "ratio"
        value = statistics.median(layers[name] for layers in traced)
        metrics[name] = {"value": value, "unit": unit}
    overhead = median_of(
        [r for r in run["reps"] if r.get("traced")], "wall_s"
    ) - median_of(untraced, "wall_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def result_line(runs: list[dict], metrics: dict) -> dict:
    reps = [r for run in runs for r in run["reps"]]
    failed = sum(not r["ok"] for r in reps)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the pathfree benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "pathfree" / "__init__.py").is_file():
            raise Fatal(f"no pathfree package under {ROOT / 'src'}")
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if not set(names) <= set(WORKLOADS):
            raise Fatal(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        # bytecode is compiled once, outside every timed repetition
        for tree in (ROOT / "src", HERE):
            compileall.compile_dir(str(tree), quiet=1)
        runs = []
        trace = bool(args.trace) and args.workload != "all"
        for name in names:
            run = measure(name, args.seed, args.seconds, trace, args.smoke)
            print("\n".join(describe(run)), flush=True)
            runs.append(run)
        if args.workload == "all":
            metrics = {
                f"{run['workload']}.{name}": metric
                for run in runs
                for name, metric in workload_metrics(run).items()
            }
        elif trace:
            metrics = per_layer_metrics(runs[0])
        else:
            metrics = end_to_end_metrics(runs[0])
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = result_line(runs, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
