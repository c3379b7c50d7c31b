"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --spawned-ns T
                             [--trace] [--smoke] [--spans FILE]

``--spawned-ns`` is the ``time.monotonic_ns()`` reading taken by the parent
just before it started this process, so ``setup_s`` covers interpreter
start, imports and input generation.  Prints one JSON object on stdout.
Exit status: 0 when the operation ran (its outputs may still fail the gate),
1 when it raised, 3 when ``pathfree`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NO_PACKAGE = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True, dest="spawned_ns")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    try:
        import pathfree  # noqa: F401
    except ImportError as exc:
        print(f"cannot import pathfree from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return NO_PACKAGE
    from tracer import Tracer
    from workloads import SMOKE, WORKLOADS

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    tracer = Tracer() if args.trace else None
    record: dict = {"setup_s": setup_s, "traced": args.trace}
    try:
        if tracer is not None:
            record["missing_patch_points"] = tracer.install()
        try:
            outputs, phases = workload.run(inputs, args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update(phases)
        problems, digest, counters = workload.gate(outputs)
    except Exception as exc:  # a failed repetition is reported, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(record))
        return 1
    record.update(problems=problems, digest=digest, **counters)
    if tracer is not None:
        record["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
