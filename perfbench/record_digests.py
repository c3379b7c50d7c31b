"""Record the expected output digest of each workload and seed.

    python3 perfbench/record_digests.py --seeds 0..99 [--workload NAME] [--jobs 2]

Runs one untraced repetition per (workload, seed), records no seed whose
outputs fail the gate (and exits 1 after listing them), merges the digests
into ``expected.json`` as they arrive and prints every digest that changed.
The inequality audit's cell counts do not depend on the seed, so it is
recorded once, under ``"any"``.  Rerun it only when an output change is
intended.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE.parent / "src"))
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "rep.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--spawned-ns",
            str(time.monotonic_ns()),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return {"problems": [f"exit {proc.returncode}: {proc.stderr.strip()}"]}
    rep = json.loads(lines[-1])
    if "error" in rep:
        rep["problems"] = [rep["error"]]
    return rep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="LO..HI, inclusive")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    jobs = []
    for workload in args.workload or sorted(WORKLOADS):
        keys = ["any"] if WORKLOADS[workload].kind == "audit" else [str(s) for s in seeds]
        jobs += [(workload, key) for key in keys]

    def record(job: tuple[str, str]) -> tuple[str, str, dict]:
        workload, key = job
        return workload, key, run_one(workload, seeds[0] if key == "any" else int(key))

    failed = []
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for workload, key, rep in pool.map(record, jobs):
            if rep["problems"]:
                failed.append(f"{workload} seed {key}: {rep['problems']}")
                print("FAILED", failed[-1], flush=True)
                continue
            table = expected.setdefault(workload, {})
            old = table.get(key)
            if old is not None and old != rep["digest"]:
                print(f"changed: {workload} {key} {old} -> {rep['digest']}")
            table[key] = rep["digest"]
            _write(expected)
            summary = {k: rep[k] for k in ("wall_s", "colour_s", "verify_s", "colours") if k in rep}
            print(workload, key, json.dumps(summary), flush=True)

    print("\n".join(failed), file=sys.stderr)
    return 1 if failed else 0


def _write(expected: dict) -> None:
    def seed_order(item: tuple[str, str]) -> tuple[int, str]:
        key = item[0]
        return (int(key), "") if key.isdigit() else (-1, key)

    ordered = {
        workload: dict(sorted(expected[workload].items(), key=seed_order))
        for workload in sorted(expected)
    }
    EXPECTED.write_text(json.dumps(ordered, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
