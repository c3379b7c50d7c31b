"""The benchmark's workloads: set-up, the timed operation, and its output gate.

Each workload is a pure function of its seed.  ``setup`` builds the input,
``run`` performs the operation a batch caller performs and returns its
outputs with the phase times, and ``gate`` checks those outputs and digests
them.  Calls go through module attributes (``pipeline.colour_graph``, not a
name bound at import), so the tracer's wrappers take effect when installed.

Only public names that survive the ROADMAP are used: no ``threads``, no
private helpers, no test oracles.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import ClassVar

from pathfree import checks, colouring, generators, pipeline, verify

# The outcome fields of each record that the digest covers.  Inputs echoed
# back (``params``) and fields added later (such as timings) stay out, so the
# digest changes only when the colouring or its accounting changes.
PIPELINE_KEYS = ("total_colours", "success", "termination_reason", "endgame_case")
STAGE_KEYS = ("name", "colour_base", "colours_used", "edges_before", "edges_after")
ROUND_KEYS = (
    "round_index",
    "colour_base",
    "edges_before",
    "edges_after",
    "max_degree_before",
    "max_degree_after",
    "extractions",
    "star_colours",
    "colours_spent",
    "extraction_ratios",
    "aborted",
    "abort_reason",
)
REPORT_KEYS = (
    "verdict",
    "colours_used",
    "covers_all_edges",
    "failures",
    "indeterminate_components",
    "cover_certified",
    "worst_component",
    "per_colour_stats",
    "class_sizes",
)


def _pick(record: dict, keys: tuple[str, ...]) -> dict:
    return {key: record[key] for key in keys}


def outcome_digest(text: str, result, report) -> str:
    """SHA-256 of the serialised colouring plus the timing-free records."""
    record = result.to_record()
    outcome = {
        "pipeline": _pick(record, PIPELINE_KEYS),
        "stages": [_pick(s, STAGE_KEYS) for s in record["stages"]],
        "rounds": [_pick(t, ROUND_KEYS) for t in record["rounds"]],
        "report": _pick(report.to_record(), REPORT_KEYS),
    }
    h = hashlib.sha256(text.encode("utf-8"))
    h.update(json.dumps(outcome, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class GraphWorkload:
    """Colour ``uniform_edges(n, m, seed)`` and verify it.

    With ``roundtrip`` the colouring is serialised and parsed back first, as
    ``colour --output`` followed by ``verify --input`` does, and the verifier
    sees only the parsed objects.
    """

    n: int
    m: int
    r: int
    k: int
    beta0: float | None = None
    roundtrip: bool = False
    kind: ClassVar[str] = "graph"

    def setup(self, seed: int):
        return generators.uniform_edges(self.n, self.m, seed)

    def params(self, seed: int) -> pipeline.PipelineParams:
        extra = {} if self.beta0 is None else {"beta0": self.beta0}
        return pipeline.PipelineParams(r=self.r, k=self.k, seed=seed, **extra)

    def run(self, g, seed: int) -> tuple[dict, dict]:
        params = self.params(seed)
        start = time.perf_counter()
        result = pipeline.colour_graph(g, params)
        coloured = time.perf_counter()
        text = parsed = None
        if self.roundtrip:
            text = colouring.serialize_colouring(g, result.colouring, r=self.r, k=self.k)
            parsed = colouring.parse_colouring(text)
            checked_g, checked_colouring, header = parsed
            r, k = header["r"], header["k"]
        else:
            checked_g, checked_colouring, r, k = g, result.colouring, self.r, self.k
        before_verify = time.perf_counter()
        report = verify.verify_colouring(checked_g, checked_colouring, r, k)
        end = time.perf_counter()
        outputs = {"graph": g, "result": result, "report": report, "text": text, "parsed": parsed}
        phases = {
            "wall_s": end - start,
            "colour_s": coloured - start,
            "verify_s": end - before_verify,
        }
        return outputs, phases

    def gate(self, outputs: dict) -> tuple[list[str], str, dict]:
        """Problems found, the output digest, and counters for the summary."""
        g, result, report = outputs["graph"], outputs["result"], outputs["report"]
        problems = []
        if report.verdict != "pass":
            problems.append(f"verdict {report.verdict}")
        audit = pipeline.audit_round_budgets(result)
        if audit:
            problems.append("round budget audit: " + "; ".join(audit))
        if result.colouring.assignments.keys() != g.edges:
            problems.append("colouring does not cover exactly the graph's edges")
        text = outputs["text"]
        if text is None:
            text = colouring.serialize_colouring(g, result.colouring, r=self.r, k=self.k)
        else:
            parsed_g, parsed_colouring, _ = outputs["parsed"]
            if (
                parsed_g.edges != g.edges
                or parsed_colouring.assignments != result.colouring.assignments
            ):
                problems.append("parsed colouring differs from the one written")
        digest = outcome_digest(text, result, report)
        return problems, digest, {"colours": result.total_colours}


@dataclass(frozen=True)
class AuditWorkload:
    """``run_all_checks`` over a ``(q, n)`` grid, as ``check-inequalities`` runs it."""

    q_range: tuple[int, int]
    n_range: tuple[int, int]
    schur_samples: int = 500
    mc_seeds: int = 50
    mc_trials: int = 2000
    kind: ClassVar[str] = "audit"

    def setup(self, seed: int):
        return None

    def run(self, _inputs, seed: int) -> tuple[dict, dict]:
        start = time.perf_counter()
        results = checks.run_all_checks(
            q_range=self.q_range,
            n_range=self.n_range,
            seed=seed,
            schur_samples=self.schur_samples,
            mc_seeds=self.mc_seeds,
            mc_trials=self.mc_trials,
            # looked up now, so a traced run sees its wrapper; the default
            # argument was bound when the module was defined
            expectation=checks.exact_max_load_expectation,
        )
        end = time.perf_counter()
        return {"results": results}, {"wall_s": end - start}

    def gate(self, outputs: dict) -> tuple[list[str], str, dict]:
        results = outputs["results"]
        problems = [f"{r.name}: {r.violations} violations" for r in results if not r.ok]
        cells = {r.name: r.cells for r in results}
        digest = hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()
        return problems, digest, {"cells": cells}


WORKLOADS = {
    "dense-rounds": GraphWorkload(n=400, m=8000, r=36, k=10, beta0=0.5),
    "lowdeg-roundtrip": GraphWorkload(n=4000, m=60000, r=420, k=12, roundtrip=True),
    "inequality-audit": AuditWorkload(q_range=(2, 32), n_range=(1, 32)),
}

# Smoke-sized versions for the benchmark's own tests: each still reaches the
# layers its full-size workload is chosen for.
SMOKE = {
    "dense-rounds": GraphWorkload(n=200, m=3000, r=24, k=8, beta0=0.5),
    "lowdeg-roundtrip": GraphWorkload(n=300, m=1500, r=140, k=12, roundtrip=True),
    "inequality-audit": AuditWorkload(
        q_range=(2, 8), n_range=(1, 8), schur_samples=20, mc_seeds=4, mc_trials=200
    ),
}
