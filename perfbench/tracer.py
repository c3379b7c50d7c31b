"""Spans and counters recorded from outside the program.

The tracer replaces public functions of ``pathfree`` modules with wrappers
in the namespace where their callers look them up, records one span per call
(name, start, end, parent) in memory, and restores every original on
``uninstall``.  Counters are read from the objects the wrapped calls return.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# (module the caller looks the name up in, attribute, span name).  A function
# called from several modules is patched in each of them under one name.
PATCH_POINTS = (
    ("pathfree.pipeline", "colour_graph", "pipeline.colour_graph"),
    ("pathfree.pipeline", "run_round", "pipeline.run_round"),
    ("pathfree.pipeline", "extract_from_densest_band", "extract.extract_from_densest_band"),
    ("pathfree.pipeline", "subtract", "graph.subtract"),
    ("pathfree.pipeline", "low_degree_refinement", "colouring.low_degree_refinement"),
    ("pathfree.pipeline", "star_refinement", "colouring.star_refinement"),
    ("pathfree.pipeline", "proper_edge_colouring", "colouring.proper_edge_colouring"),
    ("pathfree.colouring", "proper_edge_colouring", "colouring.proper_edge_colouring"),
    ("pathfree.colouring", "serialize_colouring", "colouring.serialize_colouring"),
    ("pathfree.colouring", "parse_colouring", "colouring.parse_colouring"),
    ("pathfree.extract", "degree_class_decompose", "extract.degree_class_decompose"),
    ("pathfree.extract", "extract_path_free_subgraph", "extract.extract_path_free_subgraph"),
    ("pathfree.extract", "block_partition", "extract.block_partition"),
    ("pathfree.extract", "greedy_bin_assignment", "extract.greedy_bin_assignment"),
    ("pathfree.extract", "random_balanced_bipartition", "graph.random_balanced_bipartition"),
    ("pathfree.extract", "substream", "rng.substream"),
    ("pathfree.bins", "substream", "rng.substream"),
    ("pathfree.checks", "substream", "rng.substream"),
    ("pathfree.verify", "verify_colouring", "verify.verify_colouring"),
    ("pathfree.verify", "monochromatic_components", "verify.monochromatic_components"),
    ("pathfree.verify", "greedy_vertex_cover", "verify.greedy_vertex_cover"),
    ("pathfree.checks", "run_all_checks", "checks.run_all_checks"),
    ("pathfree.checks", "exact_max_load_expectation", "bins.exact_max_load_expectation"),
    ("pathfree.checks", "multinomial_max_expectation", "bins.multinomial_max_expectation"),
    ("pathfree.checks", "monte_carlo_max_load", "bins.monte_carlo_max_load"),
)

LAYERS = ("pipeline", "extract", "graph", "rng", "colouring", "verify", "bins", "checks")

# Spans whose inclusive time, self time or call count is reported.
TIMED = {
    "pipeline.colour_graph": ("s", "self_s"),
    "pipeline.run_round": ("s", "calls"),
    "extract.extract_from_densest_band": ("s", "calls"),
    "extract.degree_class_decompose": ("s",),
    "extract.extract_path_free_subgraph": ("s",),
    "extract.block_partition": ("s", "calls"),
    "extract.greedy_bin_assignment": ("s",),
    "graph.random_balanced_bipartition": ("s", "calls"),
    "graph.subtract": ("s",),
    "rng.substream": ("s", "calls"),
    "colouring.proper_edge_colouring": ("s", "calls"),
    "colouring.low_degree_refinement": ("s",),
    "colouring.star_refinement": ("s", "calls"),
    "colouring.serialize_colouring": ("s",),
    "colouring.parse_colouring": ("s",),
    "verify.verify_colouring": ("s", "self_s"),
    "verify.monochromatic_components": ("s",),
    "verify.greedy_vertex_cover": ("s", "calls"),
    "bins.exact_max_load_expectation": ("s", "calls"),
    "bins.multinomial_max_expectation": ("s", "calls"),
    "bins.monte_carlo_max_load": ("s",),
}

# Inequality checks whose own ``CheckResult.seconds`` is reported.
CHECK_NAMES = ("solver-floor", "closed-form-floor", "schur-transform", "mc-within-error")

COUNTERS = (
    "pipeline.extractions",
    "pipeline.total_colours",
    "extract.certified_ratio",
    "extract.over_limit_ratio",
    "extract.kept_edges_mean",
    "graph.bipartition.tries_mean",
    "verify.components",
    "verify.exact_searched",
    "verify.cover_certified",
    "checks.cells",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = [f"{span}.{kind}" for span, kinds in TIMED.items() for kind in kinds]
    names += [f"checks.{check}.s" for check in CHECK_NAMES]
    names += [f"{layer}.total_s" for layer in LAYERS]
    return names + list(COUNTERS)


def _ratio(num: float, den: float) -> float:
    # a layer that was never reached reports 0 rather than an undefined ratio
    return num / den if den else 0.0


@dataclass
class Tracer:
    """In-memory spans plus the tallies that the returned objects feed."""

    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    tally: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _widest: list[int] = field(default_factory=list)
    _components: list = field(default_factory=list)

    # --- installing and removing wrappers -----------------------------------

    def install(self) -> list[str]:
        """Wrap every patch point that exists; return the ones missing."""
        missing = []
        for module_name, attr, span in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        hook = getattr(self, "_on_" + name.split(".", 1)[1], None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(result)
            return result

        return traced

    # --- counters read from returned objects --------------------------------

    def _add(self, key: str, amount: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def _on_colour_graph(self, result) -> None:
        self._add("extractions", sum(t.extractions for t in result.rounds))
        self._add("total_colours", result.total_colours)

    def _on_block_partition(self, split) -> None:
        self._widest.append(max((len(part) for part in split.a_parts), default=0))
        self._add("trials")
        self._add("kept_edges", len(split.kept_edges))

    def _on_extract_path_free_subgraph(self, result) -> None:
        # trials whose widest A-part breaks 2*max + 1 < k pay the
        # component-order fallback
        self._add("over_limit", sum(1 for w in self._widest if 2 * w + 1 >= result.k))
        self._widest.clear()

    def _on_extract_from_densest_band(self, band) -> None:
        self._add("attempted")
        self._add("certified", int(band.extraction.certified))

    def _on_random_balanced_bipartition(self, bp) -> None:
        self._add("tries", bp.tries)

    def _on_monochromatic_components(self, comps) -> None:
        self._components = [c for cs in comps.values() for c in cs]

    def _on_verify_colouring(self, report) -> None:
        found = self._components
        self._add("components", len(found))
        self._add(
            "exact_searched",
            sum(1 for c in found if report.k <= len(c.vertices) <= report.component_cap),
        )
        self._add("cover_certified", len(report.cover_certified))

    def _on_run_all_checks(self, results) -> None:
        for r in results:
            self.tally[f"check:{r.name}"] = r.seconds
            self._add("cells", r.cells)

    # --- reduction to metrics -----------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and tallies recorded so far."""
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_total = dict.fromkeys(LAYERS, 0.0)
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] = inclusive.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - duration
            # a layer's total counts only its outermost spans
            layer = name.split(".", 1)[0]
            if not self._inside_layer(parent, layer):
                layer_total[layer] += duration

        out: dict[str, float] = {}
        source = {"s": inclusive, "self_s": own, "calls": calls}
        for span, kinds in TIMED.items():
            for kind in kinds:
                out[f"{span}.{kind}"] = source[kind].get(span, 0)
        for check in CHECK_NAMES:
            out[f"checks.{check}.s"] = self.tally.get(f"check:{check}", 0.0)
        for layer in LAYERS:
            out[f"{layer}.total_s"] = layer_total[layer]
        t = self.tally.get
        trials = t("trials", 0)
        out["pipeline.extractions"] = t("extractions", 0)
        out["pipeline.total_colours"] = t("total_colours", 0)
        out["extract.certified_ratio"] = _ratio(t("certified", 0), t("attempted", 0))
        out["extract.over_limit_ratio"] = _ratio(t("over_limit", 0), trials)
        out["extract.kept_edges_mean"] = _ratio(t("kept_edges", 0), trials)
        out["graph.bipartition.tries_mean"] = _ratio(
            t("tries", 0), calls.get("graph.random_balanced_bipartition", 0)
        )
        out["verify.components"] = t("components", 0)
        out["verify.exact_searched"] = t("exact_searched", 0)
        out["verify.cover_certified"] = t("cover_certified", 0)
        out["checks.cells"] = t("cells", 0)
        return out

    def _inside_layer(self, index: int, layer: str) -> bool:
        while index >= 0:
            name, _, _, index = self.spans[index]
            if name.startswith(layer + "."):
                return True
        return False

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end and parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
