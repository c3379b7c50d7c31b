"""Colour the edges of sparse graphs so no colour class contains a long path.

The package splits into three layers.  ``bins`` and ``checks`` hold the exact
balls-in-bins machinery and the inequality suite behind the randomised
analysis.  ``colouring``, ``extract`` and ``verify`` are the combinatorial
primitives: proper and star edge colourings, banded path-free extraction,
and an exact verifier for small monochromatic components.  ``pipeline`` ties
the primitives into the full shrinking procedure driven by a colour budget
``r`` and a forbidden path on ``k`` vertices.

Path lengths are measured in vertices throughout: a "path on k vertices" has
k - 1 edges, and the guarantee is that no monochromatic component contains
one.
"""

from .bins import (
    BinsStats,
    JointTail,
    MonteCarloEstimate,
    UnifiedBound,
    binomial_tail,
    compute_bins_stats,
    exact_max_load_expectation,
    max_load_expectation_lower_bound,
    max_load_fraction_lower_bound,
    monte_carlo_max_load,
    multinomial_max_expectation,
    t_transform,
    top_two_bins_joint_tail,
)
from .checks import CheckResult, run_all_checks
from .colouring import (
    EdgeColouring,
    RefinementResult,
    low_degree_refinement,
    parse_colouring,
    proper_edge_colouring,
    serialize_colouring,
    star_refinement,
)
from .errors import (
    ContractViolation,
    InternalInvariantError,
    PathfreeError,
    SizeCapError,
    UsageError,
)
from .extract import (
    BandExtraction,
    Decomposition,
    ExtractionResult,
    block_partition,
    degree_class_decompose,
    extract_from_densest_band,
    extract_path_free_subgraph,
    greedy_bin_assignment,
)
from .generators import (
    GENERATOR_MODELS,
    path_union_graph,
    regular_graph,
    star_forest_graph,
    uniform_edges,
)
from .graph import (
    Graph,
    parse_edge_list,
    random_balanced_bipartition,
    serialize_edge_list,
)
from .pipeline import (
    PipelineParams,
    PipelineResult,
    RoundTrace,
    StageRecord,
    audit_round_budgets,
    colour_graph,
    default_density_scale,
    run_round,
)
from .rng import subseed, substream
from .verify import (
    VerificationReport,
    greedy_vertex_cover,
    monochromatic_components,
    verify_colouring,
)

__version__ = "0.1.0"

__all__ = [
    "BandExtraction",
    "BinsStats",
    "CheckResult",
    "ContractViolation",
    "Decomposition",
    "EdgeColouring",
    "ExtractionResult",
    "GENERATOR_MODELS",
    "Graph",
    "InternalInvariantError",
    "JointTail",
    "MonteCarloEstimate",
    "PathfreeError",
    "PipelineParams",
    "PipelineResult",
    "RefinementResult",
    "RoundTrace",
    "SizeCapError",
    "StageRecord",
    "UnifiedBound",
    "UsageError",
    "VerificationReport",
    "audit_round_budgets",
    "binomial_tail",
    "block_partition",
    "colour_graph",
    "compute_bins_stats",
    "default_density_scale",
    "degree_class_decompose",
    "exact_max_load_expectation",
    "extract_from_densest_band",
    "extract_path_free_subgraph",
    "greedy_bin_assignment",
    "greedy_vertex_cover",
    "low_degree_refinement",
    "max_load_expectation_lower_bound",
    "max_load_fraction_lower_bound",
    "monochromatic_components",
    "monte_carlo_max_load",
    "multinomial_max_expectation",
    "parse_colouring",
    "parse_edge_list",
    "path_union_graph",
    "proper_edge_colouring",
    "random_balanced_bipartition",
    "regular_graph",
    "run_all_checks",
    "run_round",
    "serialize_colouring",
    "serialize_edge_list",
    "star_forest_graph",
    "star_refinement",
    "subseed",
    "substream",
    "t_transform",
    "top_two_bins_joint_tail",
    "uniform_edges",
    "verify_colouring",
]
