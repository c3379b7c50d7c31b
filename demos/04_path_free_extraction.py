#!/usr/bin/env python3
"""
Pulling a certified path-free subgraph out of a dense spot.

The extraction picks the densest degree band, splits its vertices into a
random balanced bipartition, scatters one side into q blocks, and keeps
only the edges that stay inside matched blocks.  A certificate (small
parts, short block paths, or small components) proves the kept subgraph
contains no path on k vertices, so it is safe to spend one colour on it.
"""

import numpy as np

from pathfree import extract_from_densest_band, extract_path_free_subgraph, uniform_edges

g = uniform_edges(60, 480, seed=3)
k = 10
print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges, k = {k}")

# r is the peel's degree floor; a band level of None means the residual
banded = extract_from_densest_band(g, r=16, k=k, trials=200, seed=3)
ex = banded.extraction
selection = "residual" if banded.band_level is None else "band"
print(f"\nband selection: {selection} at level {banded.band_level}, "
      f"{banded.selected_edges}/{g.edge_count} edges "
      f"(achieved ratio {banded.achieved_ratio})")
print(f"extraction: q={ex.q} blocks, certified={ex.certified} "
      f"via {ex.certificate!r} on trial {ex.chosen_trial}")
print(f"kept {ex.subgraph.edge_count} edges out of {ex.crossing_edges} crossing")

# independent check: the kept subgraph really has no path on k vertices
from pathfree import verify_colouring, EdgeColouring

# a graph's rows are sorted, so they are a colouring's rows as they stand
zeros = np.zeros(ex.subgraph.edge_count, dtype=np.int64)
one_colour = EdgeColouring(ex.subgraph.edge_array, zeros)
report = verify_colouring(ex.subgraph, one_colour, r=1, k=k)
print(f"verifier agrees: verdict={report.verdict} "
      f"(largest component spans {report.largest_component[1]} vertices, "
      f"yet no path on {k})")
assert report.verdict == "pass"

# the same machinery on an explicit core, given as a boolean mask over
# 0..n-1; the core must cover every edge, so it is the complement of an
# independent set, taken greedily from the lowest degree up
u, v = g.edge_array.T
blocked = np.zeros(g.vertex_count, dtype=bool)  # a neighbour of a chosen vertex
chosen = []
for x in np.argsort(g.degrees, kind="stable").tolist():
    if not blocked[x]:
        chosen.append(x)
        blocked[v[u == x]] = blocked[u[v == x]] = True
independent = g.vertex_mask(chosen)
core = ~independent
print("\nindependent mask: " + "".join("1" if x else "." for x in independent))
direct = extract_path_free_subgraph(g, core, k=k, trials=200, seed=4)
print(f"direct split on {core.sum()} core vertices: certified={direct.certified}, "
      f"kept {direct.subgraph.edge_count} edges, mean over trials {direct.mean_edges:.1f}")
