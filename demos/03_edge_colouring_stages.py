#!/usr/bin/env python3
"""
The three colouring building blocks, shown one at a time.

1. proper_edge_colouring: no two touching edges share a colour, at most
   max_degree + 1 colours on any simple graph.
2. low_degree_refinement: peel every vertex of degree <= r/7, colouring
   the peeled edges with matchings plus small outward star classes.
3. star_refinement: spend s colours on star forests centred at the
   highest-degree vertices, capping the residual maximum degree.

Each block colours from 0; the pipeline places each stage's colours after
the ones spent before it.  A refinement's colours hold one entry per input
row, -1 on the rows it leaves, so its residual is g.keep(colours < 0).  The
refinements report vertex sets as boolean masks over 0..n-1 and the star
centres' colours as a part array (-1 off the centres).
"""

from fractions import Fraction

import numpy as np

from pathfree import (
    Graph,
    low_degree_refinement,
    proper_edge_colouring,
    star_refinement,
    uniform_edges,
)

g = uniform_edges(24, 60, seed=11)
print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges, "
      f"max degree {g.max_degree}")

proper = proper_edge_colouring(g)
print(f"\nproper colouring uses {proper.colours_used} colours "
      f"(max degree + 1 = {g.max_degree + 1})")
for colour in np.unique(proper.colours)[:3].tolist():
    edges = proper.edge_array[proper.colours == colour]
    assert len(np.unique(edges)) == edges.size  # a matching touches distinct ends
    print(f"  colour {colour}: {len(edges)} edges, all vertex-disjoint")

r = 21
low = low_degree_refinement(g, r)
residual = g.keep(low.colours < 0)
print(f"\nlow-degree peel at r={r} (threshold degree {low.threshold}):")
print(f"  peeled {low.vertices_removed.sum()} vertices, "
      f"{g.edge_count - residual.edge_count} edges, {low.colours.max() + 1} colours "
      f"(budget r/3 = {Fraction(r, 3)})")
print(f"  peeled mask over 0..{g.vertex_count - 1}: "
      + "".join("1" if x else "." for x in low.vertices_removed))
print(f"  residual keeps {residual.edge_count} edges between high vertices")

# the star step only fires on vertices that dominate the edge count, so
# plant a hub into a sparse background to watch it work
hub_edges = [(0, v) for v in range(1, 30)]
background = uniform_edges(30, 45, seed=2)
hubbed = Graph.build(  # the rows of both, an edge in both once
    30, np.unique(np.concatenate([background.edge_array, hub_edges]), axis=0)
)
s, k = 3, 9
star = star_refinement(hubbed, s, k)
residual = hubbed.keep(star.colours < 0)
star_colours = star.colours.max() + 1  # colours from 0, -1 on the rows left
print(f"\nstar refinement on a hubbed graph ({hubbed.edge_count} edges, "
      f"hub degree {hubbed.degree(0)}), s={s}, k={k}:")
print(f"  heavy threshold: degree * k * s >= 8 * edges, i.e. degree >= "
      f"{float(star.threshold):.1f}")
print(f"  used {star_colours} colour(s) on centres "
      f"{np.flatnonzero(star.vertices_removed).tolist()}")
print(f"  part array (colour per vertex, -1 off the centres): "
      f"{star.parts.tolist()}")
for colour in range(star_colours):
    print(f"  colour {colour}: centres {np.flatnonzero(star.parts == colour).tolist()} "
          f"(a class may hold up to k//3 = {k // 3} stars)")
print(f"  residual max degree {residual.max_degree} "
      f"(was {hubbed.max_degree}), bound held: {star.degree_bound_ok}")
