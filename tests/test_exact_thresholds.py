"""Degree thresholds at their exact boundaries.

Each stage compares integer degrees with an exact rational threshold.  These
cases put a degree exactly on the threshold, or one step to either side of a
band edge, and pin the whole result, so a comparison done in floats or in
wrapping fixed-width integers would show.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from pathfree import (
    Graph,
    degree_class_decompose,
    low_degree_refinement,
    star_refinement,
)
from pathfree.colouring import RefinementResult
from pathfree.extract import BAND_RATIO, Decomposition

from conftest import assert_bands_match_reference, same_value

# degrees 4, 4, 2, 2, 2, 2, 1, 1
MIXED = Graph.build(
    8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (3, 4), (5, 7)]
)


def ints(*values: int) -> np.ndarray:
    """A refinement's row colours or a star refinement's part array: each
    row's or vertex's colour, or -1."""
    return np.array(values, dtype=np.int64)


def test_low_degree_takes_a_vertex_with_seven_times_degree_equal_to_r():
    # r = 14: vertices of degree 2 sit exactly on r/7 and are low
    # every row but (0, 1), the first, is coloured
    expected = RefinementResult(
        colours=ints(-1, 1, 1, 1, 2, 1, 1, 0, 0),
        threshold=Fraction(2),
        vertices_removed=MIXED.vertex_mask({2, 3, 4, 5, 6, 7}),
        degree_bound_ok=True,
        parts=None,
    )
    assert same_value(low_degree_refinement(MIXED, 14), expected)


def test_star_refinement_takes_a_vertex_with_degree_k_s_equal_to_8e():
    # e = 10, k = 8, s = 2: degree 5 is exactly 8e/(ks); degree 4 is below
    two_stars = Graph.build(
        13, [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 11)] + [(11, 12)]
    )
    # the five rows at 0 take colour 0; those at 6 and (11, 12) are left
    expected = RefinementResult(
        colours=ints(*[0] * 5, *[-1] * 5),
        threshold=Fraction(5),
        vertices_removed=two_stars.vertex_mask({0}),
        degree_bound_ok=True,
        parts=ints(0, *[-1] * 12),
    )
    assert same_value(star_refinement(two_stars, 2, 8), expected)
    # K5 with k = 5, s = 4: all five degrees equal 8e/(ks) = 4, and the
    # capacity s * floor(k/3) = 4 leaves the last one out
    k5 = Graph.build(5, combinations(range(5), 2))
    expected = RefinementResult(
        colours=ints(0, 0, 0, 0, 1, 1, 1, 2, 2, 3),
        threshold=Fraction(4),
        vertices_removed=k5.vertex_mask({0, 1, 2, 3}),
        degree_bound_ok=True,
        parts=ints(0, 1, 2, 3, -1),
    )
    assert same_value(star_refinement(k5, 4, 5), expected)


def test_star_refinement_threshold_survives_a_product_beyond_int64():
    # deg * k * s is past 2^63 for every vertex, so every non-isolated vertex
    # is heavy, and floor(k/3) = 10^18 puts them all in the first centre set
    k = 3 * 10**18
    expected = RefinementResult(
        colours=ints(*[0] * MIXED.edge_count),
        threshold=Fraction(8 * 9, k),
        vertices_removed=MIXED.vertex_mask(range(8)),
        degree_bound_ok=True,
        parts=ints(*[0] * 8),
    )
    assert same_value(star_refinement(MIXED, 1, k), expected)


def _star_and_small_star(hub_degree: int, small_degree: int) -> Graph:
    hub_leaves = [(0, i) for i in range(1, hub_degree + 1)]
    small = hub_degree + 1
    small_leaves = [(small, small + 1 + i) for i in range(small_degree)]
    return Graph.build(small + small_degree + 1, hub_leaves + small_leaves)


def test_band_edges_split_degrees_just_above_and_just_below():
    # D = 37: the first band starts at 37 e^-2 = 5.007, just above degree 5
    assert 5 < BAND_RATIO * 37 < 6
    below = _star_and_small_star(37, 5)
    # band 1 is the hub and its 37 rows, band 2 the small star, whose leaves
    # still have degree 1; the hub's leaves are left with none
    expected = Decomposition(
        vertex_band=np.array([1] + [0] * 37 + [2] * 6, dtype=np.int64),
        row_band=np.array([1] * 37 + [2] * 5, dtype=np.int64),
    )
    assert same_value(degree_class_decompose(below, Fraction(1)), expected)
    assert_bands_match_reference(below, Fraction(1))
    # D = 59: the first band starts at 59 e^-2 = 7.985, just below degree 8
    assert 7 < BAND_RATIO * 59 < 8
    above = _star_and_small_star(59, 8)
    # both centres and every row in band 1; bands 2 and 3 are empty
    expected = Decomposition(
        vertex_band=above.vertex_mask({0, 60}).astype(np.int64),
        row_band=np.ones(67, dtype=np.int64),
    )
    assert same_value(degree_class_decompose(above, Fraction(1)), expected)
    assert_bands_match_reference(above, Fraction(1))
