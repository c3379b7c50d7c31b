"""Colouring primitives: properness, class shapes, budgets, serialization."""

import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pathfree import (
    ContractViolation,
    EdgeColouring,
    Graph,
    UsageError,
    low_degree_refinement,
    parse_colouring,
    proper_edge_colouring,
    regular_graph,
    serialize_colouring,
    star_refinement,
    uniform_edges,
)

from conftest import (
    colour_classes,
    colouring_of,
    complete_graph,
    cycle_graph,
    path_graph,
    proper_edge_colouring_reference,
    random_graph,
    split_refinement,
    star_graph,
)


def assert_proper(g: Graph, colouring: EdgeColouring) -> None:
    at_vertex: dict[int, set[int]] = {}
    for (u, v), c in colouring.assignments.items():
        for x in (u, v):
            assert c not in at_vertex.setdefault(x, set()), f"clash at {x}"
            at_vertex[x].add(c)


def test_proper_colouring_known_graphs():
    for g, delta in [
        (path_graph(7), 2),
        (cycle_graph(6), 2),
        (cycle_graph(7), 2),  # odd cycle genuinely needs Delta+1
        (complete_graph(4), 3),
        (complete_graph(6), 5),
    ]:
        col = proper_edge_colouring(g)
        assert col.assignments.keys() == g.edges
        assert_proper(g, col)
        assert col.colours_used <= delta + 1


def test_proper_colouring_random_graphs():
    rnd = random.Random(101)
    for trial in range(200):
        g = random_graph(rnd, n_max=24, density=rnd.choice([0.15, 0.4, 0.8]))
        col = proper_edge_colouring(g)
        assert col.assignments.keys() == g.edges
        assert_proper(g, col)
        assert col.colours_used <= g.max_degree + 1
        if g.edges:
            used = set(col.assignments.values())
            assert used == set(range(min(used), min(used) + len(used)))


def test_proper_colouring_from_zero_and_empty():
    g = path_graph(4)
    col = proper_edge_colouring(g)
    assert sorted(set(col.assignments.values())) == list(range(col.colours_used))
    assert proper_edge_colouring(Graph.build(3, [])).assignments == {}


def test_proper_colouring_matches_sorted_scan_reference():
    # The bitmask fan step must pick the same colours as the sorted scan, so
    # the assignments are equal, not merely both proper.
    rnd = random.Random(808)
    graphs = [
        random_graph(rnd, n_max=30, density=rnd.choice([0.05, 0.15, 0.4, 0.8, 1.0]))
        for _ in range(200)
    ]
    # max degree 70-80: masks wider than one 64-bit machine word
    graphs += [uniform_edges(80, 2600, seed) for seed in range(6)]
    graphs += [star_graph(100), complete_graph(9), complete_graph(70)]
    graphs += [Graph.build(5, []), Graph.build(0, [])]
    assert sum(g.max_degree > 64 for g in graphs) >= 8
    # row-mask subgraphs: isolated vertices and gaps in the ids the colours
    # are read out for
    for seed in range(4):
        g = uniform_edges(90, 900, seed)
        graphs.append(g.keep((g.edge_array % 3 != seed % 3).all(axis=1)))
        graphs.append(g.keep(np.random.default_rng(seed).random(g.edge_count) < 0.1))
    assert all((g.degrees == 0).any() and g.edge_count for g in graphs[-8:])
    # regular graphs: every vertex full, so alternating paths run long
    graphs += [regular_graph(n, d, 1) for n, d in [(40, 5), (61, 6), (100, 9)]]
    graphs += [cycle_graph(10), cycle_graph(11)]
    for i, g in enumerate(graphs):
        expected = proper_edge_colouring_reference(g)
        assert proper_edge_colouring(g) == expected, f"graph {i}"


def test_proper_colouring_inversion_recolours_a_fan_edge():
    # Colouring (1, 3) last: the fan of 1 from 3 is 3, 0, 2 with colours
    # 0 and 2 on (1, 0) and (1, 2); c = 1 is free at 1 and d = 0 at 2.  The
    # 0/1 path 1-0-3 is inverted through inner vertex 0, so fan edge (1, 0)
    # turns 1, and the rotation then shifts it onto (1, 3).
    g = Graph.build(4, [(0, 1), (0, 3), (1, 2), (1, 3)])
    colouring = proper_edge_colouring(g)
    assert colouring == proper_edge_colouring_reference(g)
    assert colouring.assignments == {(0, 1): 2, (0, 3): 0, (1, 2): 0, (1, 3): 1}


def test_proper_colouring_is_pinned_above_one_word():
    # max degree 152, so every mask spans three machine words; the digest was
    # taken from the sorted-scan form that the bitmask form replaced
    g = uniform_edges(300, 20000, 1)
    assert g.max_degree == 152
    colouring = proper_edge_colouring(g)
    assert colouring.colours_used == 153
    text = repr(sorted(colouring.assignments.items()))
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "ceee40a7dd973efdd970d9975ea74b1af6aef0afaf31ab80233f0eee3c2aa527"
    )


def test_low_degree_refinement_large_low_set_matches_reference():
    # 575 of 600 vertices are low, so Misra-Gries colours nearly every edge
    g = uniform_edges(600, 3000, 5)
    result = low_degree_refinement(g, r=105)
    colouring, residual = split_refinement(g, result)
    low = result.vertices_removed
    assert low.sum() == 575 and residual.edge_count > 0
    inner = Graph.build(g.vertex_count, [e for e in g.edges if low[e[0]] and low[e[1]]])
    expected = proper_edge_colouring_reference(inner).assignments
    coloured = colouring.assignments
    assert {e: coloured[e] for e in inner.edges} == expected
    first_range = len(set(expected.values()))
    assert all(
        coloured[e] >= first_range for e in coloured.keys() - inner.edges
    )


def test_low_degree_refinement_split(rnd):
    for trial in range(120):
        g = random_graph(rnd, n_max=16, density=0.5)
        r = rnd.randint(1, 60)
        result = low_degree_refinement(g, r)
        colouring, residual = split_refinement(g, result)
        low = result.vertices_removed
        assert low.dtype == bool
        assert low.tolist() == [7 * g.degree(v) <= r for v in range(g.vertex_count)]
        # residual = edges entirely among high vertices, everything else coloured
        assert result.colours.shape == (g.edge_count,)
        assert residual.edges == {
            e for e in g.edges if not low[e[0]] and not low[e[1]]
        }
        coloured = colouring.assignments
        assert coloured.keys() == g.edges - residual.edges
        assert result.threshold == Fraction(r, 7)
        assert colouring.colours_used <= 2 * (r // 7) + 1


def test_low_degree_refinement_class_shapes(rnd):
    # first range: matchings among low vertices; second: stars whose low
    # endpoints appear once per class
    for trial in range(60):
        g = random_graph(rnd, n_max=14, density=0.5)
        r = rnd.randint(7, 40)
        result = low_degree_refinement(g, r)
        low = result.vertices_removed
        for colour, edges in colour_classes(split_refinement(g, result)[0]).items():
            inner = [e for e in edges if low[e[0]] and low[e[1]]]
            outward = [e for e in edges if low[e[0]] != low[e[1]]]
            assert len(inner) + len(outward) == len(edges)
            assert not (inner and outward)  # ranges do not share colours
            if inner:
                touched: set[int] = set()
                for u, v in inner:
                    assert u not in touched and v not in touched
                    touched.update((u, v))
            if outward:
                low_ends = [u if low[u] else v for u, v in outward]
                assert len(low_ends) == len(set(low_ends))


def test_low_degree_refinement_extremes():
    whole = low_degree_refinement(path_graph(5), r=50)
    assert (whole.colours >= 0).all()
    nothing = low_degree_refinement(complete_graph(5), r=1)
    assert nothing.colours.tolist() == [-1] * 10
    with pytest.raises(UsageError):
        low_degree_refinement(path_graph(3), r=0)


def test_star_refinement_validation():
    g = complete_graph(5)
    with pytest.raises(UsageError):
        star_refinement(g, s=0, k=6)
    with pytest.raises(UsageError):
        star_refinement(g, s=2, k=3)
    empty = star_refinement(Graph.build(4, []), s=3, k=6)
    assert empty.degree_bound_ok
    assert empty.vertices_removed.tolist() == [False] * 4
    assert empty.parts.tolist() == [-1] * 4 and empty.colours.size == 0


def test_star_refinement_postconditions(rnd):
    for trial in range(150):
        g = random_graph(rnd, n_max=18, density=0.5)
        if g.edge_count == 0:
            continue
        s = rnd.randint(1, 6)
        k = rnd.choice([4, 6, 7, 8, 9, 12])
        result = star_refinement(g, s, k)
        colouring, residual = split_refinement(g, result)
        e = g.edge_count
        assert result.colours.shape == (e,)
        assert colouring.colours_used <= s
        assert result.threshold == Fraction(8 * e, k * s)
        # each centre holds one colour (so centre sets are disjoint),
        # and each colour's centres number 1 to k//3 and touch all its edges
        parts = result.parts
        assert parts is not None and parts.dtype == np.int64
        assert (result.vertices_removed | (parts == -1)).all()
        offsets = sorted(set(parts[parts >= 0].tolist()))
        assert offsets == list(range(colouring.colours_used))
        for colour, edges in colour_classes(colouring).items():
            part = parts == colour
            assert 1 <= part.sum() <= k // 3
            for u, v in edges:
                assert part[u] or part[v]
        assert colouring.assignments.keys() | residual.edges == g.edges
        assert not (colouring.assignments.keys() & residual.edges)
        expected_ok = all(
            residual.degree(v) * k * s < 8 * e
            for v in {x for e in residual.edges for x in e}
        )
        assert result.degree_bound_ok == expected_ok
        if k != 5:
            assert result.degree_bound_ok


def test_star_overflow_when_capacity_is_one():
    # K_8 plus a 7-leaf star at vertex 8: nine vertices of degree exactly
    # 8e/(ks), but k=5 gives capacity one centre per colour, so one heavy
    # vertex stays out and its star survives in the residual at threshold
    # degree.  k=6 packs two per colour and absorbs everything.
    edges = list(combinations(range(8), 2)) + [(8, 9 + i) for i in range(7)]
    g = Graph.build(16, edges)
    assert g.edge_count == 35
    tight = star_refinement(g, s=8, k=5)
    assert tight.threshold == 7
    # capacity 8*1, nine heavy
    assert tight.vertices_removed.tolist() == [True] * 8 + [False] * 8
    # every edge at centre 7 is claimed by a lower centre first
    assert tight.parts.tolist() == list(range(7)) + [-1] * 9
    residual = split_refinement(g, tight)[1]
    assert residual.max_degree == residual.degree(8) == 7
    assert not tight.degree_bound_ok
    relaxed = star_refinement(g, s=8, k=6)
    assert relaxed.vertices_removed[8]
    assert (relaxed.colours >= 0).all()
    assert relaxed.degree_bound_ok


def test_star_refinement_colours_contiguous():
    g = complete_graph(9)
    result = star_refinement(g, s=3, k=6)
    colouring = split_refinement(g, result)[0]
    used = sorted(set(colouring.assignments.values()))
    assert used == list(range(colouring.colours_used))


def traced_peak(call):
    """``call()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lean_instance() -> Graph:
    g = uniform_edges(2000, 10000, 1)
    g.degrees  # cached before any trace, as every caller has them
    return g


def test_proper_colouring_stays_lean():
    # the per-vertex colour maps share one int per vertex, and the readout
    # runs after they are dropped
    g = lean_instance()
    _, peak = traced_peak(lambda: proper_edge_colouring(g))
    assert peak < 220 * g.edge_count  # bytes per edge; 293 when every row was a list


def test_serialized_colouring_stays_lean():
    # the text is written a chunk of rows at a time, not from every row
    # string at once
    g = lean_instance()
    colouring = proper_edge_colouring(g)
    colouring.colours_used
    text, peak = traced_peak(lambda: serialize_colouring(g, colouring, r=60, k=5))
    assert peak < 4 * len(text)  # 14 times the text when every row was a string


def test_serialize_round_trip(rnd):
    for trial in range(40):
        g = random_graph(rnd, n_max=10)
        col = proper_edge_colouring(g)
        text = serialize_colouring(g, col, r=9, k=5)
        g2, col2, header = parse_colouring(text)
        assert (g2, col2.assignments) == (g, col.assignments)
        assert header["r"] == 9 and header["k"] == 5
        assert header["colours_used"] == col.colours_used
        assert serialize_colouring(g2, col2, r=9, k=5) == text


def test_serialize_header_shape():
    g = path_graph(3)
    col = colouring_of([(0, 1), (1, 2)], [0, 1])
    text = serialize_colouring(g, col, r=4, k=3)
    assert text.splitlines()[0] == "# n=3 r=4 k=3 colours_used=2"
    # a file written without r and k still parses; the reader supplies them
    _, parsed, header = parse_colouring(text.replace(" r=4 k=3", ""))
    assert parsed == col and header == {"n": 3, "colours_used": 2}
    with pytest.raises(ContractViolation):
        serialize_colouring(g, colouring_of([(0, 1)], [0]), r=4, k=3)


def test_parse_colouring_rejects_bad_rows():
    for text, fragment in [
        ("0 1\n", "u v colour"),
        ("0 1 -2\n", "negative colour"),
        ("0 0 1\n", "loop"),
        ("0 1 0\n1 0 2\n", "duplicate"),
        ("0 1 0\n1 0 2\n0 1\n", "line 2: duplicate edge (0, 1)"),
        ("0 1 0\n1 0 2\n2 2 0\n", "line 2: duplicate edge (0, 1)"),
        ("0 1 0\n0 1\n1 0 2\n", "line 2: expected 'u v colour'"),
        ("# n=2 colours_used=5\n0 1 0\n", "header declares"),
        ("# n=2\n0 3 1\n", "outside"),
        ("# n=2\n0 3 1\n", "line 2"),
        ("# n=-1\n", "header vertex count must be non-negative"),
        ("0 1 9223372036854775808\n", "line 1: colour above 9223372036854775807"),
    ]:
        with pytest.raises(UsageError) as err:
            parse_colouring(text)
        assert fragment in str(err.value)


def test_parse_colouring_empty_text():
    g, col, header = parse_colouring("# n=5\n")
    assert g.vertex_count == 5 and col.assignments == {}
    assert header == {"n": 5}
