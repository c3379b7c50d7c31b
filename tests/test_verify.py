"""The independent verifier: path search, certificates, verdict logic."""

import networkx as nx
import pytest

from pathfree import (
    ContractViolation,
    EdgeColouring,
    Graph,
    InternalInvariantError,
    UsageError,
    greedy_vertex_cover,
    monochromatic_components,
    verify_colouring,
)
from pathfree.verify import _reconstruct

from conftest import (
    complete_graph,
    cycle_graph,
    edge_adjacency,
    has_path_on,
    longest_path_brute,
    path_graph,
    random_graph,
    star_graph,
)


def from_networkx(gx) -> Graph:
    nodes = sorted(gx.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    return Graph.build(len(nodes), [(index[u], index[v]) for u, v in gx.edges])


def monochrome(g: Graph, colour: int = 0) -> EdgeColouring:
    return EdgeColouring.of(g.edge_array, [colour] * g.edge_count)


def assert_longest_path(g: Graph, longest: int) -> None:
    """One colour on every edge of ``g`` fails at k = ``longest``, passes one above."""
    colouring = monochrome(g)
    failed = verify_colouring(g, colouring, r=1, k=longest)
    assert failed.verdict == "fail" and len(failed.witness_path) == longest
    assert verify_colouring(g, colouring, r=1, k=longest + 1).verdict == "pass"


def test_longest_path_known_values():
    assert_longest_path(path_graph(6), 6)
    assert_longest_path(cycle_graph(5), 5)
    assert_longest_path(star_graph(4), 3)
    assert_longest_path(complete_graph(4), 4)
    # the Petersen graph is traceable but not Hamiltonian-cyclic
    assert_longest_path(from_networkx(nx.petersen_graph()), 10)
    # an edgeless graph's longest path is one vertex, or none with no vertex;
    # the verifier takes k >= 2 only, and no class holds a path on 2
    for n, longest in ((3, 1), (0, 0)):
        g = Graph.build(n, [])
        assert longest_path_brute(g) == longest
        assert verify_colouring(g, monochrome(g), r=1, k=2).verdict == "pass"
        with pytest.raises(UsageError):
            verify_colouring(g, monochrome(g), r=1, k=longest)


def test_longest_path_exact_matches_brute(rnd):
    for trial in range(150):
        g = random_graph(rnd, n_max=9, density=rnd.choice([0.2, 0.4, 0.7]))
        if g.edge_count:
            assert_longest_path(g, longest_path_brute(g))
        else:
            assert verify_colouring(g, monochrome(g), r=1, k=2).verdict == "pass"


def test_longest_path_cap_refusal():
    # P_30 is past the cap of 24, and its least cover (15) is too big to
    # certify, so only a cap of 30 searches it
    g = path_graph(30)
    refused = verify_colouring(g, monochrome(g), r=1, k=30, cap=24)
    assert refused.verdict == "indeterminate"
    assert refused.indeterminate_components == ((0, 30),)
    searched = verify_colouring(g, monochrome(g), r=1, k=30, cap=30)
    assert searched.verdict == "fail" and len(searched.witness_path) == 30


def test_reconstruction_off_the_trail_is_an_internal_error():
    # layers that do not lead back to a path can only come from a bug
    with pytest.raises(InternalInvariantError, match="lost its trail"):
        _reconstruct([[1], [0]], [{}, {3: 2}], 3, 2)


def test_monochromatic_components_by_colour():
    g = Graph.build(6, [(0, 1), (1, 2), (3, 4), (0, 2)])
    col = EdgeColouring.of([(0, 1), (1, 2), (3, 4), (0, 2)], [0, 0, 0, 1])
    comps = monochromatic_components(g, col)
    assert {c.vertices for c in comps[0]} == {(0, 1, 2), (3, 4)}
    assert [c.vertices for c in comps[1]] == [(0, 2)]
    assert {c.edge_count for c in comps[0]} == {2, 1}
    for colour, edges in col.colour_classes().items():
        own = [e for c in comps[colour] for e in c.edges]
        assert sorted(own) == edges
    with pytest.raises(ContractViolation):
        monochromatic_components(path_graph(3), EdgeColouring.of([(4, 5)], [0]))


def min_scan_cover(vertices, edges) -> tuple[int, ...]:
    """Greedy cover by a full rescan per pick: most neighbours, then lowest id."""
    local = {v: set() for v in vertices}
    for u, v in edges:
        local[u].add(v)
        local[v].add(u)
    cover = []
    while local and max(len(ns) for ns in local.values()):
        best = min(local, key=lambda v: (-len(local[v]), v))
        cover.append(best)
        for w in local.pop(best):
            local[w].discard(best)
    return tuple(cover)


def test_greedy_cover_covers_and_is_deterministic(rnd):
    for trial in range(80):
        g = random_graph(rnd, n_max=12, density=0.4)
        vertices = tuple(sorted({v for e in g.edges for v in e}))
        cover = greedy_vertex_cover(vertices, g.edges)
        for u, v in g.edges:
            assert u in cover or v in cover
        assert cover == min_scan_cover(vertices, g.edges)
    star = star_graph(9)
    assert greedy_vertex_cover(tuple(range(10)), star.edges) == (0,)
    assert greedy_vertex_cover(tuple(range(7)), path_graph(7).edges) == (1, 3, 5)


def test_single_colour_path_fails_with_witness():
    g = path_graph(5)
    report = verify_colouring(g, monochrome(g), r=3, k=5)
    assert report.verdict == "fail" and not report.accepted
    assert report.witness_colour == 0
    assert report.witness_path is not None and len(report.witness_path) == 5
    walk = list(report.witness_path)
    assert len(set(walk)) == 5
    for a, b in zip(walk, walk[1:]):
        assert (min(a, b), max(a, b)) in g.edges


def test_triangle_and_small_stars():
    triangle = cycle_graph(3)
    assert verify_colouring(triangle, monochrome(triangle), r=1, k=3).verdict == "fail"
    star = star_graph(4)
    assert verify_colouring(star, monochrome(star), r=1, k=3).verdict == "fail"
    assert verify_colouring(star, monochrome(star), r=1, k=4).verdict == "pass"
    # 3-0-1-2 is a path on 4 vertices only if the colours are mixed
    mixed = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    col = EdgeColouring.of([(0, 1), (0, 2), (0, 3), (1, 2)], [0, 0, 0, 1])
    assert verify_colouring(mixed, col, r=2, k=4).verdict == "pass"


def test_witness_paths_are_real_and_monochromatic(rnd):
    for trial in range(120):
        g = random_graph(rnd, n_max=9, density=0.5)
        drawn = {e: rnd.randint(0, 2) for e in g.edges}
        col = EdgeColouring.of(list(drawn), list(drawn.values()))
        k = rnd.randint(3, 6)
        report = verify_colouring(g, col, r=3, k=k)
        for colour, path in report.failures:
            assert len(path) == k and len(set(path)) == k
            for a, b in zip(path, path[1:]):
                edge = (a, b) if a < b else (b, a)
                assert col.assignments[edge] == colour


def test_verdict_agrees_with_reference_oracle(rnd):
    for trial in range(400):
        g = random_graph(rnd, n_max=7, density=rnd.choice([0.3, 0.6]))
        drawn = {e: rnd.randint(0, 1) for e in g.edges}
        col = EdgeColouring.of(list(drawn), list(drawn.values()))
        k = rnd.randint(3, 7)
        report = verify_colouring(g, col, r=2, k=k)
        assert report.verdict in ("pass", "fail")
        bad = any(
            has_path_on(edge_adjacency(edges), k)
            for edges in col.colour_classes().values()
        )
        assert (report.verdict == "fail") == bad


def test_cover_certificate_accepts_giant_star():
    g = star_graph(60)
    report = verify_colouring(g, monochrome(g), r=1, k=4, cap=24)
    assert report.verdict == "pass"
    assert report.cover_certified == ((0, 61, 1),)
    assert report.indeterminate_components == ()


def test_uncoverable_giant_component_is_indeterminate():
    g = path_graph(60)
    report = verify_colouring(g, monochrome(g), r=1, k=6, cap=24)
    assert report.verdict == "indeterminate"
    assert report.indeterminate_components == ((0, 60),)
    assert not report.accepted


def test_fail_outranks_indeterminate():
    # colour 0: a path too large to search exactly; colour 1: a plain P_6
    big = [(i, i + 1) for i in range(59)]
    small = [(100 + i, 101 + i) for i in range(5)]
    g = Graph.build(106, big + small)
    col = EdgeColouring.of(big + small, [0] * len(big) + [1] * len(small))
    report = verify_colouring(g, col, r=2, k=6, cap=24)
    assert report.verdict == "fail"
    assert report.witness_colour == 1


def test_partial_colourings_are_reported_not_rejected():
    g = path_graph(5)
    partial = EdgeColouring.of([(0, 1), (1, 2)], [0, 0])
    report = verify_colouring(g, partial, r=2, k=5)
    assert not report.covers_all_edges
    assert report.verdict == "pass"  # only 3 vertices carry colour 0
    total = verify_colouring(g, monochrome(g), r=2, k=5)
    assert total.covers_all_edges


def test_budget_flag_and_stats():
    g = path_graph(4)
    col = EdgeColouring.of([(0, 1), (1, 2), (2, 3)], [0, 1, 2])
    report = verify_colouring(g, col, r=2, k=4)
    assert report.verdict == "pass"
    assert report.colours_used == 3
    assert not report.colours_within_budget
    assert report.class_sizes == {0: 1, 1: 1, 2: 1}
    assert report.largest_component == (0, 2)
    assert {s[0] for s in report.per_colour_stats} == {0, 1, 2}
    record = report.to_record()
    assert record["verdict"] == "pass" and record["class_sizes"] == {
        "0": 1,
        "1": 1,
        "2": 1,
    }


def test_verify_validation():
    g = path_graph(3)
    with pytest.raises(UsageError):
        verify_colouring(g, monochrome(g), r=2, k=1)
    with pytest.raises(UsageError):
        verify_colouring(g, monochrome(g), r=-1, k=3)


def test_repeated_or_unpaired_rows_are_refused():
    # a repeated row would let a colouring with a gap pass as total
    g = path_graph(3)
    twice = EdgeColouring.of([(0, 1), (0, 1)], [0, 1])
    with pytest.raises(ContractViolation, match="more than once"):
        verify_colouring(g, twice, r=2, k=3)
    with pytest.raises(ContractViolation, match="one colour per edge"):
        EdgeColouring.of([(0, 1), (1, 2)], [0])


def test_stray_edges_are_refused_naming_the_least():
    g = Graph.build(10, [(1, 5), (2, 3), (4, 9)])
    inside = EdgeColouring.of([(1, 5), (2, 3), (4, 9), (6, 8), (3, 7)], [0, 0, 1, 1, 0])
    with pytest.raises(ContractViolation, match=r"e\.g\. \(3, 7\)$"):
        verify_colouring(g, inside, r=2, k=3)
    # (0, 15) would key as 0 * 10 + 15 = 1 * 10 + 5, the real edge (1, 5)
    beyond = EdgeColouring.of([(0, 15), (2, 3), (4, 9)], [0, 0, 1])
    with pytest.raises(ContractViolation, match=r"e\.g\. \(0, 15\)$"):
        verify_colouring(g, beyond, r=2, k=3)
