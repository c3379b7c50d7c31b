"""The independent verifier: path search, certificates, verdict logic."""

import hashlib
import json
import random
import time

import networkx as nx
import numpy as np
import pytest

from pathfree import (
    ContractViolation,
    EdgeColouring,
    Graph,
    InternalInvariantError,
    UsageError,
    greedy_vertex_cover,
    monochromatic_components,
    proper_edge_colouring,
    uniform_edges,
    verify,
    verify_colouring,
)
from pathfree.verify import _reconstruct

from conftest import (
    colour_classes,
    colouring_of,
    complete_graph,
    components,
    cycle_graph,
    edge_adjacency,
    has_path_on,
    local_adjacency,
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
    return colouring_of(g.edge_array, [colour] * g.edge_count)


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


def vertex_rows(comp) -> list[tuple[int, int]]:
    """A component's rows in vertex ids, from its local ids."""
    ids, rows = comp.vertices, comp.rows
    return [(ids[u], ids[v]) for u, v in zip(rows[::2], rows[1::2])]


def test_monochromatic_components_by_colour():
    g = Graph.build(6, [(0, 1), (1, 2), (3, 4), (0, 2)])
    col = colouring_of([(0, 1), (1, 2), (3, 4), (0, 2)], [0, 0, 0, 1])
    comps = monochromatic_components(g, col)
    assert {c.vertices for c in comps[0]} == {(0, 1, 2), (3, 4)}
    assert [c.vertices for c in comps[1]] == [(0, 2)]
    assert [vertex_rows(c) for c in comps[0]] == [[(0, 1), (1, 2)], [(3, 4)]]
    assert [c.rows for c in comps[0]] == [(0, 1, 1, 2), (0, 1)]
    for colour, edges in colour_classes(col).items():
        own = [e for c in comps[colour] for e in vertex_rows(c)]
        assert sorted(own) == edges
    with pytest.raises(ContractViolation):
        monochromatic_components(path_graph(3), colouring_of([(4, 5)], [0]))


def random_colouring(rnd: random.Random) -> tuple[Graph, EdgeColouring]:
    """A sparse random graph, most of its edges given one of a few colours."""
    g = random_graph(rnd, n_max=30, density=rnd.choice([0.05, 0.1, 0.2]))
    kept = [e for e in sorted(g.edges) if rnd.random() < 0.9]
    return g, colouring_of(kept, [rnd.randint(0, 4) for _ in kept])


def assert_labels_match_walk(g: Graph, col: EdgeColouring) -> None:
    """Each class's labels, count, orders and components against the
    oracle ``components`` walk, each component's rows and adjacency against
    its walked edges, and :meth:`ColourClass.walk` at every cut-off order."""
    classes = monochromatic_components(g, col)
    walked = {c: list(components(edges)) for c, edges in colour_classes(col).items()}
    assert list(classes) == list(walked)
    for colour, view in classes.items():
        walk = walked[colour]
        assert len(view.orders) == len(walk)
        assert [c.vertices for c in view] == [vs for vs, _ in walk]
        assert [vertex_rows(c) for c in view] == [sorted(es) for _, es in walk]
        assert [c.adjacency for c in view] == [local_adjacency(*c) for c in walk]
        assert [c.neighbours for c in view] == [
            list(map(sorted, local_adjacency(*c))) for c in walk
        ]
        orders = [len(vs) for vs, _ in walk]
        assert view.orders.tolist() == orders
        holder = {v: i for i, (vs, _) in enumerate(walk) for v in vs}
        assert view.labels.tolist() == [holder[v] for v in view.vertices.tolist()]
        assert [view.members(i) for i in range(len(walk))] == [vs for vs, _ in walk]
        for k in {2, *orders, max(orders) + 1}:
            picked = [
                (i, vs, local_adjacency(vs, es))
                for i, (vs, es) in enumerate(walk)
                if len(vs) >= k
            ]
            assert [(i, c.vertices, c.adjacency) for i, c in view.walk(k)] == picked


def shuffled(g: Graph, rnd: random.Random) -> Graph:
    """``g`` with its vertex ids permuted at random."""
    ids = list(range(g.vertex_count))
    rnd.shuffle(ids)
    return Graph.build(g.vertex_count, [(ids[u], ids[v]) for u, v in g.edges])


def long_shapes(n: int) -> list[Graph]:
    """A path, a star of paths and a comb, each on about ``n`` vertices."""
    arm = 12
    star = [(0 if i % arm == 1 else i - 1, i) for i in range(1, n)]
    spine = n // 2
    comb = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return [path_graph(n), Graph.build(n, star), Graph.build(2 * spine, comb)]


def test_array_labels_agree_with_the_walk(rnd):
    for trial in range(200):
        g, col = random_colouring(rnd)
        assert_labels_match_walk(g, col)
    # long shapes whose shuffled ids leave hooking many trees to join
    for n in (2, 3, 50, 301):
        for g in long_shapes(n):
            for h in (g, shuffled(g, rnd), shuffled(g, rnd)):
                assert_labels_match_walk(h, monochrome(h))
                halves = [rnd.randint(0, 1) for _ in range(h.edge_count)]
                assert_labels_match_walk(h, colouring_of(sorted(h.edges), halves))


def test_paths_on_k_minus_one_vertices_are_decided_and_on_k_searched():
    for k in range(3, 12):
        short, long = path_graph(k - 1), path_graph(k)
        for g in (short, long):
            view = monochromatic_components(g, monochrome(g))[0]
            assert view.orders.tolist() == [g.vertex_count]
            assert view.labels.tolist() == [0] * g.vertex_count
            assert_labels_match_walk(g, monochrome(g))
        report = verify_colouring(short, monochrome(short), r=1, k=k)
        assert report.verdict == "pass"
        assert report.per_colour_stats == ((0, 1, k - 1, None),)
        assert report.worst_component == (0, tuple(range(k - 1)))
        report = verify_colouring(long, monochrome(long), r=1, k=k)
        assert report.verdict == "fail" and len(report.witness_path) == k
        assert report.per_colour_stats == ((0, 1, k, k),)


def test_a_long_path_below_k_is_decided_by_its_labels(monkeypatch):
    # a P_40 has diameter 39, yet its labels settle, so at k = 60 it needs
    # no walk; the report is the one that walking every class gave
    g = path_graph(40)
    view = monochromatic_components(g, monochrome(g))[0]
    assert view.orders.tolist() == [40] and view.labels.tolist() == [0] * 40
    assert_labels_match_walk(g, monochrome(g))
    built = count_components_built(monkeypatch)
    report = verify_colouring(g, monochrome(g), r=1, k=60)
    assert report.verdict == "pass" and built == []
    assert report.per_colour_stats == ((0, 1, 40, None),)
    assert report.worst_component == (0, tuple(range(40)))


def report_digest() -> str:
    """SHA-256 of the reports of seeded random colourings, k and caps varied."""
    rnd = random.Random(21)
    records = []
    for trial in range(300):
        g, col = random_colouring(rnd)
        k, cap = rnd.randint(2, 9), rnd.choice([6, 24])
        records.append(verify_colouring(g, col, r=3, k=k, cap=cap).to_record())
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_reports_match_the_walk_only_verifier():
    # pinned from the verifier that walked every class: the label pass must
    # leave every report field as it was
    assert report_digest() == (
        "f65ef4e204f8ee8fb2a772c8c83961f52d5896934c0dd7e53be2193810876789"
    )


def test_fail_verdict_keeps_the_per_colour_break():
    # colour 0 holds a P_5, then by least vertex a larger P_8 that the walk
    # never reaches; colour 1 is a P_4, decided by its labels
    p5 = [(i, i + 1) for i in range(4)]
    p8 = [(i, i + 1) for i in range(10, 17)]
    p4 = [(i, i + 1) for i in range(20, 23)]
    g = Graph.build(24, p5 + p8 + p4)
    col = colouring_of(p5 + p8 + p4, [0] * 11 + [1] * 3)
    report = verify_colouring(g, col, r=2, k=5)
    assert report.verdict == "fail" and report.witness_colour == 0
    assert report.per_colour_stats == ((0, 2, 5, 5), (1, 1, 4, None))
    assert report.worst_component == (0, (0, 1, 2, 3, 4))
    assert report.class_sizes == {0: 11, 1: 3}


def test_interleaved_searched_components_keep_their_indices():
    # one class at k = 4, by least vertex: a K_{1,5} that passes, one edge,
    # a P_7 that fails, and a K_{1,7} never reached, their vertex ids
    # interleaved; the worst component is the P_7 only if the walk gives it
    # index 2, and only if the mask picks the rows of its own label
    star = [(0, leaf) for leaf in (3, 7, 11, 15, 19)]
    walk = [2, 12, 5, 17, 8, 20, 14]
    path = [(min(u, v), max(u, v)) for u, v in zip(walk, walk[1:])]
    big = [(4, leaf) for leaf in (6, 10, 13, 16, 18, 21, 22)]
    rows = sorted(star + [(1, 9)] + path + big)
    g = Graph.build(23, rows)
    view = monochromatic_components(g, monochrome(g))[0]
    assert view.orders.tolist() == [6, 2, 7, 8]
    assert [i for i, _ in view.walk(4)] == [0, 2, 3]
    report = verify_colouring(g, monochrome(g), r=1, k=4)
    assert report.verdict == "fail" and report.witness_path == (17, 5, 12, 2)
    assert report.per_colour_stats == ((0, 4, 7, 4),)
    assert report.worst_component == (0, (2, 5, 8, 12, 14, 17, 20))


def count_components_built(monkeypatch) -> list:
    """The arguments of every ``MonochromaticComponent`` built from now on."""
    built = []

    class Counted(verify.MonochromaticComponent):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(verify, "MonochromaticComponent", Counted)
    return built


def test_matching_classes_build_no_component_objects(monkeypatch):
    built = count_components_built(monkeypatch)
    g = uniform_edges(300, 2000, 5)
    col = proper_edge_colouring(g)
    report = verify_colouring(g, col, r=g.max_degree + 1, k=3)
    assert report.verdict == "pass" and built == []
    assert report.worst_component[1] == tuple(sorted(report.worst_component[1]))
    # a component that needs a search is walked, one object for it alone
    path = path_graph(6)
    verify_colouring(path, monochrome(path), r=1, k=4)
    assert len(built) == 1
    # a P_k among 50 one-edge components of its class: only the P_k is
    # cut, and only its rows reach a component
    k = 7
    ones = [(100 + 2 * i, 101 + 2 * i) for i in range(25)]
    p_k = [(i, i + 1) for i in range(50, 50 + k - 1)]
    rows = ones[:10] + p_k + ones[10:] + [(300 + 2 * i, 301 + 2 * i) for i in range(25)]
    g = Graph.build(400, rows)
    built.clear()
    report = verify_colouring(g, monochrome(g), r=1, k=k)
    assert report.verdict == "fail" and len(report.witness_path) == k
    assert report.per_colour_stats == ((0, 51, k, k),)
    assert len(built) == 1
    vertices, rows = built[0]
    assert vertices == tuple(range(50, 50 + k))
    assert rows == tuple(x for i in range(k - 1) for x in (i, i + 1))


@pytest.mark.parametrize(
    "count, leaves, k, stats, covered",
    [
        # K_{1,5} searched exactly at k = 4
        (10_000, 5, 4, (0, 10_000, 6, 3), ()),
        # K_{1,30}, over the cap of 24, each certified by a one-vertex cover
        (2_000, 30, 10, (0, 2_000, 31, None), ((0, 31, 1),) * 2_000),
    ],
    ids=["exact", "cover"],
)
def test_many_small_searched_components_are_walked_once(
    count, leaves, k, stats, covered
):
    # disjoint stars in one colour, each searched at k: a scan of the
    # class's rows per component would take seconds
    side = leaves + 1
    stars = [(side * s, side * s + i) for s in range(count) for i in range(1, side)]
    g = Graph.build(side * count, stars)
    start = time.perf_counter()
    report = verify_colouring(g, monochrome(g), r=1, k=k)
    assert time.perf_counter() - start < 1.0
    assert report.verdict == "pass"
    assert report.per_colour_stats == (stats,)
    assert report.cover_certified == covered


def test_over_cap_components_take_the_cover_without_breadth_first_lists(monkeypatch):
    # the cover reads the ascending lists: only the exact search needs the
    # breadth-first order
    star = star_graph(30)
    unpatched = verify_colouring(star, monochrome(star), r=1, k=10)
    reads = []
    breadth_first = verify.MonochromaticComponent.adjacency

    def counted(comp):
        reads.append(comp.vertices)
        return breadth_first.fget(comp)

    monkeypatch.setattr(verify.MonochromaticComponent, "adjacency", property(counted))
    report = verify_colouring(star, monochrome(star), r=1, k=10)
    assert reads == []
    assert report == unpatched and report.cover_certified == ((0, 31, 1),)
    path = path_graph(12)  # under the cap: searched, so read once
    assert verify_colouring(path, monochrome(path), r=1, k=10).verdict == "fail"
    assert reads == [tuple(range(12))]


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
        adjacency = local_adjacency(vertices, sorted(g.edges))
        cover = tuple(vertices[i] for i in greedy_vertex_cover(adjacency))
        for u, v in g.edges:
            assert u in cover or v in cover
        assert cover == min_scan_cover(vertices, g.edges)
        for neighbours in adjacency:  # the order of a list changes nothing
            rnd.shuffle(neighbours)
        assert tuple(vertices[i] for i in greedy_vertex_cover(adjacency)) == cover
    star = local_adjacency(range(10), star_graph(9).edges)
    assert greedy_vertex_cover(star) == (0,)
    path = local_adjacency(range(7), path_graph(7).edges)
    assert greedy_vertex_cover(path) == (1, 3, 5)


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
    col = colouring_of([(0, 1), (0, 2), (0, 3), (1, 2)], [0, 0, 0, 1])
    assert verify_colouring(mixed, col, r=2, k=4).verdict == "pass"


def test_witness_paths_are_real_and_monochromatic(rnd):
    for trial in range(120):
        g = random_graph(rnd, n_max=9, density=0.5)
        drawn = {e: rnd.randint(0, 2) for e in g.edges}
        col = colouring_of(list(drawn), list(drawn.values()))
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
        col = colouring_of(list(drawn), list(drawn.values()))
        k = rnd.randint(3, 7)
        report = verify_colouring(g, col, r=2, k=k)
        assert report.verdict in ("pass", "fail")
        bad = any(
            has_path_on(edge_adjacency(edges), k)
            for edges in colour_classes(col).values()
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
    col = colouring_of(big + small, [0] * len(big) + [1] * len(small))
    report = verify_colouring(g, col, r=2, k=6, cap=24)
    assert report.verdict == "fail"
    assert report.witness_colour == 1


def test_partial_colourings_are_reported_not_rejected():
    g = path_graph(5)
    partial = colouring_of([(0, 1), (1, 2)], [0, 0])
    report = verify_colouring(g, partial, r=2, k=5)
    assert not report.covers_all_edges
    assert report.verdict == "pass"  # only 3 vertices carry colour 0
    total = verify_colouring(g, monochrome(g), r=2, k=5)
    assert total.covers_all_edges


def test_budget_flag_and_stats():
    g = path_graph(4)
    col = colouring_of([(0, 1), (1, 2), (2, 3)], [0, 1, 2])
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
    with pytest.raises(UsageError, match="cap"):
        verify_colouring(g, monochrome(g), r=2, k=3, cap=-1)
    # a cap of 0 searches nothing, and one cover vertex certifies a star
    star = star_graph(5)
    report = verify_colouring(star, monochrome(star), r=1, k=4, cap=0)
    assert report.verdict == "pass" and report.cover_certified == ((0, 6, 1),)


def test_repeated_or_unpaired_rows_are_refused():
    # a repeated row would let a colouring with a gap pass as total
    g = path_graph(3)
    twice = colouring_of([(0, 1), (0, 1)], [0, 1])
    with pytest.raises(ContractViolation, match="more than once"):
        verify_colouring(g, twice, r=2, k=3)
    with pytest.raises(ContractViolation, match="one colour per edge"):
        EdgeColouring(g.edge_array, np.zeros(1, dtype=np.int64))


def test_stray_edges_are_refused_naming_the_least():
    g = Graph.build(10, [(1, 5), (2, 3), (4, 9)])
    inside = colouring_of([(1, 5), (2, 3), (4, 9), (6, 8), (3, 7)], [0, 0, 1, 1, 0])
    with pytest.raises(ContractViolation, match=r"e\.g\. \(3, 7\)$"):
        verify_colouring(g, inside, r=2, k=3)
    # (0, 15) would key as 0 * 10 + 15 = 1 * 10 + 5, the real edge (1, 5)
    beyond = colouring_of([(0, 15), (2, 3), (4, 9)], [0, 0, 1])
    with pytest.raises(ContractViolation, match=r"e\.g\. \(0, 15\)$"):
        verify_colouring(g, beyond, r=2, k=3)
