"""Block extraction: greedy assignment, certificates, degree bands."""

import random
from collections import Counter
from functools import partial

import numpy as np
import pytest

from pathfree import (
    ContractViolation,
    Graph,
    UsageError,
    block_partition,
    degree_class_decompose,
    extract_from_densest_band,
    extract_path_free_subgraph,
    greedy_bin_assignment,
    substream,
    uniform_edges,
)
from pathfree import extract
from pathfree.extract import _components_below, _labels_below

from conftest import (
    assert_bands_match_reference,
    block_partition_reference,
    components,
    edge_adjacency,
    greedy_bin_assignment_reference,
    has_path_on,
    path_graph,
    random_graph,
    same_value,
    star_graph,
)


def matching_graph(pairs: int) -> Graph:
    return Graph.build(2 * pairs, [(i, pairs + i) for i in range(pairs)])


def owners(n: int, part_of: dict[int, int]) -> np.ndarray:
    """The owner array of a partial assignment: each vertex's part, else -1."""
    owner = np.full(n, -1)
    owner[list(part_of)] = list(part_of.values())
    return owner


def first(n: int, count: int) -> np.ndarray:
    """The mask of vertices ``0..count-1`` over ``0..n-1``."""
    return np.arange(n) < count


def test_greedy_assignment_follows_neighbour_counts():
    g = star_graph(5)
    parts = greedy_bin_assignment(g, owners(6, {0: 0}))
    assert parts.tolist() == [-1, 0, 0, 0, 0, 0]
    # vertex 0 sees parts 3, 3, 1, 1, 0: the most neighbours, then the lowest
    parts = greedy_bin_assignment(g, owners(6, {1: 3, 2: 3, 3: 1, 4: 1, 5: 0}))
    assert parts.tolist() == [1, -1, -1, -1, -1, -1]


def test_greedy_assignment_ties_go_low():
    square = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    parts = greedy_bin_assignment(square, owners(4, {0: 0, 2: 1}))
    # 1 and 3 each see one neighbour per part; the tie lands in part 0
    assert parts.tolist() == [-1, 0, -1, 0]
    # the lowest index wins even when the A-side numbering runs the other way
    parts = greedy_bin_assignment(square, owners(4, {0: 1, 2: 0}))
    assert parts.tolist() == [-1, 0, -1, 0]
    # vertex 0 sees parts 5, 5, 2, 7, 2, 7 in row order: a three-way tie
    # that the lowest part wins, though part 5 comes first
    parts = greedy_bin_assignment(
        star_graph(6), owners(7, {1: 5, 2: 5, 3: 2, 4: 7, 5: 2, 6: 7})
    )
    assert parts.tolist() == [2, -1, -1, -1, -1, -1, -1]


def test_greedy_assignment_matches_the_oracle_at_scale():
    g = uniform_edges(2000, 40000, 1)
    rng = substream(1, "greedy-scale")
    in_a = rng.random(2000) < 0.5
    a = np.flatnonzero(in_a).tolist()
    part_of = dict(zip(a, rng.integers(0, 300, size=len(a)).tolist()))
    parts = greedy_bin_assignment(g, owners(2000, part_of)).tolist()
    expected = greedy_bin_assignment_reference(g, part_of)
    assert parts == [expected.get(x, -1) for x in range(2000)]


def test_greedy_assignment_isolated_lands_in_part_zero():
    g = Graph.build(5, [(0, 1)])
    parts = greedy_bin_assignment(g, owners(5, {0: 1, 2: 1}))
    assert parts.tolist() == [-1, 1, -1, 0, 0]
    empty = Graph.build(3, [])
    parts = greedy_bin_assignment(empty, owners(3, {0: 2}))
    assert parts.tolist() == [-1, 0, 0]
    # edges inside A and inside B only: no B-vertex has an A-neighbour
    g = Graph.build(6, [(0, 1), (2, 3), (3, 4)])
    parts = greedy_bin_assignment(g, owners(6, {0: 1, 1: 2}))
    assert parts.tolist() == [-1, -1, 0, 0, 0, 0]


def test_greedy_assignment_contract_errors():
    g = star_graph(3)
    # a short owner array and a float one are refused before any indexing
    for owner in (np.full(3, -1), owners(4, {0: 0}).astype(float)):
        with pytest.raises(ContractViolation, match="signed int array over 0..3"):
            greedy_bin_assignment(g, owner)


def reference_part(g: Graph, a_owner: dict, x: int, q: int) -> int:
    """Most neighbours in A, ties to the lowest index, part 0 with none."""
    counts = [0] * q
    for w in edge_adjacency(g.edges).get(x, ()):
        if w in a_owner:
            counts[a_owner[w]] += 1
    return counts.index(max(counts))


def test_block_partition_keeps_only_matched_blocks(rnd):
    for trial in range(60):
        g = random_graph(rnd, n_max=12, density=0.5)
        cut = rnd.randint(1, max(1, g.vertex_count - 1))
        in_a = first(g.vertex_count, cut)
        q = rnd.randint(1, 4)
        split = block_partition(g, in_a, q, substream(trial, "block"))
        assert len(split.a_parts) == len(split.sizes) == q
        assert [len(part) for part in split.a_parts] == split.sizes.tolist()
        owner_a = {v: i for i, part in enumerate(split.a_parts) for v in part.tolist()}
        assert sorted(owner_a) == list(range(cut))
        assert all(split.part[v] == i for v, i in owner_a.items())
        # B is the rest, so every vertex has a part
        assert split.part.dtype == np.int64
        assert ((0 <= split.part) & (split.part < q)).all()
        for x in range(cut, g.vertex_count):
            assert split.part[x] == reference_part(g, owner_a, x, q)
        kept = set(map(tuple, split.kept_edges.tolist()))
        assert len(kept) == len(split.kept_edges) and kept <= g.edges
        for u, v in g.edges:
            in_block = in_a[u] != in_a[v] and split.part[u] == split.part[v]
            assert ((u, v) in kept) == in_block


def test_block_partition_validation():
    g = star_graph(3)
    a = g.vertex_mask({0})
    with pytest.raises(UsageError):
        block_partition(g, a, 0, substream(0, "x"))
    with pytest.raises(ContractViolation, match="boolean masks"):
        block_partition(g, a[:3], 2, substream(0, "x"))
    with pytest.raises(ContractViolation, match="boolean masks"):
        block_partition(g, a.astype(int), 2, substream(0, "x"))


def test_block_partition_matches_reference_oracle():
    rnd = random.Random(5)
    seen = Counter()
    for trial in range(150):
        n = rnd.randint(1, 200)
        m = rnd.randint(0, 4 * n) if n > 1 else 0
        pairs = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(m)}
        g = Graph.build(n, pairs)
        in_a = np.array([rnd.random() < 0.5 for _ in range(n)], dtype=bool)
        a, b = np.flatnonzero(in_a).tolist(), np.flatnonzero(~in_a).tolist()
        q = rnd.choice([1, 2, rnd.randint(1, 40)])
        split = block_partition(g, in_a, q, substream(trial, "oracle"))
        oracle = block_partition_reference(g, in_a, q, substream(trial, "oracle"))
        # the part of every vertex and the kept rows
        assert split.part.tolist() == oracle.part.tolist()
        assert split.in_a.tolist() == oracle.in_a.tolist()
        assert split.sizes.tolist() == oracle.sizes.tolist()
        assert split.kept_edges.tolist() == oracle.kept_edges.tolist()
        assert [p.tolist() for p in split.a_parts] == [
            [v for v in a if oracle.part[v] == i] for i in range(q)
        ]
        # the assignment alone: each B-vertex's part, -1 on A
        part_of = {v: rnd.randrange(q) for v in a}
        parts = greedy_bin_assignment(g, owners(n, part_of)).tolist()
        expected = greedy_bin_assignment_reference(g, part_of)
        assert parts == [expected.get(x, -1) for x in range(n)]
        # tally the cases the oracle comparison must have covered
        adj = edge_adjacency(g.edges)
        for x in b:
            counts = Counter(part_of[w] for w in adj.get(x, ()) if w in part_of)
            top = max(counts.values(), default=0)
            seen["tie"] += sum(1 for c in counts.values() if c == top) > 1
            seen["no A-neighbour"] += not counts
            if x not in adj:  # an isolated vertex off A lands in part 0
                assert split.part[x] == parts[x] == 0
                seen["isolated off A"] += 1
        seen["edge inside b"] += any(not (in_a[u] or in_a[v]) for u, v in g.edges)
        seen["q=1"] += q == 1
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_matching_extraction_is_lossless():
    # one side of a perfect matching as the core: the random half A keeps
    # exactly its own matched edges, every trial, under any part count
    g = matching_graph(6)
    core = first(12, 6)
    result = extract_path_free_subgraph(g, core=core, k=4, trials=50, seed=3)
    assert result.q == 4  # floor(6 * ceil(6/2) / 4)
    assert not result.q_clamped
    assert result.certified
    assert result.crossing_edges == 3
    assert result.subgraph.edge_count == 3
    assert result.mean_edges == 3.0
    matched = {frozenset(e) for e in result.subgraph.edges}
    assert matched <= {frozenset((i, 6 + i)) for i in range(6)}


def selection(result):
    return (
        result.chosen_trial,
        result.certified,
        result.certificate,
        result.subgraph.edge_count,
        result.mean_edges,
    )


def test_extraction_deterministic():
    g = Graph.build(
        14, [(i, j) for i in range(7) for j in range(7, 14) if (i + j) % 3]
    )
    core = first(14, 7)
    one = extract_path_free_subgraph(g, core, k=5, trials=30, seed=8)
    two = extract_path_free_subgraph(g, core, k=5, trials=30, seed=8)
    assert two.subgraph == one.subgraph
    assert two.chosen_trial == one.chosen_trial
    assert two.certificate == one.certificate
    assert two.mean_edges == one.mean_edges
    assert selection(one) == (15, True, "component-order", 9, 322 / 30)
    different = extract_path_free_subgraph(g, core, k=5, trials=30, seed=9)
    assert different.chosen_trial is not None


def test_extraction_selection_is_pinned():
    # the most kept edges among certified trials, the earliest on a tie;
    # the best uncertified trial only when no trial certifies
    g = uniform_edges(60, 600, 2)
    core = first(60, 60)
    uncertified = extract_path_free_subgraph(g, core, k=4, trials=40, seed=5)
    assert selection(uncertified) == (29, False, None, 60, 49.9)
    certified = extract_path_free_subgraph(g, core, k=6, trials=40, seed=5)
    assert selection(certified) == (22, True, "block-path", 44, 55.65)


def test_isolated_vertices_off_the_core_change_no_extraction():
    # B is every vertex off A, so padding joins B; a padded vertex sits on
    # no edge, lands in part 0 and moves neither draw nor any kept edge
    g = uniform_edges(60, 600, 2)
    padded = Graph.build(80, g.edge_array)
    for k in (4, 6):
        plain = extract_path_free_subgraph(g, first(60, 60), k=k, trials=40, seed=5)
        wide = extract_path_free_subgraph(padded, first(80, 60), k=k, trials=40, seed=5)
        assert wide.subgraph.vertex_count == 80
        assert same_value(wide.subgraph.edge_array, plain.subgraph.edge_array)
        assert selection(wide) == selection(plain)
        assert wide.crossing_edges == plain.crossing_edges


def component_oracle(edges, k: int) -> bool:
    return all(len(vs) < k for vs, _ in components(edges))


def relabelled(rnd: random.Random, n: int, edges) -> Graph:
    ids = list(range(n))
    rnd.shuffle(ids)
    return Graph.build(n, [(ids[u], ids[v]) for u, v in edges])


def test_propagation_certificate_matches_component_walk(rnd):
    for k in (4, 5, 7, 10):
        n = 3 * k
        line = [(i, i + 1) for i in range(n - 1)]
        cases = [
            ("path on k-1", path_graph(k - 1), True),  # least id at one end: k-2 rounds
            ("path on k", path_graph(k), False),
            ("long path", path_graph(n), False),  # still unsettled after k-1 rounds
            ("star on k", Graph.build(k, [(0, i) for i in range(1, k)]), False),
            ("empty", Graph.build(n, []), True),
            ("shuffled path on k-1", relabelled(rnd, n, line[: k - 2]), True),
            ("shuffled path on k", relabelled(rnd, n, line[: k - 1]), False),
        ]
        for name, g, certified in cases:
            got = _components_below(g.edge_array, g.vertex_count, k)
            assert got == certified == component_oracle(sorted(g.edges), k), (k, name)
    verdicts = Counter()
    for trial in range(400):
        g = random_graph(rnd, n_max=24, density=rnd.choice([0.03, 0.06, 0.1, 0.2]))
        k = rnd.randint(4, 12)
        got = _components_below(g.edge_array, g.vertex_count, k)
        assert got == component_oracle(sorted(g.edges), k), (trial, k)
        verdicts[got] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_degree_shortcut_agrees_with_the_propagation(rnd):
    # a kept vertex of degree k-1 or more decides the certificate before any
    # propagation; the verdict must be the propagation's own
    def check(edges: np.ndarray, n: int, k: int) -> bool:
        got = _components_below(edges, n, k)
        assert got == _labels_below(edges, n, k)
        assert got == component_oracle(map(tuple, edges.tolist()), k)
        return np.bincount(edges.ravel()).max(initial=0) >= k - 1

    for k in (4, 5, 7, 10):
        assert check(star_graph(k - 1).edge_array, k, k)  # K_{1,k-1}: the shortcut
        for g in (path_graph(k - 1), path_graph(k)):
            assert not check(g.edge_array, g.vertex_count, k)
    shortcuts = 0
    for trial in range(120):
        g = uniform_edges(rnd.randint(20, 60), rnd.randint(30, 200), trial)
        k = rnd.randint(4, 12)
        in_a = np.zeros(g.vertex_count, dtype=bool)
        in_a[rnd.sample(range(g.vertex_count), g.vertex_count // 2)] = True
        q = max(1, 3 * g.vertex_count // k)
        kept = block_partition(g, in_a, q, substream(trial, "kept")).kept_edges
        shortcuts += check(kept, g.vertex_count, k)
    assert 10 < shortcuts < 110  # both paths are taken


def test_certified_extractions_have_no_long_path(rnd):
    hits = 0
    for trial in range(60):
        g = random_graph(rnd, n_max=13, density=0.45)
        if g.edge_count == 0:
            continue
        k = rnd.choice([4, 5, 6])
        n = g.vertex_count
        result = extract_path_free_subgraph(g, core=first(n, n), k=k, trials=25, seed=trial)
        expected_q = max(1, (6 * ((g.vertex_count + 1) // 2)) // k)
        assert result.q == expected_q
        assert result.q_clamped == ((6 * ((g.vertex_count + 1) // 2)) // k < 1)
        if result.certified:
            hits += 1
            assert result.certificate in ("part-size", "block-path", "component-order")
            assert not has_path_on(edge_adjacency(result.subgraph.edges), k)
            assert result.subgraph.edges <= g.edges
    assert hits > 20  # the certifying tiers must fire often at this scale


def test_extraction_validation():
    extract = partial(extract_path_free_subgraph, trials=200, seed=0)
    g = star_graph(4)
    with pytest.raises(ContractViolation, match="empty"):
        extract(g, core=g.vertex_mask([]), k=4)
    hub = g.vertex_mask([0])
    with pytest.raises(UsageError):
        extract(g, core=hub, k=3)
    with pytest.raises(UsageError):
        extract(g, core=hub, k=4, trials=0)
    two = Graph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(ContractViolation):
        # edge (1, 2) avoids the core
        extract(two, core=two.vertex_mask([0]), k=4)
    with pytest.raises(ContractViolation, match=r"edge \(0, 1\) avoids the core"):
        extract(two, core=two.vertex_mask([2]), k=4)
    # the first offending edge in sorted order is named
    strays = Graph.build(6, [(4, 5), (0, 1), (2, 3), (1, 2)])
    core = strays.vertex_mask([0, 1])
    with pytest.raises(ContractViolation, match=r"edge \(2, 3\) avoids the core"):
        extract(strays, core=core, k=4)
    # the core is a boolean mask over exactly 0..n-1
    for bad in (first(7, 2), core.astype(np.int64), [0, 1]):
        with pytest.raises(ContractViolation, match="boolean masks"):
            extract(strays, core=bad, k=4)


def test_decompose_high_floor_leaves_everything_residual():
    g = star_graph(5)
    decomp = degree_class_decompose(g, degree_floor=8)
    assert same_value(decomp.vertex_band, np.zeros(6, dtype=np.int64))
    assert same_value(decomp.row_band, np.zeros(5, dtype=np.int64))


def test_decompose_peels_the_hub_first():
    g = star_graph(20)
    decomp = degree_class_decompose(g, degree_floor=1)
    assert same_value(decomp.vertex_band, first(21, 1).astype(np.int64))
    assert same_value(decomp.row_band, np.ones(20, dtype=np.int64))


def test_decompose_regular_graph_is_one_band():
    square = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    decomp = degree_class_decompose(square, degree_floor=1)
    assert same_value(decomp.vertex_band, np.ones(4, dtype=np.int64))
    assert same_value(decomp.row_band, np.ones(4, dtype=np.int64))


def test_decompose_partitions_edges(rnd):
    # the part arrays against the band-by-band peel with a graph per band,
    # whose pieces partition the edges
    for trial in range(50):
        g = random_graph(rnd, n_max=14, density=0.5)
        for floor in range(1, 5):
            assert_bands_match_reference(g, degree_floor=floor)


def test_decompose_validation():
    g = star_graph(3)
    with pytest.raises(UsageError):
        degree_class_decompose(g, degree_floor=0)


def handed_on(monkeypatch) -> list:
    """Spy on the extraction a banded one runs: the piece and core it gets."""
    seen = []
    real = extract.extract_path_free_subgraph

    def spy(piece, core, k, trials, seed):
        seen.append((piece, core))
        return real(piece, core, k, trials, seed)

    monkeypatch.setattr(extract, "extract_path_free_subgraph", spy)
    return seen


def test_banded_extraction_star_selects_band_and_keeps_all(monkeypatch):
    seen = handed_on(monkeypatch)
    g = star_graph(20)
    banded = extract_from_densest_band(g, r=2, k=4, trials=10, seed=1)
    assert banded.band_level == 1
    # the piece is the band's rows and its core the band's vertices
    decomp = degree_class_decompose(g, 2)
    [(piece, core)] = seen
    assert piece == g.keep(decomp.row_band == 1) and same_value(
        core, decomp.vertex_band == 1
    )
    assert banded.extraction.certified
    assert banded.extraction.q == 1
    assert banded.achieved_ratio == 1  # a star has no 4-vertex path to break
    assert banded.selected_edges == 20


def test_banded_extraction_low_degree_routes_to_residual(monkeypatch):
    seen = handed_on(monkeypatch)
    # degree floor r = 8 swallows a 5-star whole: no bands form
    g = star_graph(5)
    banded = extract_from_densest_band(g, r=8, k=4, trials=20, seed=2)
    assert banded.band_level is None
    assert banded.extraction.certificate != "empty"
    # the residual goes down the same path, at level 0
    decomp = degree_class_decompose(g, 8)
    [(piece, core)] = seen
    assert piece == g.keep(decomp.row_band == 0) and same_value(
        core, decomp.vertex_band == 0
    )
    assert banded.extraction.certified
    assert 0 < banded.achieved_ratio <= 1


def test_every_extraction_split_keeps_an_edge(monkeypatch):
    # why a round needs no abort for an empty extraction: a bipartition of
    # the piece cuts at least half its edges, a cut edge's other end is in
    # B, and B's greedy assignment puts it in a part that holds one of its
    # A-neighbours, so every trial keeps an edge
    kept = []

    def spy(*args):
        split = block_partition(*args)
        kept.append(len(split.kept_edges))
        return split

    monkeypatch.setattr(extract, "block_partition", spy)
    rnd = random.Random(65)
    for _ in range(300):
        n = rnd.randint(4, 60)
        m = rnd.randint(1, min(400, n * (n - 1) // 2))
        g = uniform_edges(n, m, seed=rnd.randrange(1000))
        r, k, trials = rnd.randint(1, 30), rnd.randint(4, 12), rnd.randint(1, 5)
        banded = extract_from_densest_band(
            g, r=r, k=k, trials=trials, seed=rnd.randrange(1000)
        )
        assert banded.extraction.subgraph.edge_count > 0
    assert len(kept) >= 300 and min(kept) > 0


def test_banded_extraction_empty_graph():
    banded = extract_from_densest_band(Graph.build(5, []), r=4, k=5, trials=200, seed=0)
    assert banded.band_level is None
    assert banded.extraction.certificate == "empty"
    assert banded.extraction.certified
    assert banded.achieved_ratio == 0


def test_banded_extraction_validation():
    # the density scale and its reference ratio belong to the command line,
    # whose extract record tests pin them
    band = partial(extract_from_densest_band, trials=200, seed=0)
    g = star_graph(6)
    # r, k and trials are checked before the edgeless shortcut too
    for graph in (g, Graph.build(5, [])):
        with pytest.raises(UsageError, match="r must be positive"):
            band(graph, r=0, k=4)
        with pytest.raises(UsageError, match="k >= 4"):
            band(graph, r=10, k=3)
        with pytest.raises(UsageError, match="trial"):
            band(graph, r=10, k=4, trials=0)
