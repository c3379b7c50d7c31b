"""Seeded graph generators: shape, determinism, feasibility guards."""

import hashlib
import random

import pytest

from pathfree import (
    GENERATOR_MODELS,
    UsageError,
    path_union_graph,
    regular_graph,
    star_forest_graph,
    uniform_edges,
)

from conftest import edge_adjacency, uniform_edges_reference


def test_uniform_edges_counts_and_determinism():
    g = uniform_edges(50, 300, seed=3)
    assert g.vertex_count == 50
    assert g.edge_count == 300
    assert all(0 <= u < v < 50 for u, v in g.edges)
    again = uniform_edges(50, 300, seed=3)
    assert again.edges == g.edges
    other = uniform_edges(50, 300, seed=4)
    assert other.edges != g.edges


def test_uniform_edges_extremes():
    assert uniform_edges(10, 0, seed=0).edge_count == 0
    full = uniform_edges(6, 15, seed=0)
    assert full.edge_count == 15  # forced to K_6
    with pytest.raises(UsageError):
        uniform_edges(6, 16, seed=0)
    with pytest.raises(UsageError):
        uniform_edges(-1, 0, seed=0)


def test_uniform_edges_spread():
    # same seed, growing m: counts honoured across a sweep
    for m in (1, 10, 100, 1000):
        g = uniform_edges(80, m, seed=12)
        assert g.edge_count == m


def test_sparse_uniform_edges_match_one_draw_at_a_time():
    # 3000 vertices hold 4 498 500 pairs, past the dense regime's 4 000 000
    for n, m, seed in [(3000, 0, 1), (3000, 1, 2), (3000, 5000, 3), (2**40, 300, 4)]:
        assert uniform_edges(n, m, seed) == uniform_edges_reference(n, m, seed)


def test_regular_graph_is_regular():
    rnd = random.Random(0x5EED)
    for _ in range(25):
        n = rnd.randrange(4, 40)
        d = rnd.randrange(1, n)
        if (n * d) % 2:
            d -= 1
        if d < 1:
            continue
        g = regular_graph(n, d, seed=rnd.randrange(10**6))
        assert g.vertex_count == n
        degrees = [g.degree(v) for v in range(n)]
        assert degrees == [d] * n
        assert all(u != v for u, v in g.edges)


def test_regular_graph_determinism_and_guards():
    a = regular_graph(20, 6, seed=5)
    b = regular_graph(20, 6, seed=5)
    assert a.edges == b.edges
    with pytest.raises(UsageError):
        regular_graph(5, 3, seed=0)  # odd stub total
    with pytest.raises(UsageError):
        regular_graph(5, 5, seed=0)  # d must stay below n
    assert regular_graph(7, 0, seed=0).edge_count == 0
    assert regular_graph(0, 0, seed=0).vertex_count == 0


@pytest.mark.parametrize(
    "n,d,seed,digest",
    [
        (12, 3, 0, "8a817db3fb8cf9eae741c5ecc2d17e50caf18be36f3a374c25328bb71187a67e"),
        (20, 17, 5, "5e655bacec4be82c3e1891c0761bff1ad53585f0a5293fd65d81bd4e349dc17a"),
        (100, 5, 1, "e7fe2ac391d482cd92d87d93b6ed37b93baa649f41b9ac99a351e009c76c9b9f"),
        (301, 4, 2, "19fd8b4a42864bacd4616dcdd1880d887305f646f63cd418df5984c35ffe7ad7"),
        (500, 60, 3, "348cd2d169e3968ecf1e64ec901b178cc481e8ffcdc554d713f7b64f0a9ee610"),
        (3000, 20, 4, "64533e0438335cea9a4efab16e091128a5b703cddb712d740be0eb6b907fadca"),
    ],
)
def test_regular_graph_edges_are_pinned(n, d, seed, digest):
    # the swap repair draws a bad pair by its rank among the ascending bad
    # indices, so keeping that set in another order changes the graph here
    g = regular_graph(n, d, seed)
    assert hashlib.sha256(g.edge_array.tobytes()).hexdigest() == digest


def test_star_forest_shape():
    g = star_forest_graph(14, 3, seed=0)
    # 14 // 4 = 3 full stars, 2 isolated leftovers
    assert g.edge_count == 9
    adj = edge_adjacency(g.edges)
    centres = [v for v in adj if len(adj[v]) == 3]
    leaves = [v for v in adj if len(adj[v]) == 1]
    assert sorted(centres) == [0, 4, 8]
    assert len(leaves) == 9
    assert g.degree(12) == 0 and g.degree(13) == 0
    with pytest.raises(UsageError):
        star_forest_graph(10, 0, seed=0)


def test_path_union_shape():
    g = path_union_graph(11, 4, seed=0)
    # two P_4 blocks, 3 leftovers
    assert g.edge_count == 6
    assert (0, 1) in g.edges and (6, 7) in g.edges
    assert (3, 4) not in g.edges
    adj = edge_adjacency(g.edges)
    assert all(len(adj[v]) <= 2 for v in adj)
    with pytest.raises(UsageError):
        path_union_graph(10, 1, seed=0)


def test_model_registry():
    assert set(GENERATOR_MODELS) == {
        "uniform-m",
        "d-regular",
        "star-forest",
        "path-union",
    }
    assert GENERATOR_MODELS["uniform-m"] is uniform_edges
    g = GENERATOR_MODELS["path-union"](8, 4, seed=1)
    assert g.edge_count == 6
