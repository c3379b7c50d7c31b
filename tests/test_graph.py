"""Graph construction, the edge-list format, and the split helpers."""

import random
import warnings
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from pathfree import (
    ContractViolation,
    Graph,
    InternalInvariantError,
    UsageError,
    block_partition,
    parse_colouring,
    parse_edge_list,
    proper_edge_colouring,
    random_balanced_bipartition,
    serialize_colouring,
    serialize_edge_list,
    substream,
    uniform_edges,
    verify_colouring,
)
from pathfree import graph
from pathfree.graph import (
    absent_edges,
    read_edge_rows,
    read_header_fields,
    subtract,
)

from conftest import (
    colouring_of,
    complete_graph,
    components,
    induced_bipartite,
    random_graph,
    serialize_colouring_reference,
    serialize_edge_list_reference,
)


def test_build_canonicalizes_orientation():
    g = Graph.build(4, [(3, 1), (0, 2)])
    assert g.edges == {(1, 3), (0, 2)}
    assert g.edge_array.tolist() == [[0, 2], [1, 3]]


def test_build_sorts_keep_masks_and_equality_compares_arrays():
    g = Graph.build(5, [(2, 4), (0, 3), (0, 1), (1, 2)])
    assert g.edge_array.tolist() == [[0, 1], [0, 3], [1, 2], [2, 4]]
    assert g == Graph.build(5, [(1, 2), (4, 2), (3, 0), (1, 0)])
    assert g != Graph.build(6, [(1, 2), (4, 2), (3, 0), (1, 0)])
    assert g != Graph.build(5, [(1, 2), (4, 2), (3, 0)])
    kept = g.keep(np.array([True, False, False, True]))
    assert kept == Graph.build(5, [(0, 1), (2, 4)])
    assert not kept.edge_array.flags.writeable
    assert g.edge_count == 4  # the parent keeps its rows
    with pytest.raises(TypeError):
        hash(g)


def test_keep_refuses_a_mask_that_is_not_one_boolean_per_row():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    # an index array would repeat and reorder rows, and compress would
    # silently truncate a short mask
    for rows in (
        np.array([2, 0, 0]),
        np.array([True, False]),
        np.array([True, False, True, False]),
        np.array([[True, False, True]]),
    ):
        with pytest.raises(ContractViolation, match="boolean array over 3 rows"):
            g.keep(rows)


def test_build_rejects_bad_edges():
    for edges, message in [
        ([(1, 1)], "loop at vertex 1"),
        ([(0, 3)], "edge (0, 3) has an endpoint outside 0..2"),
        ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        # the first bad pair in input order is named, whatever its fault
        ([(0, 1), (1, 0), (2, 2), (0, 9)], "duplicate edge (0, 1)"),
        ([(0, 1), (2, -1), (1, 0)], "edge (-1, 2) has an endpoint outside 0..2"),
        ([(0, 1), (1, 1), (1, 0)], "loop at vertex 1"),
        ([(0, 2**70)], "an endpoint lies outside int64"),
    ]:
        with pytest.raises(ContractViolation) as err:
            Graph.build(3, edges)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 2), (0,)],  # flattened and re-paired: (0, 1) and (2, 0)
        [(0, 1, 2, 3)],  # re-paired: (0, 1) and (2, 3)
        [(0.5, 1.7)],  # truncated: (0, 1)
        [(0, 2.9)],  # truncated: (0, 2)
        [("1", "2")],  # parsed: (1, 2)
        [(0,)],  # once numpy's bare ValueError
        [3],
        np.array([[0.0, 1.0]]),
        np.array([0, 1]),
        np.array([[0, 1, 2]]),
        np.array([[[0, 1]]]),
        np.array([[0, 1]], dtype=np.uint64),  # could hold ends past int64
        np.array([[True, False]]),
        np.array([["0", "1"]]),
    ],
)
def test_build_refuses_anything_but_pairs_of_two_integer_ends(edges):
    with pytest.raises(ContractViolation):
        Graph.build(4, edges)


def test_build_takes_pairs_of_any_integer_type():
    want = Graph.build(4, [(0, 1), (2, 3)])
    assert Graph.build(4, np.array([[1, 0], [3, 2]], dtype=np.int32)) == want
    assert Graph.build(4, [(np.int64(1), 0), [3, np.uint8(2)]]) == want
    assert Graph.build(4, iter(np.array([[0, 1], [2, 3]]))) == want


def test_build_sorts_its_rows_once(monkeypatch):
    real, calls = graph.row_order, []
    monkeypatch.setattr(graph, "row_order", lambda rows: calls.append(1) or real(rows))
    g = Graph.build(6, [(4, 1), (0, 5), (2, 3), (1, 0)])
    assert g.edge_array.tolist() == [[0, 1], [0, 5], [1, 4], [2, 3]]
    assert calls == [1]


def _first_fault(n, pairs):
    """The index of the first loop, stray id or repeat in ``pairs``, or None."""
    seen = set()
    for i, (u, v) in enumerate(pairs):
        e = (min(u, v), max(u, v))
        if u == v or e[1] >= n or e in seen:
            return i
        seen.add(e)
    return None


def test_build_and_the_text_reader_check_rows_alike():
    # one row check: the same lists pass, giving equal graphs, and a refused
    # list is refused at the pair Graph.build names, on that pair's line
    rnd = random.Random(34)
    refused = 0
    for _ in range(600):
        n = rnd.randint(2, 8)
        distinct = list(combinations(range(n), 2))
        picked = rnd.sample(distinct, rnd.randint(0, min(6, len(distinct))))
        pairs = [rnd.sample(p, 2) for p in picked]
        for _ in range(rnd.choice((0, 0, 1, 1, 2))):
            at = rnd.randint(0, len(pairs))
            u, v = rnd.choice(pairs) if pairs else (0, 1)
            pairs.insert(at, rnd.choice((
                [u, v], [v, u],  # a repeat, maybe reversed
                [u, u],  # a loop
                [u, n + rnd.randrange(3)],  # an id of n or more
            )))
        text = f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        first = _first_fault(n, pairs)
        if first is None:
            assert parse_edge_list(text) == Graph.build(n, pairs)
            continue
        refused += 1
        with pytest.raises(ContractViolation) as built:
            Graph.build(n, pairs)
        with pytest.raises(UsageError) as read:
            parse_edge_list(text)
        u, v = e = tuple(sorted(pairs[first]))
        line = f"line {first + 2}: "  # the header is line 1
        if u == v:
            assert (str(built.value), str(read.value)) == (
                f"loop at vertex {u}", f"{line}loop at vertex {u}"
            )
        elif v >= n:
            assert (str(built.value), str(read.value)) == (
                f"edge {e} has an endpoint outside 0..{n - 1}",
                f"{line}endpoint outside 0..{n - 1}",
            )
        else:
            assert (str(built.value), str(read.value)) == (
                f"duplicate edge {e}", f"{line}duplicate edge {e}"
            )
    assert 150 < refused < 450


def test_degrees_and_neighbours():
    g = Graph.build(5, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3 and g.degree(4) == 0
    assert g.degrees.tolist() == [3, 1, 1, 1, 0]
    assert not g.degrees.flags.writeable
    assert g.max_degree == 3
    assert g.edge_count == 3
    assert Graph.build(0, []).max_degree == 0


def test_parse_plain_rows_infers_vertex_count():
    g = parse_edge_list("0 1\n2 5\n")
    assert g.vertex_count == 6
    assert g.edges == {(0, 1), (2, 5)}


def test_parse_header_comments_and_blanks():
    text = "# generated for a smoke test\n# n=9\n\n0 1   # trailing note\n\n7 3\n"
    g = parse_edge_list(text)
    assert g.vertex_count == 9
    assert g.edges == {(0, 1), (3, 7)}


def test_parse_empty_graph_header_only():
    g = parse_edge_list("# n=4\n")
    assert g.vertex_count == 4 and g.edge_count == 0
    assert parse_edge_list("").vertex_count == 0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0\n", "loop"),
        ("0 1\n1 0\n", "duplicate"),
        ("0 -2\n", "negative"),
        ("# n=3\n0 5\n", "outside"),
        ("0 99999999999999999999\n", "outside"),  # ids must fit the int64 arrays
        ("# n=99999999999999999999\n0 1\n", "at most"),
        ("0 1 2\n", "two integers"),
        ("a b\n", "two integers"),
        ("# n=x\n0 1\n", "bad header"),
        # the first bad line is named, whichever check finds it
        ("0 1\n1 0\n0 1 2\n", "line 2: duplicate edge (0, 1)"),
        ("0 1\n0 1\n2 2\n", "line 2: duplicate edge (0, 1)"),
        ("0 1\n1 0\n0 -1\n", "line 2: duplicate edge (0, 1)"),
        ("0 1\nx y\n1 0\n", "line 2: expected two integers"),
        ("3 4\n4 3\n1 2\n2 1\n", "line 2: duplicate edge (3, 4)"),
    ],
)
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(UsageError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(UsageError) as err:
        parse_edge_list("0 1\n2 2\n")
    assert "line 2" in str(err.value)


def test_serialize_parse_round_trip(rnd):
    for _ in range(50):
        g = random_graph(rnd, n_max=12)
        assert parse_edge_list(serialize_edge_list(g)) == g


@pytest.mark.parametrize(
    "m", [0, 1, graph._WRITE_CHUNK, graph._WRITE_CHUNK + 1, 2 * graph._WRITE_CHUNK + 1]
)
def test_chunked_row_writer_matches_one_join(m):
    # both serialisers write through the one chunked row writer; each text
    # must keep the bytes of building every row before one join
    g = uniform_edges(600, m, m)
    colouring = proper_edge_colouring(g)
    text = serialize_edge_list(g)
    assert text == serialize_edge_list_reference(g)
    assert len(text.splitlines()) == m + 1
    assert parse_edge_list(text) == g
    text = serialize_colouring(g, colouring, r=60, k=5)
    assert text == serialize_colouring_reference(g, colouring, r=60, k=5)
    g2, colouring2, header = parse_colouring(text)
    assert (g2, colouring2) == (g, colouring)
    assert header == {"n": 600, "r": 60, "k": 5, "colours_used": colouring.colours_used}


def test_read_header_first_value_wins():
    fields = read_header_fields("# n=4 r=2\n# n=7\n0 1\n".splitlines(), ("n", "r"))
    assert fields == {"n": 4, "r": 2}


# Tokens that int() and numpy's C integer reader may read differently, and
# separators that split a line, split the text, or are not ASCII.
_ODD_TOKENS = (
    "1_0", "١", "５", "Ǿ", "+5", "-0", "007", "x", "1.0", "1.5", "1e3", "0x1",
    "--1", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999",
)
_SEPARATORS = (" ",) * 40 + ("  ", "\t", "\x1f", "\xa0", "\x0b", "\x0c", "\x1c")


def _fuzz_case(rnd: random.Random) -> tuple[str, int | None, tuple[str, ...]]:
    """A short edge-list or colouring text, clean or with a few faults, and
    the vertex count and extra columns to read it with."""
    extra = rnd.choice(((), ("colour",)))
    n = rnd.randint(4, 9)
    pairs = rnd.sample(list(combinations(range(n), 2)), rnd.randint(0, 6))
    rows = [
        [*map(str, rnd.sample(pair, 2)), *(str(rnd.randrange(4)) for _ in extra)]
        for pair in pairs
    ]
    for _ in range(rnd.choice((0, 0, 0, 1, 1, 2, 3))):
        fault, at = rnd.randrange(9), rnd.randint(0, len(rows))
        data = [row for row in rows if isinstance(row, list)]
        row = rnd.choice(data) if data else ["0", "1", *("0" for _ in extra)]
        col = rnd.randrange(len(row)) if row else 0
        token = row[col] if row else "1"
        if fault == 0:  # a duplicate, maybe reversed
            flip = rnd.random() < 0.5
            rows.insert(at, [*row[1:2], *row[:1], *row[2:]] if flip else list(row))
        elif fault == 1:
            rows.insert(at, [*row[:1], *row[:1], *row[2:]])  # a loop
        elif fault == 2:
            row[col : col + 1] = ["-" + rnd.choice((token, "1"))]
        elif fault == 3:
            row[col : col + 1] = [str(n + rnd.randrange(3))]
        elif fault == 4:  # one token fewer, one more, or both
            del row[col : col + rnd.randint(0, 1)]
            row.extend("3" for _ in range(rnd.randint(0, 1)))
        elif fault == 5:
            row[col : col + 1] = [rnd.choice(_ODD_TOKENS)]
        elif fault == 6:
            row.append(rnd.choice(("#", "# 5 6", "#x")))
        else:  # a blank, comment or whitespace line
            rows.insert(at, rnd.choice(("", "# note", "#n=3", "\t", "\x1f", "\xa0")))
    lines = [
        row if isinstance(row, str)
        else "".join(t + rnd.choice(_SEPARATORS) for t in row).rstrip(" ")
        for row in rows
    ]
    if rnd.random() < 0.3:
        lines.insert(0, f"# n={n}")
    end = rnd.choice(("", "\n", "\r\n"))
    count = rnd.choice((n, n, n, None, None, n - 1, rnd.randrange(-1, 2)))
    return rnd.choice(("\n", "\r\n")).join(lines) + end, count, extra


def _read_outcome(read, lines, count, extra):
    try:
        n, rows, extras = read(lines, count, extra)
    except Exception as err:
        return type(err), str(err)
    return n, rows.dtype, rows.tolist(), extras.dtype, extras.shape, extras.tolist()


def test_row_reader_matches_its_line_loop_on_fuzzed_texts(monkeypatch):
    # the C reader and its array checks must accept exactly what the line
    # loop accepts, with the same rows, and leave every error to the loop
    line_loop = graph._read_rows_by_line
    replays = []

    def by_line(lines, count, extra):  # the replay alone, with its limit
        return line_loop(lines, count, graph._id_limit(count), extra)

    def counted(*args):
        replays.append(args)
        return line_loop(*args)

    monkeypatch.setattr(graph, "_read_rows_by_line", counted)
    rnd = random.Random(20)
    named = [
        ("", None, ()),
        ("# n=4 r=2\n", 4, ("colour",)),
        ("0 1\n1 0\n0 0\n", None, ()),  # a duplicate before a later loop
        ("0 1 2\n2 1 0\n1 2 -3\n", 3, ("colour",)),
        ("0 1\n1١2\n", None, ()),
        ("1_0 2\n+5 -0\n", None, ()),
        ("0 1 9223372036854775807\n", None, ("colour",)),
        ("0 9223372036854775807\n", None, ()),
        ("0\x0b1\n", None, ()),
        ("0 1 # 2 2\n\n\t\n2 3\x1c", None, ()),
    ]
    cases = named + [_fuzz_case(rnd) for _ in range(6000)]
    accepted = 0
    for text, count, extra in cases:
        lines = text.splitlines()
        before = len(replays)
        outcome = _read_outcome(read_edge_rows, lines, count, extra)
        assert outcome == _read_outcome(by_line, lines, count, extra), text
        ok = not isinstance(outcome[0], type)
        assert ok or outcome[0] is UsageError
        accepted += ok and len(replays) == before
    assert accepted > 1500  # the C reader served these without a replay
    assert len(replays) > 1500


def test_clean_text_is_read_without_the_line_loop(monkeypatch, rnd):
    def replayed(*args):
        raise AssertionError("a clean text was read again line by line")

    monkeypatch.setattr(graph, "_read_rows_by_line", replayed)
    texts = [
        "",
        "# n=4\n",
        "# generated\n# n=9\n\n0 1   # trailing note\n\n7 3\n",
        "+5 -0\r\n\t2 007\x0b3 4\x0c\x1c8\x1f9 #\n",
    ]
    texts += [serialize_edge_list(random_graph(rnd, n_max=12)) for _ in range(20)]
    for text in texts:
        parse_edge_list(text)
    g = complete_graph(5)
    colouring = colouring_of(g.edge_array, np.arange(g.edge_count))
    assert parse_colouring(serialize_colouring(g, colouring, 10, 3))[1] == colouring


def test_float_read_as_an_integer_takes_the_line_loop(monkeypatch):
    def lenient(lines, **kwargs):  # how numpy 1.23 to 1.x read "0 1.5"
        warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
        return np.array([[0, 1]])

    monkeypatch.setattr(np, "loadtxt", lenient)
    with pytest.raises(UsageError, match="line 1"):
        read_edge_rows(["0 1.5"], None)


def test_subtract_and_induced_bipartite():
    g = complete_graph(4)
    # the mask of g's rows (0, 1) (0, 2) (0, 3) (1, 2) (1, 3) (2, 3) left
    left = subtract(g, Graph.build(4, [(0, 1), (2, 3)]))
    assert left.tolist() == [False, True, True, True, True, False]
    smaller = g.keep(left)
    assert smaller == Graph.build(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    # the least absent edge is named
    with pytest.raises(ContractViolation, match=r"absent edges, e\.g\. \(0, 1\)"):
        subtract(smaller, Graph.build(4, [(2, 3), (1, 3), (0, 1)]))
    # (0, 6) is no edge of g, though 0 * 4 + 6 == 1 * 4 + 2 would alias (1, 2)
    with pytest.raises(ContractViolation, match=r"e\.g\. \(0, 6\)"):
        subtract(g, Graph.build(8, [(0, 6), (1, 2)]))
    cross = induced_bipartite(g, {0, 1}, {2, 3})
    assert cross.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
    with pytest.raises(ContractViolation):
        induced_bipartite(g, {0, 1}, {1, 2})


def test_subtract_compares_rows_once(monkeypatch):
    g = uniform_edges(50, 300, seed=3)
    h = g.keep(np.arange(g.edge_count) % 3 == 0)
    calls = {"repeats": 0, "absent_edges": 0}

    def counted(name):
        real = getattr(graph, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(graph, name, counted(name))
    rest = subtract(g, h)
    # absent_edges only words the error of a failed subtraction
    assert calls == {"repeats": 1, "absent_edges": 0}
    assert g.keep(rest).edges == g.edges - h.edges


def test_row_comparison_is_exact_for_ids_past_the_key_wrap():
    # at n = 2**62 a u * n + v key of (4, 5) wraps onto that of (0, 5)
    n = 2**62
    g = Graph.build(n, [(0, 5)])
    stray = np.array([[4, 5]])
    assert absent_edges(g, stray) == [(4, 5)]
    with pytest.raises(ContractViolation, match=r"e\.g\. \(4, 5\)"):
        subtract(g, Graph.build(n, [(4, 5)]))
    absent = r"absent from the graph, e\.g\. \(4, 5\)"
    with pytest.raises(ContractViolation, match=absent):
        verify_colouring(g, colouring_of(stray, [0]), r=1, k=3)


def test_edge_array_is_sorted_read_only_and_cached(rnd):
    g = Graph.build(5, [(3, 1), (0, 4), (0, 2)])
    assert g.edge_array.tolist() == [[0, 2], [0, 4], [1, 3]]
    assert g.edge_array.dtype.kind == "i"
    assert g.edge_array is g.edge_array
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 9
    assert Graph.build(3, []).edge_array.shape == (0, 2)
    assert Graph.build(0, []).edge_array.shape == (0, 2)
    for trial in range(30):
        g = random_graph(rnd, n_max=12)
        assert list(map(tuple, g.edge_array.tolist())) == sorted(g.edges)


def test_vertex_mask_marks_ids_and_refuses_others():
    g = complete_graph(4)
    assert g.vertex_mask([2, 0, 2]).tolist() == [True, False, True, False]
    assert g.vertex_mask(np.array([3])).tolist() == [False, False, False, True]
    assert g.vertex_mask(()).tolist() == [False] * 4
    assert Graph.build(0, []).vertex_mask(()).shape == (0,)
    for outside in (4, -1):
        with pytest.raises(ContractViolation, match="outside"):
            g.vertex_mask([0, outside])


def test_block_partition_on_edgeless_graph():
    g = Graph.build(6, [])
    a = g.vertex_mask({0, 1, 2})
    split = block_partition(g, a, 2, substream(0, "edgeless"))
    assert split.kept_edges.shape == (0, 2)
    assert split.part[[3, 4, 5]].tolist() == [0, 0, 0]  # no neighbours: part 0
    assert split.sizes.sum() == 3 and len(split.a_parts) == 2
    assert sorted(v for part in split.a_parts for v in part.tolist()) == [0, 1, 2]


def test_components_match_networkx(rnd):
    for trial in range(200):
        g = random_graph(rnd, n_max=16, density=rnd.choice([0.05, 0.15, 0.3]))
        found = list(components(sorted(g.edges)))
        gx = nx.Graph(list(g.edges))
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(gx))
        assert [vs for vs, _ in found] == expected  # ordered by least vertex
        owned = [e for _, es in found for e in es]
        assert sorted(owned) == sorted(g.edges)  # each edge exactly once
        for vs, es in found:
            assert all(u in vs and v in vs for u, v in es)
    assert list(components([])) == []


def test_random_balanced_bipartition_properties():
    rnd = random.Random(31)
    for trial in range(40):
        g = random_graph(rnd, n_max=12, density=0.5)
        pool = sorted({v for e in g.edges for v in e} or range(g.vertex_count))
        core = g.vertex_mask(pool)
        bp = random_balanced_bipartition(g, core, substream(trial, "split"))
        a = np.flatnonzero(bp.in_a).tolist()
        assert bp.in_a.shape == (g.vertex_count,)
        assert len(a) == (len(pool) + 1) // 2 and set(a) <= set(pool)
        direct = sum(1 for u, v in g.edges if (u in a) != (v in a))
        assert bp.crossing_edges == direct
        assert 2 * bp.crossing_edges >= g.edge_count


def test_random_balanced_bipartition_draws_as_a_sorted_choice():
    # the side is the draw that rng.choice makes over the core's sorted ids
    g = complete_graph(9)
    core = g.vertex_mask([8, 1, 4, 2, 7, 5])
    bp = random_balanced_bipartition(g, core, substream(4, "draw"))
    rng = substream(4, "draw")
    drawn = []
    for _ in range(bp.tries):
        drawn = sorted(rng.choice(np.flatnonzero(core), size=3, replace=False).tolist())
    assert np.flatnonzero(bp.in_a).tolist() == drawn


def test_random_balanced_bipartition_failure_is_internal():
    # core = an isolated vertex: no draw can ever cut half of the edges
    g = Graph.build(4, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(InternalInvariantError):
        random_balanced_bipartition(g, g.vertex_mask([0]), substream(0, "hopeless"))
    with pytest.raises(ContractViolation, match="empty"):
        random_balanced_bipartition(g, g.vertex_mask([]), substream(0, "empty"))
    # the core is a boolean mask over exactly 0..n-1: not ids, short or 2-D
    ids, short, flat = np.array([0, 1]), np.ones(3, dtype=bool), np.ones(4, dtype=bool)
    for core in (ids, ids.astype(bool), short, flat.reshape(1, 4), flat.astype(int)):
        with pytest.raises(ContractViolation, match="boolean masks"):
            random_balanced_bipartition(g, core, substream(0, "bad"))


def test_row_ids_number_distinct_rows_in_row_order(rnd):
    big = 2**62  # ids that a u * n + v key would wrap
    for trial in range(50):
        rows = np.array(
            [[rnd.choice([0, 3, big]), rnd.randint(0, 4)] for _ in range(rnd.randint(0, 30))],
            dtype=np.int64,
        ).reshape(-1, 2)
        ids, distinct = graph.row_ids(rows)
        expected = sorted(set(map(tuple, rows.tolist())))
        assert list(map(tuple, distinct.tolist())) == expected
        assert ids.tolist() == [expected.index(tuple(r)) for r in rows.tolist()]
        assert np.array_equal(distinct[ids], rows)


def lexsorted(rows: np.ndarray) -> np.ndarray:
    """The stable two-key sort that ``graph.row_order`` must reproduce."""
    return np.lexsort((rows[:, 1], rows[:, 0]))


def assert_row_order_is_lexsort(rows: np.ndarray) -> None:
    expected = lexsorted(rows)
    order = graph.row_order(rows)
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


def test_row_order_is_the_stable_lexsort():
    gen = np.random.default_rng(2024)
    # equal rows keep their input order
    rows = np.array([[1, 1], [0, 0], [1, 1], [0, 2], [0, 0], [1, 1]])
    assert graph.row_order(rows).tolist() == [1, 4, 3, 0, 2, 5]
    assert_row_order_is_lexsort(rows)
    for rows in (np.empty((0, 2), dtype=np.int64), np.array([[3, 1]]), np.array([[-4, -9]])):
        assert_row_order_is_lexsort(rows)
    for _ in range(60):
        # few distinct values, so most rows repeat; some ids negative, as
        # Graph.build sorts rows before it checks their signs
        lo, hi = sorted(gen.integers(-40, 40, size=2).tolist())
        rows = gen.integers(lo, hi + 1, size=(int(gen.integers(2, 400)), 2))
        assert_row_order_is_lexsort(rows)
    big = 2**62  # the keys cannot fit; the rows are lexsorted
    rows = gen.choice(np.array([0, 3, big, -big]), size=(200, 2))
    assert_row_order_is_lexsort(rows)
    rows = np.sort(gen.integers(0, 4000, size=(60000, 2)), axis=1)
    assert_row_order_is_lexsort(rows)
    assert_row_order_is_lexsort(rows[lexsorted(rows)])
    assert_row_order_is_lexsort(rows.astype(np.int32))  # its key would wrap in int32


def test_row_order_packs_keys_up_to_two_to_the_63(monkeypatch):
    real = np.lexsort
    calls = []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
    # u spans 2**30 ids, v spans 2**31, m = 4: the last row's key is
    # ((2**30 - 1) * 2**31 + 2**31 - 1) * 4 + 3 = 2**63 - 1
    u, v = 2**30 - 1, 2**31 - 1
    assert (u * 2**31 + v) * 4 + 3 == 2**63 - 1
    fits = np.array([[5, 9], [0, 3], [0, 0], [u, v]])
    assert graph.row_order(fits).tolist() == [2, 1, 0, 3]
    assert calls == []
    past = fits.copy()
    past[3, 1] += 1  # v spans 2**31 + 1 ids: the last key would be past 2**63 - 1
    assert graph.row_order(past).tolist() == [2, 1, 0, 3]
    assert calls == [1]
    shifted = fits - 2**31  # the key counts from the least ids, so it still fits
    assert graph.row_order(shifted).tolist() == [2, 1, 0, 3]
    assert calls == [1]


def test_workload_graphs_sort_and_parse_without_lexsort(monkeypatch):
    # a fit test that always fell back would silently lose the packed sort
    def refuse(keys):
        raise AssertionError("row_order fell back to np.lexsort")

    for seed in (1, 2):
        monkeypatch.setattr(np, "lexsort", refuse)
        g = uniform_edges(4000, 60000, seed)
        shuffled = g.edge_array[np.random.default_rng(seed).permutation(g.edge_count)]
        assert Graph.build(g.vertex_count, shuffled) == g
        assert parse_edge_list(serialize_edge_list(g)) == g
        monkeypatch.undo()
        assert_row_order_is_lexsort(shuffled)
