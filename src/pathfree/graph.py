"""Simple undirected graphs on vertices ``0..n-1``.

A :class:`Graph` is one thing: its sorted, read-only ``(m, 2)`` edge array of
canonical ``u < v`` rows.  :meth:`Graph.build` is the one constructor from
pairs; ``Graph(n, rows)`` and ``g.keep(row_mask)`` take rows already sorted.
The frozenset ``edges`` is built only when read; the colouring run path never does.

The module also owns how edge rows are checked (:func:`_checked_rows`, for
``Graph.build`` and the row reader), sorted (:func:`row_order`), compared
(:func:`repeats`) and numbered (:func:`row_ids`), exactly for every int64 id;
the one row reader of the text formats (:func:`read_edge_rows`); and the one
rule that turns a result dataclass into its JSON record (:func:`plain_record`).

The row sort packs each row and its index into one int64 key,
``((u - min u) * span + (v - min v)) * m + index`` with
``span = max v - min v + 1``, and sorts the keys once; every key is
distinct, so the order is the stable two-key lexsort's.  Rows whose keys
could pass ``2**63 - 1``, that is when
``(max u - min u + 1) * span * m > 2**63``, are lexsorted instead.

A parse splits its text into lines once; the header and the rows are read
from that one list.  The row reader takes the data rows through numpy's C
reader and checks them with the one row check; on any fault it replays the
lines through a per-line loop, so every error names the first bad line as
that loop words it.  It returns the rows already sorted, so a parsed graph
or colouring needs no second sort.
"""

from __future__ import annotations

import operator
import warnings
from array import array
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ContractViolation, InternalInvariantError, UsageError

__all__ = [
    "Graph",
    "Bipartition",
    "parse_edge_list",
    "serialize_edge_list",
    "subtract",
    "random_balanced_bipartition",
]

Edge = tuple[int, int]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable graph: sorted, distinct ``u < v`` rows; equal by value, unhashable."""

    vertex_count: int
    edge_array: np.ndarray

    def __post_init__(self) -> None:
        self.edge_array.flags.writeable = False

    @staticmethod
    def build(vertex_count: int, edges: Iterable[Edge] | np.ndarray) -> "Graph":
        """The one constructor from pairs: pairs of two int ends or the rows of
        an ``(m, 2)`` integer array, in any order and orientation.  Bad input,
        loops, duplicates and stray ids are errors naming the first bad pair in
        input order."""
        if vertex_count < 0:
            raise ContractViolation("vertex_count must be non-negative")
        if isinstance(edges, np.ndarray):
            ints = edges.dtype.kind in "iu" and np.can_cast(edges.dtype, np.int64)
            if not ints or edges.ndim != 2 or edges.shape[1] != 2:
                raise ContractViolation("edge arrays must be (m, 2) ints within int64")
            pairs = edges.astype(np.int64, copy=False)
        else:
            try:
                ends = [(operator.index(u), operator.index(v)) for u, v in edges]
                pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
            except OverflowError:
                raise ContractViolation("an endpoint lies outside int64") from None
            except (TypeError, ValueError):  # not a pair, or an end not an int
                raise ContractViolation("each edge must be two integer ends") from None
        _, rows, bad = _checked_rows(pairs, vertex_count)
        if bad.any():
            u, v = e = tuple(sorted(pairs[bad.argmax()].tolist()))
            if u == v:
                raise ContractViolation(f"loop at vertex {u}")
            if u < 0 or v >= vertex_count:
                raise ContractViolation(
                    f"edge {e} has an endpoint outside 0..{vertex_count - 1}"
                )
            raise ContractViolation(f"duplicate edge {e}")
        return Graph(vertex_count, rows)

    def keep(self, rows: np.ndarray) -> "Graph":
        """The graph on the same vertices with the edges at ``rows`` (a row mask).

        ``rows`` must be a boolean array with one entry per row: an index
        array could repeat or reorder rows, and a short mask would drop rows.
        """
        rows = np.asarray(rows)
        if rows.shape != (self.edge_count,) or rows.dtype != bool:
            raise ContractViolation(
                f"the row mask must be a boolean array over {self.edge_count} rows"
            )
        return Graph(self.vertex_count, self.edge_array.compress(rows, axis=0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(
            self.edge_array, other.edge_array
        )

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as a frozenset of pairs, built on first read."""
        return frozenset(map(tuple, self.edge_array.tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Each vertex's degree, as a read-only array over ``0..n-1``."""
        deg = np.bincount(self.edge_array.ravel(), minlength=self.vertex_count)
        deg.flags.writeable = False
        return deg

    def vertex_mask(self, vertices: Iterable[int]) -> np.ndarray:
        """Boolean membership array over ``0..n-1``; other ids are an error."""
        if isinstance(vertices, np.ndarray):
            ids = vertices.astype(np.int64, copy=False)
        else:
            ids = np.fromiter(vertices, dtype=np.int64)
        if ids.size and not (0 <= ids.min() and ids.max() < self.vertex_count):
            raise ContractViolation(f"vertex outside 0..{self.vertex_count - 1}")
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[ids] = True
        return mask

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))


def row_order(rows: np.ndarray) -> np.ndarray:
    """The stable order that sorts ``(m, 2)`` rows by first, then second entry.

    This is the one row sort: graphs, colourings, :func:`repeats` and
    :func:`row_ids` use it.  Each row ``(u, v)`` at index ``i`` is packed
    into one int64 key ``((u - min u) * span + (v - min v)) * m + i``, with
    ``span = max v - min v + 1``; one ``np.sort`` of the keys and
    ``key % m`` give the order.  No two keys are equal, so this is exactly
    the stable lexsort order under any sort kind.  The keys fit when
    ``(max u - min u + 1) * span * m <= 2**63`` (checked in Python ints);
    otherwise, which needs ids more than about ``2**31`` apart, the rows go
    through ``np.lexsort``.
    """
    m = len(rows)
    if m < 2:
        return np.arange(m)
    u, v = rows.astype(np.int64, copy=False).T
    lo_u, lo_v = int(u.min()), int(v.min())
    span = int(v.max()) - lo_v + 1
    if (int(u.max()) - lo_u + 1) * span * m > 2**63:
        return np.lexsort((rows[:, 1], rows[:, 0]))
    key = ((u - lo_u) * span + (v - lo_v)) * m + np.arange(m)
    key.sort()
    return key % m


def _ranked(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``row_order(rows)``, the rows in that order, and the mask, in that
    order, of the rows equal to the one before them."""
    order = row_order(rows)
    ranked = rows[order]
    same = np.zeros(len(rows), dtype=bool)
    u, v = ranked[:, 0], ranked[:, 1]
    same[1:] = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    return order, ranked, same


def _checked_rows(pairs: np.ndarray, limit: int) -> tuple[np.ndarray, ...]:
    """The one check of edge rows: the :func:`row_order` of the ``(m, 2)``
    int64 pairs with their ends put in order, the rows in that order, and
    the mask, in input order, of loops, ends outside ``0..limit-1`` and
    repeats of an earlier row."""
    rows = np.empty((len(pairs), 2), dtype=np.int64)
    lo, hi = rows.T  # filled in place: cheaper than a sort per row or a stack
    np.minimum(pairs[:, 0], pairs[:, 1], out=lo)
    np.maximum(pairs[:, 0], pairs[:, 1], out=hi)
    bad = (lo == hi) | (lo < 0) | (hi >= limit)
    order, ranked, same = _ranked(rows)
    bad[order[same]] = True
    return order, ranked, bad


def repeats(rows: np.ndarray) -> np.ndarray:
    """The mask of the ``(m, 2)`` rows that equal an earlier row.

    This is the one row comparison.  Rows are compared entry by entry with
    their neighbours in :func:`row_order`, so it is exact for every int64 id;
    as that sort is stable, the first of equal rows is never marked.
    """
    order, _, same = _ranked(rows)
    again = np.empty(len(rows), dtype=bool)
    again[order] = same
    return again


def row_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for the ``(s, 2)`` rows, numbered in :func:`row_order`.

    Returns each row's id and the distinct rows in that order, so equal rows
    share an id and ``distinct[ids]`` gives back ``rows``.
    """
    order, ranked, same = _ranked(rows)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(~same) - 1
    del order  # freed before the distinct rows are gathered
    return ids, ranked[~same] if same.any() else ranked


def absent_edges(g: Graph, rows: np.ndarray) -> list[Edge]:
    """The distinct rows of an ``(s, 2)`` array that are no edge of ``g``, in
    order; only error messages call it, to name a stray row."""
    stray = ~repeats(np.concatenate([g.edge_array, rows]))[g.edge_count :]
    return list(map(tuple, rows[stray].tolist()))


def checked_mask(g: Graph, mask: np.ndarray) -> np.ndarray:
    """``mask`` as an array; it must be a boolean mask over ``0..n-1``."""
    n = g.vertex_count
    mask = np.asarray(mask)
    if mask.shape != (n,) or mask.dtype != bool:
        raise ContractViolation(f"vertex sets must be boolean masks over 0..{n - 1}")
    return mask


@dataclass(frozen=True, eq=False)
class Bipartition:
    """One side of a split of a core, with the edges it cuts in the host graph.

    ``in_a`` is the boolean mask of the drawn side over ``0..n-1``; the rest
    of the core is the other side.
    """

    in_a: np.ndarray
    crossing_edges: int
    tries: int


def read_header_fields(lines: list[str], keys: tuple[str, ...]) -> dict[str, int]:
    """Collect ``key=<int>`` tokens from ``#`` comment lines; first one wins.

    ``lines`` is the text's ``splitlines()``, the same list the rows are
    read from.
    """
    found: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        if "#" not in raw:  # a comment line holds one; cheaper than the strip
            continue
        line = raw.strip()
        if not line.startswith("#"):
            continue
        for token in line.lstrip("#").split():
            name, sep, value = token.partition("=")
            if sep and name in keys and name not in found:
                try:
                    found[name] = int(value)
                except ValueError:
                    raise UsageError(
                        f"line {lineno}: bad header value {token!r}"
                    ) from None
    return found


_TOP_ID = int(np.iinfo(np.int64).max)  # ids and extras become int64 entries


def _id_limit(vertex_count: int | None) -> int:
    """One past the largest endpoint a row may hold."""
    limit = _TOP_ID if vertex_count is None else vertex_count
    if not 0 <= limit <= _TOP_ID:
        raise UsageError(f"header vertex count must be non-negative, at most {_TOP_ID}")
    return limit


def read_edge_rows(
    lines: list[str], vertex_count: int | None, extra: tuple[str, ...] = ()
) -> tuple[int, np.ndarray, np.ndarray]:
    """Read the data rows shared by the edge-list and colouring formats.

    ``lines`` is the text's ``splitlines()``.  Each line, once a ``#``
    comment is stripped, is blank or holds ``u v`` followed by one
    non-negative integer per name in ``extra``.  Returns the vertex count
    (``vertex_count`` when given, endpoints then lying in
    ``0..vertex_count-1``; otherwise one past the largest endpoint), the
    canonical ``(m, 2)`` int64 edge rows sorted by :func:`row_order`, and the
    ``(m, len(extra))`` int64 extra values aligned with them.  A negative
    ``vertex_count`` or a malformed, looped, negative, out-of-range or
    duplicate row, or an extra value past int64, raises :class:`UsageError`
    naming the 1-based number of the first bad line.

    numpy's C reader reads the rows of an all-ASCII text; array passes check
    their width and the extras' signs, and :func:`_checked_rows` the rows.
    When the reader refuses the text or a check finds a fault, the text is
    read again one line at a time (:func:`_read_rows_by_line`), which names
    the first bad line.  So that replay alone words every error, and it alone
    reads what the C reader does not take but ``int`` does, such as ``1_0``
    or non-ASCII digits.
    """
    limit = _id_limit(vertex_count)
    table = _c_table(lines, 2 + len(extra))
    if table is not None:
        order, ranked, bad = _checked_rows(table[:, :2], limit)
        if not bad.any() and table[:, 2:].min(initial=0) >= 0:
            return _sorted_rows(vertex_count, order, ranked, table)
    return _read_rows_by_line(lines, vertex_count, limit, extra)


def _c_table(lines: list[str], width: int) -> np.ndarray | None:
    """The ``(m, width)`` table numpy's C reader makes of the data lines, or
    None when it refuses them or finds another width."""
    # numpy's integer reader takes some non-ASCII letters for digits and
    # crashes the interpreter on others, so it reads ASCII text only
    if not all(map(str.isascii, lines)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy 1.23 to 1.x read a float such as "1.5" or "1e3" into an
            # integer column with only a DeprecationWarning; refuse it instead
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    if not table.size:
        return table.reshape(0, width)
    return table if table.shape[1] == width else None


def _read_rows_by_line(
    lines: list[str], vertex_count: int | None, limit: int, extra: tuple[str, ...]
) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`read_edge_rows`, one line at a time, ends below ``limit``."""
    names = ("vertex id", "vertex id") + extra
    shape = f"'u v {' '.join(extra)}'" if extra else "two integers"
    flat, linenos = array("q"), array("q")  # each row's values and line number
    failure = None  # the first line-local error; an earlier duplicate beats it
    try:
        for lineno, raw in enumerate(lines, start=1):
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != len(names):
                raise UsageError(f"line {lineno}: expected {shape}, got {raw!r}")
            try:
                values = tuple(map(int, fields))
            except ValueError:
                raise UsageError(
                    f"line {lineno}: expected {shape}, got {raw!r}"
                ) from None
            u, v = values[0], values[1]
            if u == v:
                raise UsageError(f"line {lineno}: loop at vertex {u}")
            if min(values) < 0:
                first = next(i for i, x in enumerate(values) if x < 0)
                raise UsageError(f"line {lineno}: negative {names[first]}")
            if u >= limit or v >= limit:
                raise UsageError(f"line {lineno}: endpoint outside 0..{limit - 1}")
            if max(values) > _TOP_ID:  # endpoints are below limit by now
                first = next(i for i, x in enumerate(values) if x > _TOP_ID)
                raise UsageError(f"line {lineno}: {names[first]} above {_TOP_ID}")
            flat.extend(values)
            linenos.append(lineno)
    except UsageError as err:
        failure = err
    table = np.frombuffer(flat, dtype=np.int64).reshape(-1, len(names))
    order, ranked, bad = _checked_rows(table[:, :2], limit)
    if bad.any():  # every row read is a checked pair, so this is a repeat
        first = bad.argmax()
        e = tuple(sorted(table[first, :2].tolist()))
        raise UsageError(f"line {linenos[first]}: duplicate edge {e}")
    if failure:
        raise failure
    return _sorted_rows(vertex_count, order, ranked, table)


def _sorted_rows(
    vertex_count: int | None, order: np.ndarray, ranked: np.ndarray, table: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    # read_edge_rows' result from checked rows in row_order
    if vertex_count is None:
        vertex_count = int(ranked[:, 1].max(initial=-1)) + 1
    return vertex_count, ranked, table[order, 2:]


def plain_record(obj, skip: tuple[str, ...] = ()) -> dict:
    """The JSON-ready record of a dataclass instance, built by one rule.

    Fields come in declaration order, less those named in ``skip`` (which are
    never read).  Values convert recursively: a ``Fraction`` becomes its
    string (``"2/5"``), tuples and lists become lists, dict keys become
    strings in insertion order, and a nested dataclass becomes its own
    record.  Everything else is kept as it is.
    """
    return {
        f.name: _plain(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip
    }


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if is_dataclass(value):
        return plain_record(value)
    return value


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list interchange format.

    An optional ``# n=<vertex_count>`` header fixes the vertex count
    (endpoints must then lie in ``0..n-1``); without it the count is one past
    the largest endpoint.  Data lines hold ``u v`` pairs; blank lines and
    ``#`` comments are ignored.  Loops and duplicate edges raise
    :class:`UsageError`.
    """
    lines = text.splitlines()
    n, rows, _ = read_edge_rows(lines, read_header_fields(lines, ("n",)).get("n"))
    return Graph(n, rows)


def serialize_edge_list(g: Graph) -> str:
    return write_rows(f"n={g.vertex_count}", *g.edge_array.T)


_WRITE_CHUNK = 1024  # rows formatted per join


def write_rows(header: str, *columns: np.ndarray) -> str:
    """The text of a ``# header`` line and then one line per row of the
    aligned int columns, their entries joined by spaces; every line ends in
    a newline.

    This is the one row writer of the text formats.  Rows are formatted
    ``_WRITE_CHUNK`` at a time, so no more than one chunk's row strings and
    Python ints are alive at once.
    """
    line = " ".join(["{}"] * len(columns)).format
    chunks = [f"# {header}\n"]
    for start in range(0, len(columns[0]), _WRITE_CHUNK):
        values = [c[start : start + _WRITE_CHUNK].tolist() for c in columns]
        chunks.append("\n".join(map(line, *values)) + "\n")
    return "".join(chunks)


def subtract(g: Graph, h: Graph) -> np.ndarray:
    """The mask of ``g``'s rows not in ``h``; an absent ``h`` edge is a contract error."""
    removed = repeats(np.concatenate([h.edge_array, g.edge_array]))[h.edge_count :]
    if np.count_nonzero(removed) < h.edge_count:  # h's rows are distinct
        absent = absent_edges(g, h.edge_array)
        raise ContractViolation(f"cannot remove absent edges, e.g. {absent[0]}")
    return ~removed


_BIPARTITION_TRIES = 64


def random_balanced_bipartition(
    g: Graph, core: np.ndarray, rng: np.random.Generator
) -> Bipartition:
    """Sample ``a`` of size ``ceil(|core|/2)`` cutting at least half of g's edges.

    ``core`` is a boolean mask over ``0..n-1``.  Each try draws a uniform
    subset of the given size, as ``rng.choice`` over the core's ids in
    increasing order; the expected number of cut edges is at least
    ``e(g)/2`` (each edge crosses with probability at least 1/2 whether it
    has one or both endpoints in the core), so a qualifying draw appears
    within a few tries.  Exhausting ``_BIPARTITION_TRIES`` tries is treated
    as an internal failure rather than a user error.
    """
    pool = np.flatnonzero(checked_mask(g, core))
    if not pool.size:
        raise ContractViolation("cannot bipartition an empty vertex set")
    half = (pool.size + 1) // 2
    target = g.edge_count / 2
    u, v = g.edge_array.T
    for attempt in range(1, _BIPARTITION_TRIES + 1):
        in_a = np.zeros(g.vertex_count, dtype=bool)
        in_a[rng.choice(pool, size=half, replace=False)] = True
        crossing = int(np.count_nonzero(in_a[u] != in_a[v]))
        if crossing >= target:
            return Bipartition(in_a, crossing, attempt)
    raise InternalInvariantError(
        f"no balanced split reached {target} crossing edges in "
        f"{_BIPARTITION_TRIES} tries"
    )
