"""Temporal multigraph ingestion, static projection, degeneracy orientation.

The input format is one directed temporal edge per line, "src dst t", with
ids as non-negative integers and timestamps as signed 64-bit integers
(seconds). Lines starting with '#' are comments. Self-loops are dropped and
counted by the build. Parallel edges, including exact duplicate lines, are
kept as distinct edges. Bytes and binary files are read by one np.fromstring
call over the whole buffer, once exact array checks show that every line
holds three unsigned integer fields split by one space or tab; the line loop
parses whatever those checks decline, comments, blank lines and signs
included, so every ParseError names its line.

Every input reaches the graph arrays through one build, the TemporalGraph
constructor: the array parse hands it int64 columns, and the line loop, a
generator of validated triples, goes through from_edges, which makes the
columns from Python ints. There, self-loops are dropped first, so a vertex
seen only in one gets no id, and vertex ids are remapped to dense [0, n) by
ascending original id, through a rank table when the ids are dense enough;
original ids are kept for output. Edges are sorted by (timestamp, input
order) and the position in that order is the edge id used by every per-edge
array. Input already in time order is kept as it is. Both that sort and the
pair order are stable sorts made of unstable ones (_stable_order): an
argsort, then one in-place sort of the unique composite keys rank * m +
index, which puts ties back in index order.

The degeneracy order peels the static projection in level batches (core
decomposition in the style of Batagelj and Zaversnik), and the orientation
it induces keeps every out-degree <= alpha.

The array kernels of every layer live here once: _find (sorted-key lookup),
_blocks and _entries (CSR rows in bounded blocks), and _closed_wedges, which
lists each triangle of an acyclic orientation once from its lowest-rank
vertex (Chiba and Nishizeki), looking up only the wedges whose second head
is ranked above the first (Schank and Wagner).
Each degeneracy ordering lists its triangles once, and both the count
passes and the common counts read that list.

Each unordered pair {x, y} is one static edge, one orientation entry and at
most two directed pairs. Two kept indexes hold that correspondence: the
graph groups its directed pairs by static edge once (_pair_groups), and
each ordering keeps the static edge of each orientation entry (entry_edge).
So every map between pairs, edges and entries is a gather or a bincount.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: CSR entries expanded per vectorized block of _blocks (a block may exceed
#: it by the size of its last row, since one row is never split): the wedges
#: of _closed_wedges and the list entries of the count passes; the passes
#: also turn this many triangles into jobs at a time.
BLOCK = 1 << 13

#: Peel batches of fewer vertices than this run in a Python loop, larger ones
#: as array operations; both follow the same batch rule. Below it the arrays'
#: fixed cost per batch outweighs the loop's cost per edge.
PEEL_BATCH = 64

#: Ids are ranked through an int32 table when max id + 1 is at most this
#: many times 2m (and below 2**31), otherwise by sort and searchsorted.
ID_TABLE_RATIO = 4

#: Shared empty pair list: (eids, timestamps).
EMPTY_PAIR: tuple[list[int], list[int]] = ([], [])


class ParseError(ValueError):
    """Raised for malformed edge-list input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str, source: str | None = None):
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}line {lineno}: {message}")
        self.lineno = lineno
        self.message = message
        self.source = source


class TemporalEdge(NamedTuple):
    src: int
    dst: int
    t: int
    eid: int


class TemporalGraph:
    """Immutable temporal multigraph with one CSR layout of its directed pairs.

    TemporalGraph(u, v, t, labels=None) is the one build. u, v and t are
    int64 edge columns in input order, self-loops included. The build drops
    the rows with u == v and counts them in self_loops_dropped, before the
    ids are ranked, so a vertex seen only in a self-loop gets no id. The ids
    are remapped to dense [0, n) by ascending id, through an int32 rank
    table when max id + 1 is at most ID_TABLE_RATIO * 2m (and below 2**31),
    else by sort and searchsorted. labels, if given, are the original ids of
    the values in u and v (from_edges passes them for ids beyond int64), and
    orig keeps those of the values left after the drop. The edges are then
    ordered by (t, input order), a stable sort skipped when t is already in
    order, and the pair layout is built. The graph owns every array it
    keeps: none is a view of the caller's columns.

    Attributes
    ----------
    n, m : vertex and edge counts
    src, dst, ts : per-edge int64 arrays indexed by eid (dense vertex ids);
        ts is non-decreasing in eid order
    orig : dense id -> original id, a list of Python ints
    self_loops_dropped : the number of input rows with u == v
    pair_key : ascending keys x * n + y of the directed pairs with >= 1 edge;
        the pair id p of (x, y) is its index here
    pair_start : offsets; pair p owns entries pair_start[p]:pair_start[p + 1]
    pair_eid, pair_ts : edge ids and timestamps in pair order, ascending by
        (t, eid) within each pair
    t_distinct : ascending distinct timestamps; a timestamp's rank is its
        index here
    pair_comp : composite key p * R + rank(t) of each entry, R =
        len(t_distinct); ascending over all entries, so one searchsorted
        locates a timestamp inside any pair
    pairs : read-only mapping (x, y) -> (eids, timestamps) lists, built on
        first use; only the oracle, the practical engine and tests need it
    edge_lists : src, dst and ts as lists of Python ints, built on first use
        for code that reads single edges (the oracle, serialization, tests)
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, t: np.ndarray, labels: list[int] | None = None):
        keep = u != v
        if not keep.all():
            u, v, t = u[keep], v[keep], t[keep]
        self.self_loops_dropped = len(keep) - len(t)
        del keep
        m = len(t)
        lo = min(int(u.min()), int(v.min())) if m else 0
        span = max(int(u.max()), int(v.max())) + 1 if m else 0
        if lo >= 0 and span <= ID_TABLE_RATIO * 2 * m and span < 2**31:
            table = np.zeros(span, dtype=np.int32)
            table[u] = 1
            table[v] = 1
            ids = np.flatnonzero(table)
            table[ids] = np.arange(len(ids), dtype=np.int32)
            u, v = table[u], table[v]
            del table  # each del frees a temporary before the sorts, which set the build's peak memory
        else:
            ids = np.sort(np.concatenate((u, v)))
            ids = ids[_runs(ids)[1]]
            u, v = np.searchsorted(ids, u), np.searchsorted(ids, v)
        if np.any(t[1:] < t[:-1]):
            order = _stable_order(t)[0]
            u, v, t = u[order], v[order], t[order]
        else:
            t = t.copy()  # the graph owns its ts, as a view of the caller's block would pin it
        self.src = u.astype(np.int64, copy=False)
        self.dst = v.astype(np.int64, copy=False)
        del u, v
        self.ts = t
        self.orig = ids.tolist() if labels is None else [labels[i] for i in ids.tolist()]
        self.n = len(self.orig)
        self.m = m
        self._common: tuple[StaticGraph, np.ndarray] | None = None
        self._entry_pairs: tuple[DegeneracyOrdering, np.ndarray, np.ndarray] | None = None

        key = self.src * self.n + self.dst
        order, pid, starts = _stable_order(key)
        self.pair_key = key[order[starts]]
        del key
        self.pair_start = np.append(starts, m)
        self.pair_eid = order
        self.pair_ts = t[order]
        rank, starts = _runs(t)
        self.t_distinct = t[starts]
        pid *= len(self.t_distinct)
        pid += rank[order]
        self.pair_comp = pid

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "TemporalGraph":
        """Build from (src, dst, t) triples of Python ints, self-loops
        included; same semantics as parsing. Ids that int64 cannot hold are
        ranked in Python first, over every triple; their ranks are the
        columns and the ids themselves the labels."""
        us: list[int] = []
        vs: list[int] = []
        ts: list[int] = []
        for u, v, t in edges:
            us.append(u)
            vs.append(v)
            ts.append(t)
        labels = None
        try:
            u = np.array(us, dtype=np.int64)
            v = np.array(vs, dtype=np.int64)
        except OverflowError:
            labels = sorted(set(us).union(vs))
            rank = {x: i for i, x in enumerate(labels)}
            u = np.array([rank[x] for x in us], dtype=np.int64)
            v = np.array([rank[x] for x in vs], dtype=np.int64)
        return cls(u, v, np.array(ts, dtype=np.int64), labels)

    @cached_property
    def edge_lists(self) -> tuple[list[int], list[int], list[int]]:
        """(src, dst, ts) as lists of Python ints."""
        return self.src.tolist(), self.dst.tolist(), self.ts.tolist()

    def pair_max(self, values: np.ndarray) -> np.ndarray:
        """The largest of values[e] over each directed pair's edges e, in
        pair order."""
        if not len(self.pair_key):
            return np.zeros(0, dtype=values.dtype)
        return np.maximum.reduceat(values[self.pair_eid], self.pair_start[:-1])

    def nonzero_edges(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges e with values[e] != 0, ascending, and their pair ids."""
        eids = np.flatnonzero(values)
        return eids, _find(self.pair_key, self.src[eids] * self.n + self.dst[eids])

    @cached_property
    def _pair_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, edge): the static edges' keys min * n + max, ascending, the
        projection's edge order, and the index there of each directed pair's
        edge {x, y}; one unique with its inverse (the return flag keeps
        numpy.ma unimported)."""
        x, y = np.divmod(self.pair_key, self.n)
        return np.unique(np.minimum(x, y) * self.n + np.maximum(x, y), return_inverse=True)

    def pair_common(self, static: "StaticGraph") -> np.ndarray:
        """|N(x) & N(y)| in `static`, this graph's projection, for each
        directed pair (x, y), in pair order: the common counts gathered by
        each pair's static edge, kept per projection."""
        if self._common is None or self._common[0] is not static:
            self._common = (static, static.common_counts()[self._pair_groups[1]])
        return self._common[1]

    def entry_pairs(self, ordering: "DegeneracyOrdering") -> tuple[np.ndarray, np.ndarray]:
        """(fwd, bwd): the pair ids of x -> y and of y -> x for each entry
        x -> y of the orientation of `ordering`, an ordering of this graph's
        projection, indexed by entry; -1 where the pair has no edge. Built
        on first use per ordering, by gathers: static edge s holds slot 2s
        for its pair min -> max and 2s + 1 for max -> min, so an entry on
        edge s = entry_edge[e] reads x -> y at 2s + (x > y) and y -> x at the
        other slot."""
        if self._entry_pairs is None or self._entry_pairs[0] is not ordering:
            x, y = np.divmod(self.pair_key, self.n)
            slots = np.full(2 * len(ordering.out_nbr), -1, dtype=np.int64)
            slots[2 * self._pair_groups[1] + (x > y)] = np.arange(len(x))
            tail = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(ordering.out_start))
            fwd = 2 * ordering.entry_edge + (tail > ordering.out_nbr)
            self._entry_pairs = (ordering, slots[fwd], slots[fwd ^ 1])
        return self._entry_pairs[1:]

    @cached_property
    def pairs(self) -> Mapping[tuple[int, int], tuple[list[int], list[int]]]:
        """(x, y) -> (eids, timestamps) for every directed pair with an edge."""
        eids = self.pair_eid.tolist()
        ts = self.pair_ts.tolist()
        bounds = self.pair_start.tolist()
        view = {}
        for p, key in enumerate(self.pair_key.tolist()):
            lo, hi = bounds[p], bounds[p + 1]
            view[divmod(key, self.n)] = (eids[lo:hi], ts[lo:hi])
        return MappingProxyType(view)

    def pair(self, x: int, y: int) -> tuple[list[int], list[int]]:
        """(eids, timestamps) of edges x -> y; empty lists if none."""
        return self.pairs.get((x, y), EMPTY_PAIR)

    def sigma(self, x: int, y: int) -> int:
        """Number of parallel edges x -> y."""
        return len(self.pair(x, y)[0])

    def sigma_max(self) -> int:
        """Max total multiplicity sigma(u,v) + sigma(v,u) over unordered pairs:
        one bincount of the pair sizes by static edge (_pair_groups), whose
        float64 sums are exact below 2**53 edges; 0 for an empty graph."""
        return int(np.bincount(self._pair_groups[1], np.diff(self.pair_start)).max(initial=0))


def parse_edge_list(data: str | bytes | IO) -> TemporalGraph:
    """Parse "src dst t" lines into a TemporalGraph.

    Accepts a str, bytes, or file object (text or binary). Lines may be in
    any order; '#' comment lines and blank lines are ignored; LF and CRLF
    both work. Malformed lines raise ParseError with the line number.

    A binary file object is read whole and then parsed like bytes: by one
    np.fromstring call straight into int64 values, after checks that give
    the same answer as the line loop:
    - Unsigned fields split by one space or tab, lines ended by LF or
      CRLF: one bytes.translate that keeps only the separators shows every
      line holds three fields at most, and the value count shows it holds
      three.
    - No value may be at the int64 maximum, where out-of-range text
      saturates.
    Anything else is parsed from line 1 by the line loop, which gives every
    message and line number: a comment or blank line, a run of spaces and
    tabs or whitespace at either end of a line, a lone '\r', which
    bytes.splitlines treats as a line break and a file does not, a sign,
    any other byte but a digit, space, tab or line break (non-ASCII, a
    vertical tab, '_', 'x'), a line without three fields, or a value at the
    int64 maximum. The line loop reads the bytes already read, so the
    stream need not be seekable. str input and text file objects go to the
    line loop directly.
    """
    if isinstance(data, bytes):
        raw, lines = data, bytes.splitlines
    elif isinstance(data, (io.RawIOBase, io.BufferedIOBase)):
        raw, lines = data.read(), io.BytesIO
    else:
        return TemporalGraph.from_edges(_parse_lines(data.splitlines() if isinstance(data, str) else data))
    columns = _parse_array(raw)
    if columns is None:
        return TemporalGraph.from_edges(_parse_lines(lines(raw)))
    del raw  # only the line loop reads the input again; the build needs the memory
    return TemporalGraph(*columns)


def _parse_array(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Loop-free (u, v, t) int64 columns of `data`, self-loops included, or
    None if a line needs the line loop.

    One np.fromstring call reads every field. It does not see lines and it
    saturates out-of-range values, so its values are trusted only once the
    text is known to hold three unsigned integer fields on every line and
    no value is at the int64 maximum. The columns are strided views of its
    one buffer."""
    # A lone '\r' ends a line for bytes.splitlines but not in a file.
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    # The separators: what is left without the digits and the '\r' of each
    # '\r\n', tabs read as spaces. Lines of three fields split by one space
    # or tab leave "  \n" each, the last line "  " if it has no '\n'; a '#',
    # a sign, a blank line, any other gap or any other byte leaves something
    # else.
    gaps = data.translate(bytes.maketrans(b"\t", b" "), b"0123456789\r")
    k, open_end = len(gaps) // 3, bool(data) and not data.endswith(b"\n")
    if gaps != b"  \n" * k + b"  " * open_end:
        return None
    lines = k + open_end  # each holds three fields at most
    if not lines:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x warns on unmatched data
        try:
            values = np.fromstring(data, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    # One value per field, so 3 per line when no line holds more than 3.
    if len(values) != 3 * lines:
        return None
    if values.max() == _I64_MAX:
        return None  # out-of-range text reads as the maximum; the line loop tells which
    rows = values.reshape(-1, 3)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def _parse_lines(lines: Iterable[str | bytes]) -> Iterator[tuple[int, int, int]]:
    """The line loop: yields the (src, dst, t) of each edge line, self-loops
    included, and raises ParseError at the first bad line."""
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(lineno, "invalid UTF-8") from None
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            raise ParseError(lineno, f"expected 'src dst t', got {line.strip()!r}")
        try:
            u = int(fields[0])
            v = int(fields[1])
            t = int(fields[2])
        except ValueError:
            raise ParseError(lineno, f"non-integer field in {line.strip()!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, f"negative vertex id in {line.strip()!r}")
        if not (_I64_MIN <= t <= _I64_MAX):
            raise ParseError(lineno, f"timestamp out of 64-bit range: {t}")
        yield u, v, t


def serialize_edge_list(g: TemporalGraph) -> str:
    """Canonical text form: one "src dst t" line per edge in eid order."""
    orig = g.orig
    src, dst, ts = g.edge_lists
    lines = [f"{orig[u]} {orig[v]} {t}" for u, v, t in zip(src, dst, ts)]
    return "\n".join(lines) + ("\n" if lines else "")


def _stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, rank, starts): the permutation np.argsort(keys,
    kind="stable") gives, the dense rank of each keys[order] among the
    distinct keys, and the positions in that order where a new key starts,
    from unstable sorts only.

    After an unstable argsort, the composite rank * m + index is unique per
    entry and below m * m, so one in-place sort of it orders ties by index.
    """
    m = len(keys)
    order = np.argsort(keys)
    rank, starts = _runs(keys[order])
    if m * m > _I64_MAX:  # the composite would overflow int64 (m > 3.03e9)
        return np.argsort(keys, kind="stable"), rank, starts
    rank *= m
    rank += order
    rank.sort()
    np.remainder(rank, m, out=order)
    rank //= m
    return order, rank, starts


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rank, starts): the dense rank of each of the ascending keys among
    the distinct ones, and the positions where a new key starts."""
    new = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.cumsum(new)
    rank -= 1
    return rank, np.flatnonzero(new)


def _find(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Index of each query key q[i] among the ascending, non-empty keys; -1
    where it is absent."""
    i = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[i] == q, i, -1)


def _entries(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices of the CSR rows `rows`, concatenated, and the index
    into rows of the row each entry belongs to."""
    sizes = start[rows + 1] - start[rows]
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(rows)), sizes)
    return np.arange(ends[-1]) + (start[rows] - ends + sizes)[owner], owner


def _blocks(start: np.ndarray, rows: np.ndarray) -> list[slice]:
    """Slices of rows whose CSR rows start within one BLOCK-wide window of
    the concatenated entries."""
    if not len(rows):
        return []
    sizes = start[rows + 1] - start[rows]
    starts = np.cumsum(sizes) - sizes
    marks = np.arange(0, starts[-1] + sizes[-1], BLOCK)
    cuts = np.append(np.searchsorted(starts, marks), len(rows)).tolist()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _closed_wedges(start: np.ndarray, nbr: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triangle x -> y, x -> z, y -> z of an acyclic CSR orientation
    (x's heads are nbr[start[x]:start[x + 1]], ascending; every edge u -> v
    has rank[u] < rank[v]) once, as the entry indices (xy, xz, yz),
    ascending by (xy, xz).

    Each entry x -> y, where x has another head and y has one, expands the
    row of x and keeps the heads z ranked above y: no edge y -> z can point
    to a lower rank (Schank and Wagner's forward constraint). The key
    y * n + z of each kept wedge is looked up among the sorted entry keys,
    sum of C(outdeg(x), 2) lookups, in blocks of about BLOCK wedges.
    """
    n = len(start) - 1
    outdeg = np.diff(start)
    tail = np.repeat(np.arange(n, dtype=np.int64), outdeg)
    keys = tail * n + nbr
    head_rank = rank[nbr]
    xy = np.flatnonzero((outdeg[tail] > 1) & (outdeg[nbr] > 0))
    parts = [(np.empty(0, dtype=np.int64),) * 3]
    for block in _blocks(start, tail[xy]):
        xz, i = _entries(start, tail[xy[block]])
        e = xy[block][i]
        up = np.flatnonzero(head_rank[xz] > head_rank[e])
        e, xz = e.take(up), xz.take(up)
        yz = _find(keys, nbr[e] * n + nbr[xz])
        hit = np.flatnonzero(yz >= 0)
        parts.append((e.take(hit), xz.take(hit), yz.take(hit)))
    xy, xz, yz = (np.concatenate(column) for column in zip(*parts))
    return xy, xz, yz


class StaticGraph:
    """Undirected simple projection of a temporal multigraph, in CSR form.

    u's neighbors are adj_nbr[adj_start[u]:adj_start[u + 1]], ascending; the
    static edges are the columns edge_u < edge_v, ascending by key
    u * n + v. degree, adj, edges and adj_sets are list views built on
    first use, for the oracle, the practical engine and tests.
    Common-neighbor counts, the triangles on each edge, are one int64 array
    aligned with the edge columns, built on first use from the triangle
    entries of the last ordering degeneracy_order built for this graph:
    each static edge is exactly one orientation entry, and the ordering's
    entry_edge names it.
    """

    def __init__(self, n: int, adj_start: np.ndarray, adj_nbr: np.ndarray):
        self.n = n
        self.adj_start = adj_start
        self.adj_nbr = adj_nbr
        own = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj_start))
        upper = own < adj_nbr
        self.edge_u, self.edge_v = own[upper], adj_nbr[upper]
        self._common: np.ndarray | None = None
        self._ordering: DegeneracyOrdering | None = None

    @cached_property
    def degree(self) -> list[int]:
        """degree[u]: u's number of neighbors."""
        return np.diff(self.adj_start).tolist()

    @cached_property
    def adj(self) -> list[list[int]]:
        """adj[u]: u's neighbors, ascending."""
        nbr, bounds = self.adj_nbr.tolist(), self.adj_start.tolist()
        return [nbr[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """The static edges (u, v), u < v, ascending."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    @cached_property
    def adj_sets(self) -> list[set[int]]:
        """adj_sets[u]: u's neighbors as a set."""
        return [set(a) for a in self.adj]

    def common_counts(self) -> np.ndarray:
        """|N(u) & N(v)| for every static edge (u, v), in edge order: the
        number of triangles on the edge.

        One bincount credits each triangle of triangle_entries to the
        static edges of its three orientation entries, which the ordering's
        entry_edge gathers. The ordering is the last one degeneracy_order
        built for this graph, or a new one if there is none; every ordering
        lists the same triangles, so the counts do not depend on which.
        """
        if self._common is None:
            o = self._ordering if self._ordering is not None else degeneracy_order(self)
            self._common = np.bincount(o.entry_edge[np.concatenate(o.triangle_entries())], minlength=len(self.edge_u))
        return self._common

    def common_of(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|N(u[i]) & N(v[i])| for static edges {u[i], v[i]}; ValueError
        names the first pair that is not a static edge."""
        n = self.n
        keys, q = self.edge_u * n + self.edge_v, np.minimum(u, v) * n + np.maximum(u, v)
        i = np.searchsorted(keys, q)
        if (miss := np.append(keys, -1)[i] != q).any():  # the -1 stands past the last key
            raise ValueError(f"({u[miss.argmax()]}, {v[miss.argmax()]}) is not a static edge")
        return self.common_counts()[i]

    def sum_edge_degree(self) -> int:
        """The sum over static edges (u, v) of min(degree[u], degree[v])."""
        deg = np.diff(self.adj_start)
        return int(np.minimum(deg[self.edge_u], deg[self.edge_v]).sum())


def build_static(g: TemporalGraph) -> StaticGraph:
    """Erase directions, timestamps, and multiplicities: the CSR of g's
    static edge keys (_pair_groups), each edge both ways round."""
    n, keys = g.n, g._pair_groups[0]
    x, y = np.divmod(keys, n)
    u, v = np.divmod(np.sort(np.concatenate((keys, y * n + x))), n)
    return StaticGraph(n, np.searchsorted(u, np.arange(n + 1)), v)


class DegeneracyOrdering:
    """Level-batch peeling order and the orientation it induces.

    pi[u] is u's rank in the removal order (0 removed first) and order the
    vertices in that order; both are given as int64 arrays and read as lists
    of Python ints, built on first read and kept beside the arrays. alpha is
    the degeneracy, the largest residual degree seen at any removal. The
    orientation points each static edge from its lower-rank endpoint to the
    other, in CSR form: u's out-neighbors are
    out_nbr[out_start[u]:out_start[u + 1]], ascending by id. entry_edge[e]
    is the static edge of entry e, its index in the projection's edge
    columns.
    """

    def __init__(
        self, pi: np.ndarray, order: np.ndarray, alpha: int,
        out_start: np.ndarray, out_nbr: np.ndarray, entry_edge: np.ndarray,
    ):
        self._pi = pi
        self._order = order
        self.alpha = alpha
        self.out_start = out_start
        self.out_nbr = out_nbr
        self.entry_edge = entry_edge
        self._triangle_entries: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @cached_property
    def pi(self) -> list[int]:
        return self._pi.tolist()

    @cached_property
    def order(self) -> list[int]:
        return self._order.tolist()

    def triangle_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every static triangle once, as the orientation entries (ab, ac,
        bc) of its edges a -> b, a -> c and b -> c, rank(a) < rank(b) <
        rank(c), ascending by (ab, ac); built on first use.

        The triangles of the orientation by _closed_wedges: for each oriented
        edge (a, b), c runs over the out-neighbors of a ranked above b and is
        kept where b -> c is an oriented edge, sum of C(outdeg, 2) <=
        alpha * m / 2 lookups.
        """
        if self._triangle_entries is None:
            self._triangle_entries = _closed_wedges(self.out_start, self.out_nbr, self._pi)
        return self._triangle_entries


def degeneracy_order(static: StaticGraph) -> DegeneracyOrdering:
    """Peel the vertices in level batches, ascending (residual degree, id)
    within a batch.

    From level k = 0, a batch is every alive vertex of residual degree <= k.
    Removing it takes one degree from its alive neighbors per edge to it,
    and the next batch is those of them now at degree <= k. An empty batch
    raises k to the least alive degree; alpha is the last level. A vertex's
    residual degree at removal is <= its level <= alpha, so every out-degree
    of the orientation is <= alpha. This is core decomposition (Batagelj and
    Zaversnik) one batch at a time, O(n * levels + m log m). Batches of
    PEEL_BATCH vertices or more run as array operations, smaller ones in
    _peel_loop; the order does not depend on which. The orientation then
    points each static edge to its higher-rank endpoint; the argsort that
    orders the entries is each entry's static edge. The new ordering is
    recorded on `static` for common_counts; each call builds a fresh one.
    """
    n, start, nbr = static.n, static.adj_start, static.adj_nbr
    deg = np.diff(start)  # residual degrees
    alive = np.ones(n, dtype=bool)
    views = None
    parts = [np.zeros(0, dtype=np.int64)]
    k = 0
    left = np.arange(n, dtype=np.int64)  # holds every alive vertex, ascending
    batch = np.flatnonzero(deg == 0)
    while True:
        if not len(batch):
            left = left[alive[left]]
            if not len(left):
                break
            k = int(deg[left].min())
            batch = left[deg[left] == k]
        if len(batch) < PEEL_BATCH:
            if views is None:
                views = tuple(map(memoryview, (nbr, start, deg, alive)))
            removed, batch = _peel_loop(batch.tolist(), k, n, *views)
            parts.append(np.array(removed, dtype=np.int64))
            continue
        batch = batch[np.argsort(deg[batch], kind="stable")]
        parts.append(batch)
        alive[batch] = False
        hit = nbr[_entries(start, batch)[0]]
        touched, drop = np.unique(hit[alive[hit]], return_counts=True)
        deg[touched] -= drop
        batch = touched[deg[touched] <= k]
    order = np.concatenate(parts)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    u, v = static.edge_u, static.edge_v
    up = ranks[u] < ranks[v]
    keys = np.where(up, u, v) * n + np.where(up, v, u)
    entry_edge = np.argsort(keys)
    tail, out_nbr = np.divmod(keys[entry_edge], n)
    static._ordering = DegeneracyOrdering(ranks, order, k, np.searchsorted(tail, np.arange(n + 1)), out_nbr, entry_edge)
    return static._ordering


def _peel_loop(
    batch: list[int], k: int, n: int, nbr: memoryview, start: memoryview, deg: memoryview, alive: memoryview
) -> tuple[list[int], np.ndarray]:
    """Level-k batches of degeneracy_order's rule while they are smaller than
    PEEL_BATCH, one vertex and one edge at a time over memoryviews of its
    arrays. Returns the removed vertices in order and the next batch,
    ascending by id."""
    removed: list[int] = []
    while batch and len(batch) < PEEL_BATCH:
        batch.sort(key=lambda x: deg[x] * n + x)
        for x in batch:
            alive[x] = False
        removed += batch
        touched = set()
        for x in batch:
            for y in nbr[start[x] : start[x + 1]]:
                if alive[y]:
                    d = deg[y] - 1
                    deg[y] = d
                    if d <= k:
                        touched.add(y)
        batch = sorted(touched)
    return removed, np.array(batch, dtype=np.int64)


@dataclass
class GraphStats:
    """Read-only summary used by reports and the CLI."""

    n: int
    m: int
    alpha: int
    sigma_max: int
    sum_edge_degree: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def graph_stats(
    g: TemporalGraph, static: StaticGraph, ordering: DegeneracyOrdering
) -> GraphStats:
    return GraphStats(
        n=g.n,
        m=g.m,
        alpha=ordering.alpha,
        sigma_max=g.sigma_max(),
        sum_edge_degree=static.sum_edge_degree(),
    )
