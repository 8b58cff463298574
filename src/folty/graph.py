"""Temporal multigraph ingestion, static projection, degeneracy orientation.

The input format is one directed temporal edge per line, "src dst t", with
ids as non-negative integers and timestamps as signed 64-bit integers
(seconds). Lines starting with '#' are comments. Self-loops are dropped at
parse time. Parallel edges, including exact duplicate lines, are kept as
distinct edges. Bytes and binary files are tokenized by one numpy.loadtxt
call over the whole buffer; the line loop parses whatever that call
declines, so every ParseError names its line.

Vertex ids are remapped to dense [0, n) by ascending original id, through a
rank table when the ids are dense enough; original ids are kept for output.
Edges are sorted by (timestamp, input order) and the position in that order
is the edge id used by every per-edge array. Input already in time order is
kept as it is. Both that sort and the pair order are stable sorts made of
unstable ones (_stable_order): an argsort, then one in-place sort of the
unique composite keys rank * m + index, which puts ties back in index order.

The degeneracy order peels the static projection in level batches (core
decomposition in the style of Batagelj and Zaversnik), and the orientation
it induces keeps every out-degree <= alpha.

The array kernels of every layer live here once: _find (sorted-key lookup),
_blocks and _entries (CSR rows in bounded blocks), _orient and _csr, and
_closed_wedges, which lists each triangle of an acyclic orientation once
(Chiba and Nishizeki), for both the count passes and the common counts.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import IO, Iterable, Mapping, NamedTuple

import numpy as np

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: Wedges checked per vectorized block of _closed_wedges (a block may exceed
#: it by the size of its last row, since one row is never split).
WEDGE_BLOCK = 1 << 14

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

    Attributes
    ----------
    n, m : vertex and edge counts
    src, dst, ts : per-edge int64 arrays indexed by eid (dense vertex ids);
        ts is non-decreasing in eid order
    orig : dense id -> original id, a list of Python ints
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

    __slots__ = (
        "n",
        "m",
        "src",
        "dst",
        "ts",
        "orig",
        "self_loops_dropped",
        "pair_key",
        "pair_start",
        "pair_eid",
        "pair_ts",
        "t_distinct",
        "pair_comp",
        "_pairs",
        "_lists",
        "_common",
        "_entry_pairs",
    )

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        ts: np.ndarray,
        orig: list[int],
        self_loops_dropped: int = 0,
    ):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.ts = t = np.asarray(ts, dtype=np.int64)
        self.orig = orig
        self.n = len(orig)
        self.m = len(t)
        self.self_loops_dropped = self_loops_dropped
        self._pairs: Mapping[tuple[int, int], tuple[list[int], list[int]]] | None = None
        self._lists: tuple[list[int], list[int], list[int]] | None = None
        self._common: tuple[StaticGraph, np.ndarray] | None = None
        self._entry_pairs: tuple[DegeneracyOrdering, np.ndarray, np.ndarray] | None = None

        if np.any(t[1:] < t[:-1]):
            raise ValueError("timestamps must be non-decreasing in eid order")
        key = self.src * self.n + self.dst
        order, pid, starts = _stable_order(key)
        self.pair_key = key[order[starts]]
        self.pair_start = np.append(starts, self.m)
        self.pair_eid = order
        self.pair_ts = t[order]
        new = np.ones(self.m, dtype=bool)
        new[1:] = t[1:] != t[:-1]
        self.t_distinct = t[new]
        rank = np.cumsum(new) - 1
        pid *= len(self.t_distinct)
        pid += rank[order]
        self.pair_comp = pid

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "TemporalGraph":
        """Build from (src, dst, t) triples; same semantics as parsing."""
        us: list[int] = []
        vs: list[int] = []
        ts: list[int] = []
        dropped = 0
        for u, v, t in edges:
            if u == v:
                dropped += 1
            else:
                us.append(u)
                vs.append(v)
                ts.append(t)
        return cls._from_rows(us, vs, ts, dropped)

    @classmethod
    def _from_rows(cls, us: list[int], vs: list[int], ts: list[int], dropped: int) -> "TemporalGraph":
        """The array tail for loop-free edges given as Python ints. Ids that
        int64 cannot hold are ranked in Python first; their ranks go through
        the tail and the ids themselves become `orig`."""
        labels = None
        try:
            u = np.array(us, dtype=np.int64)
            v = np.array(vs, dtype=np.int64)
        except OverflowError:
            labels = sorted(set(us).union(vs))
            rank = {x: i for i, x in enumerate(labels)}
            u = np.array([rank[x] for x in us], dtype=np.int64)
            v = np.array([rank[x] for x in vs], dtype=np.int64)
        return cls._from_columns(u, v, np.array(ts, dtype=np.int64), dropped, labels)

    @classmethod
    def _from_columns(
        cls, u: np.ndarray, v: np.ndarray, t: np.ndarray, dropped: int, labels: list[int] | None = None
    ) -> "TemporalGraph":
        """Remap loop-free int64 edge columns to dense ids by ascending id
        (through an int32 rank table when the ids are dense, see
        ID_TABLE_RATIO; else by sort and searchsorted), sort them by t
        (stable: input order breaks ties; skipped when t is already in
        order), construct. `labels`, if given, are the original ids of the
        values 0..n-1 in u and v."""
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
        else:
            ids = np.sort(np.concatenate((u, v)))
            new = np.ones(len(ids), dtype=bool)
            new[1:] = ids[1:] != ids[:-1]
            ids = ids[new]
            u, v = np.searchsorted(ids, u), np.searchsorted(ids, v)
        if np.any(t[1:] < t[:-1]):
            order = _stable_order(t)[0]
            u, v, t = u[order], v[order], t[order]
        else:
            t = t.copy()  # the graph owns its ts, as a view of the caller's block would pin it
        orig = ids.tolist() if labels is None else labels
        return cls(u, v, t, orig, dropped)

    @property
    def edge_lists(self) -> tuple[list[int], list[int], list[int]]:
        """(src, dst, ts) as lists of Python ints."""
        if self._lists is None:
            self._lists = (self.src.tolist(), self.dst.tolist(), self.ts.tolist())
        return self._lists

    def pair_max(self, values: np.ndarray) -> np.ndarray:
        """The largest of values[e] over each directed pair's edges e, in
        pair order."""
        if not len(self.pair_key):
            return np.zeros(0, dtype=values.dtype)
        return np.maximum.reduceat(values[self.pair_eid], self.pair_start[:-1])

    def pair_common(self, static: "StaticGraph") -> np.ndarray:
        """|N(x) & N(y)| in `static`, this graph's projection, for each
        directed pair (x, y), in pair order; built on first use."""
        if self._common is None or self._common[0] is not static:
            self._common = (static, static.common_of(*np.divmod(self.pair_key, self.n)))
        return self._common[1]

    def entry_pairs(self, ordering: "DegeneracyOrdering") -> tuple[np.ndarray, np.ndarray]:
        """(fwd, bwd): the pair ids of x -> y and of y -> x for each entry
        x -> y of the orientation of `ordering`, an ordering of this graph's
        projection, indexed by entry; -1 where the pair has no edge or no
        triangle uses the entry. Built on first use per ordering, by two
        sorted-key lookups over the used entries. The entries ascend by
        (x, y); the reverse keys are sorted first, since sorted queries
        search faster."""
        if self._entry_pairs is None or self._entry_pairs[0] is not ordering:
            start, head = ordering.out_start, ordering.out_nbr
            used = np.zeros(len(head), dtype=bool)
            for column in ordering.triangle_entries():
                used[column] = True
            e = np.flatnonzero(used)
            x, y = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(start))[e], head[e]
            fwd = np.full(len(head), -1, dtype=np.int64)
            bwd = fwd.copy()
            fwd[e] = _find(self.pair_key, x * self.n + y)
            back = y * self.n + x
            order = np.argsort(back)
            bwd[e[order]] = _find(self.pair_key, back[order])
            self._entry_pairs = (ordering, fwd, bwd)
        return self._entry_pairs[1:]

    @property
    def pairs(self) -> Mapping[tuple[int, int], tuple[list[int], list[int]]]:
        """(x, y) -> (eids, timestamps) for every directed pair with an edge."""
        if self._pairs is None:
            eids = self.pair_eid.tolist()
            ts = self.pair_ts.tolist()
            bounds = self.pair_start.tolist()
            view = {}
            for p, key in enumerate(self.pair_key.tolist()):
                lo, hi = bounds[p], bounds[p + 1]
                view[divmod(key, self.n)] = (eids[lo:hi], ts[lo:hi])
            self._pairs = MappingProxyType(view)
        return self._pairs

    def pair(self, x: int, y: int) -> tuple[list[int], list[int]]:
        """(eids, timestamps) of edges x -> y; empty lists if none."""
        return self.pairs.get((x, y), EMPTY_PAIR)

    def sigma(self, x: int, y: int) -> int:
        """Number of parallel edges x -> y."""
        return len(self.pair(x, y)[0])

    def sigma_max(self) -> int:
        """Max total multiplicity sigma(u,v) + sigma(v,u) over unordered pairs.
        The reverse keys are sorted before the lookup, since sorted queries
        search faster; only the max is kept, so nothing is scattered back."""
        keys = self.pair_key
        if not len(keys):
            return 0
        sizes = np.diff(self.pair_start)
        x, y = np.divmod(keys, self.n)
        back = y * self.n + x
        order = np.argsort(back)
        j = _find(keys, back[order])
        return int((sizes[order] + np.where(j >= 0, sizes[j], 0)).max())


def parse_edge_list(data: str | bytes | IO) -> TemporalGraph:
    """Parse "src dst t" lines into a TemporalGraph.

    Accepts a str, bytes, or file object (text or binary). Lines may be in
    any order; '#' comment lines and blank lines are ignored; LF and CRLF
    both work. Malformed lines raise ParseError with the line number.

    A binary file object is read whole and then parsed like bytes: without
    its comment lines, by one numpy.loadtxt call straight into int64
    columns. Input that needs a decision per line (a lone '\r', which
    bytes.splitlines treats as a line break and a file does not, a '#'
    other than at the start of a line's first field, a non-ASCII byte, a
    line without three fields, a field that is not a plain int64, or a
    negative id) is parsed again from line 1 by the line loop, which gives
    every message and line number. The line loop reads the bytes already
    read, so the stream need not be seekable. str input and text file
    objects go to the line loop directly.
    """
    if isinstance(data, bytes):
        raw, lines = data, bytes.splitlines
    elif isinstance(data, (io.RawIOBase, io.BufferedIOBase)):
        raw, lines = data.read(), io.BytesIO
    else:
        return _parse_lines(data.splitlines() if isinstance(data, str) else data)
    columns = _parse_array(raw)
    if columns is None:
        return _parse_lines(lines(raw))
    del raw  # only the line loop reads the input again; the build needs the memory
    return TemporalGraph._from_columns(*columns)


def _parse_array(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """Loop-free (u, v, t) int64 columns and the self-loop count of `data`,
    or None if a line needs the line loop."""
    # A lone '\r' ends a line for bytes.splitlines but not in a file, and
    # loadtxt rejects one inside a line only as "currently not supported".
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    if b"#" in data:
        data = _drop_comments(data)
        if data is None:
            return None
    # loadtxt decodes latin-1, where b"\xa0" and b"\x85" are whitespace
    if not data.isascii():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        try:
            rows = np.loadtxt(io.BytesIO(data), dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if rows.shape[1] != 3:
        return None
    block = np.ascontiguousarray(rows.T)  # one pass, not a strided copy per column
    del rows
    if block[:2].min() < 0:
        return None
    keep = block[0] != block[1]
    dropped = len(keep) - int(np.count_nonzero(keep))
    if dropped:
        block = block[:, keep]
    u, v, t = block
    return u, v, t, dropped


def _drop_comments(data: bytes) -> bytes | None:
    """`data` without its comment lines, those whose first field starts
    with '#', or None if a '#' lies outside a comment line or a comment line
    is not UTF-8; the line loop reports both."""
    kept = []
    pos = 0  # start of the text not yet kept
    hit = data.find(b"#")
    while hit >= 0:
        start = data.rfind(b"\n", 0, hit) + 1
        if data[start:hit].strip():
            return None
        end = data.find(b"\n", hit) + 1 or len(data)
        try:
            data[start:end].decode("utf-8")
        except UnicodeDecodeError:
            return None
        kept.append(data[pos:start])
        pos = end
        hit = data.find(b"#", end)
    kept.append(data[pos:])
    return b"".join(kept)


def _parse_lines(lines: Iterable[str | bytes]) -> TemporalGraph:
    """The line loop: validates each line and raises ParseError at the first
    bad one."""
    us: list[int] = []
    vs: list[int] = []
    ts: list[int] = []
    dropped = 0
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
        if u == v:
            dropped += 1
            continue
        us.append(u)
        vs.append(v)
        ts.append(t)
    return TemporalGraph._from_rows(us, vs, ts, dropped)


def serialize_edge_list(g: TemporalGraph) -> str:
    """Canonical text form: one "src dst t" line per edge in eid order."""
    orig = g.orig
    src, dst, ts = g.edge_lists
    lines = [f"{orig[u]} {orig[v]} {t}" for u, v, t in zip(src, dst, ts)]
    return "\n".join(lines) + ("\n" if lines else "")


def _csr_lists(start: np.ndarray, items: np.ndarray) -> list[list[int]]:
    """Rows items[start[u]:start[u + 1]] as lists of Python ints."""
    values = items.tolist()
    bounds = start.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
    ordered = keys[order]
    new = np.ones(m, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    rank = np.cumsum(new)
    rank -= 1
    starts = np.flatnonzero(new)
    if m * m > _I64_MAX:  # the composite would overflow int64 (m > 3.03e9)
        return np.argsort(keys, kind="stable"), rank, starts
    rank *= m
    rank += order
    rank.sort()
    np.remainder(rank, m, out=order)
    rank //= m
    return order, rank, starts


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


def _blocks(start: np.ndarray, rows: np.ndarray, cap: int) -> list[slice]:
    """Slices of rows whose CSR rows start within one cap-wide window of the
    concatenated entries."""
    if not len(rows):
        return []
    sizes = start[rows + 1] - start[rows]
    starts = np.cumsum(sizes) - sizes
    marks = np.arange(0, starts[-1] + sizes[-1], cap)
    cuts = np.append(np.searchsorted(starts, marks), len(rows)).tolist()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _orient(n: int, u: np.ndarray, v: np.ndarray, up: np.ndarray) -> np.ndarray:
    """The key tail * n + head of each edge {u[i], v[i]} pointed from u[i]
    to v[i] where up[i], else the other way."""
    return np.where(up, u, v) * n + np.where(up, v, u)


def _csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The oriented edges of the ascending keys in CSR form: row x holds
    x's heads, ascending. Returns (start, head)."""
    tail, head = np.divmod(keys, n)
    return np.searchsorted(tail, np.arange(n + 1)), head


def _closed_wedges(start: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triangle x -> y, x -> z, y -> z of an acyclic CSR orientation
    (x's heads are nbr[start[x]:start[x + 1]], ascending) once, as the entry
    indices (xy, xz, yz), ascending by (xy, xz).

    Each entry x -> y, where x has another head and y has one, expands the
    row of x and looks the key y * n + z of every head z up among the
    sorted entry keys, WEDGE_BLOCK lookups at a time.
    """
    n = len(start) - 1
    outdeg = np.diff(start)
    tail = np.repeat(np.arange(n, dtype=np.int64), outdeg)
    keys = tail * n + nbr
    xy = np.flatnonzero((outdeg[tail] > 1) & (outdeg[nbr] > 0))
    parts = [(np.empty(0, dtype=np.int64),) * 3]
    for block in _blocks(start, tail[xy], WEDGE_BLOCK):
        xz, i = _entries(start, tail[xy[block]])
        e = xy[block][i]
        yz = _find(keys, nbr[e] * n + nbr[xz])
        hit = yz >= 0
        parts.append((e[hit], xz[hit], yz[hit]))
    xy, xz, yz = (np.concatenate(column) for column in zip(*parts))
    return xy, xz, yz


class StaticGraph:
    """Undirected simple projection of a temporal multigraph, in CSR form.

    u's neighbors are adj_nbr[adj_start[u]:adj_start[u + 1]], ascending; the
    static edges are the columns edge_u < edge_v, ascending by key
    u * n + v. degree is a list of Python ints. adj and edges are list views
    built on first use and edge_degree a list computed on each access, for
    the oracle, the practical engine and tests. Common-neighbor counts, the
    triangles on each edge, are one int64 array aligned with the edge
    columns, built on first use.
    """

    __slots__ = ("n", "adj_start", "adj_nbr", "edge_u", "edge_v", "degree", "_adj", "_edges", "_adj_sets", "_common")

    def __init__(self, n: int, adj_start: np.ndarray, adj_nbr: np.ndarray):
        self.n = n
        self.adj_start = adj_start
        self.adj_nbr = adj_nbr
        deg = np.diff(adj_start)
        self.degree = deg.tolist()
        own = np.repeat(np.arange(n, dtype=np.int64), deg)
        upper = own < adj_nbr
        self.edge_u, self.edge_v = own[upper], adj_nbr[upper]
        self._adj: list[list[int]] | None = None
        self._edges: list[tuple[int, int]] | None = None
        self._adj_sets: list[set[int]] | None = None
        self._common: np.ndarray | None = None

    @property
    def adj(self) -> list[list[int]]:
        """adj[u]: u's neighbors, ascending."""
        if self._adj is None:
            self._adj = _csr_lists(self.adj_start, self.adj_nbr)
        return self._adj

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The static edges (u, v), u < v, ascending."""
        if self._edges is None:
            self._edges = list(zip(self.edge_u.tolist(), self.edge_v.tolist()))
        return self._edges

    @property
    def edge_degree(self) -> list[int]:
        """min(degree[u], degree[v]) for every static edge (u, v)."""
        return self._edge_degree_array().tolist()

    @property
    def adj_sets(self) -> list[set[int]]:
        if self._adj_sets is None:
            self._adj_sets = [set(a) for a in self.adj]
        return self._adj_sets

    def _edge_degree_array(self) -> np.ndarray:
        deg = np.diff(self.adj_start)
        return np.minimum(deg[self.edge_u], deg[self.edge_v])

    def common_counts(self) -> np.ndarray:
        """|N(u) & N(v)| for every static edge (u, v), in edge order: the
        number of triangles on the edge.

        With the edges pointing to the higher (degree, id) endpoint, one
        bincount credits each triangle of _closed_wedges to its three
        entries, and the argsort that put the edges in entry order scatters
        the credits back to edge order. An edge x -> y expands
        outdeg(x) <= min(deg x, deg y) out-neighbors, so there are at most
        sum_edge_degree lookups.
        """
        if self._common is None:
            u, v = self.edge_u, self.edge_v
            deg = np.diff(self.adj_start)
            keys = _orient(self.n, u, v, deg[u] <= deg[v])
            order = np.argsort(keys)
            self._common = np.empty(len(u), dtype=np.int64)
            self._common[order] = np.bincount(
                np.concatenate(_closed_wedges(*_csr(self.n, keys[order]))), minlength=len(u)
            )
        return self._common

    def common_of(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|N(u[i]) & N(v[i])| for static edges {u[i], v[i]}."""
        n = self.n
        return self.common_counts()[
            np.searchsorted(self.edge_u * n + self.edge_v, np.minimum(u, v) * n + np.maximum(u, v))
        ]

    def sum_edge_degree(self) -> int:
        return int(self._edge_degree_array().sum())


def build_static(g: TemporalGraph) -> StaticGraph:
    """Erase directions, timestamps, and multiplicities."""
    n = g.n
    x, y = np.divmod(g.pair_key, n)
    keys = np.sort(np.concatenate((x * n + y, y * n + x)))
    u, v = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    return StaticGraph(n, np.searchsorted(u, np.arange(n + 1)), v)


class DegeneracyOrdering:
    """Level-batch peeling order and the orientation it induces.

    pi[u] is u's rank in the removal order (0 removed first); alpha is the
    degeneracy, the largest residual degree seen at any removal. The
    orientation points each static edge from its lower-rank endpoint to the
    other, in CSR form: u's out-neighbors are
    out_nbr[out_start[u]:out_start[u + 1]], ascending by id; out_adj is the
    same as a list of lists, built on first use.
    """

    __slots__ = ("pi", "order", "alpha", "out_start", "out_nbr", "_out_adj", "_triangle_entries", "_triangles")

    def __init__(self, pi: list[int], order: list[int], alpha: int, out_start: np.ndarray, out_nbr: np.ndarray):
        self.pi = pi
        self.order = order
        self.alpha = alpha
        self.out_start = out_start
        self.out_nbr = out_nbr
        self._out_adj: list[list[int]] | None = None
        self._triangle_entries: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._triangles: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def out_adj(self) -> list[list[int]]:
        if self._out_adj is None:
            self._out_adj = _csr_lists(self.out_start, self.out_nbr)
        return self._out_adj

    def triangle_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every static triangle once, as the orientation entries (ab, ac,
        bc) of its edges a -> b, a -> c and b -> c, rank(a) < rank(b) <
        rank(c), ascending by (ab, ac); built on first use.

        The triangles of the orientation by _closed_wedges: for each oriented
        edge (a, b), c runs over the out-neighbors of a and is kept where
        b -> c is an oriented edge, sum of outdeg^2 <= alpha * m lookups.
        """
        if self._triangle_entries is None:
            self._triangle_entries = _closed_wedges(self.out_start, self.out_nbr)
        return self._triangle_entries

    def triangles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The triangles of triangle_entries as int64 vertex columns (a, b,
        c), in the same order, which ascends by (a, b, c); built on first
        use."""
        if self._triangles is None:
            ab, ac, _ = self.triangle_entries()
            tail = np.repeat(np.arange(len(self.pi), dtype=np.int64), np.diff(self.out_start))
            self._triangles = (tail[ab], self.out_nbr[ab], self.out_nbr[ac])
        return self._triangles


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
    _peel_loop; the order does not depend on which. The orientation is then
    _orient of the static edge columns by rank.
    """
    n, start, nbr = static.n, static.adj_start, static.adj_nbr
    size = np.diff(start)
    deg = size.copy()  # residual degrees
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
        lens = size[batch]
        ends = np.cumsum(lens)
        hit = nbr[np.arange(ends[-1]) + np.repeat(start[batch] + lens - ends, lens)]
        hit = np.sort(hit[alive[hit]])
        first = np.flatnonzero(np.diff(hit, prepend=-1))
        touched = hit[first]
        deg[touched] -= np.diff(first, append=len(hit))
        batch = touched[deg[touched] <= k]
    order = np.concatenate(parts)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    u, v = static.edge_u, static.edge_v
    out_start, out_nbr = _csr(n, np.sort(_orient(n, u, v, ranks[u] < ranks[v])))
    return DegeneracyOrdering(ranks.tolist(), order.tolist(), k, out_start, out_nbr)


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
