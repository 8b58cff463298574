"""Temporal multigraph ingestion, static projection, degeneracy orientation.

The input format is one directed temporal edge per line, "src dst t", with
ids as non-negative integers and timestamps as signed 64-bit integers
(seconds). Lines starting with '#' are comments. Self-loops are dropped at
parse time. Parallel edges, including exact duplicate lines, are kept as
distinct edges.

Vertex ids are remapped to dense [0, n) by ascending original id; original
ids are kept for output. Edges are sorted by (timestamp, input order) and the
position in that order is the edge id used by every per-edge array.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

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
    src, dst, ts : per-edge lists indexed by eid (dense vertex ids); ts is
        non-decreasing in eid order
    orig : dense id -> original id
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
    )

    def __init__(
        self,
        src: list[int],
        dst: list[int],
        ts: list[int],
        orig: list[int],
        self_loops_dropped: int = 0,
    ):
        self.src = src
        self.dst = dst
        self.ts = ts
        self.orig = orig
        self.n = len(orig)
        self.m = len(src)
        self.self_loops_dropped = self_loops_dropped
        self._pairs: Mapping[tuple[int, int], tuple[list[int], list[int]]] | None = None

        t = np.asarray(ts, dtype=np.int64)
        if np.any(t[1:] < t[:-1]):
            raise ValueError("timestamps must be non-decreasing in eid order")
        key = np.asarray(src, dtype=np.int64) * self.n + np.asarray(dst, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        self.pair_key = key[starts]
        self.pair_start = np.append(starts, self.m)
        self.pair_eid = order
        self.pair_ts = t[order]
        new = np.ones(self.m, dtype=bool)
        new[1:] = t[1:] != t[:-1]
        self.t_distinct = t[new]
        rank = np.cumsum(new) - 1
        pid = np.repeat(np.arange(len(starts), dtype=np.int64), np.diff(self.pair_start))
        self.pair_comp = pid * len(self.t_distinct) + rank[order]

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "TemporalGraph":
        """Build from (src, dst, t) triples; same semantics as parsing."""
        kept: list[tuple[int, int, int]] = []
        dropped = 0
        for u, v, t in edges:
            if u == v:
                dropped += 1
            else:
                kept.append((u, v, t))
        kept.sort(key=lambda e: e[2])
        vertices = sorted({u for u, _, _ in kept} | {v for _, v, _ in kept})
        index = {orig: i for i, orig in enumerate(vertices)}
        src = [index[u] for u, _, _ in kept]
        dst = [index[v] for _, v, _ in kept]
        ts = [t for _, _, t in kept]
        return cls(src, dst, ts, vertices, dropped)

    def edge(self, eid: int) -> TemporalEdge:
        return TemporalEdge(self.src[eid], self.dst[eid], self.ts[eid], eid)

    def iter_edges(self) -> Iterator[TemporalEdge]:
        for eid in range(self.m):
            yield TemporalEdge(self.src[eid], self.dst[eid], self.ts[eid], eid)

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
        """Max total multiplicity sigma(u,v) + sigma(v,u) over unordered pairs."""
        keys = self.pair_key
        if not len(keys):
            return 0
        sizes = np.diff(self.pair_start)
        x, y = np.divmod(keys, self.n)
        rev = y * self.n + x
        j = np.minimum(np.searchsorted(keys, rev), len(keys) - 1)
        both = sizes + np.where(keys[j] == rev, sizes[j], 0)
        return int(both.max())


def parse_edge_list(data: str | bytes | IO) -> TemporalGraph:
    """Parse "src dst t" lines into a TemporalGraph.

    Accepts a str, bytes, or file object (text or binary; file objects are
    consumed line by line without loading the whole file). Lines may be in
    any order; '#' comment lines and blank lines are ignored; LF and CRLF
    both work. Malformed lines raise ParseError with the line number.
    """
    if isinstance(data, bytes):
        lines: Iterable[str | bytes] = data.splitlines()
    elif isinstance(data, str):
        lines = data.splitlines()
    else:
        lines = data

    triples: list[tuple[int, int, int]] = []
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
        triples.append((u, v, t))

    triples.sort(key=lambda e: e[2])  # stable: input order breaks ties
    vertices = sorted({u for u, _, _ in triples} | {v for _, v, _ in triples})
    index = {orig: i for i, orig in enumerate(vertices)}
    src = [index[u] for u, _, _ in triples]
    dst = [index[v] for _, v, _ in triples]
    ts = [t for _, _, t in triples]
    return TemporalGraph(src, dst, ts, vertices, dropped)


def serialize_edge_list(g: TemporalGraph) -> str:
    """Canonical text form: one "src dst t" line per edge in eid order."""
    orig = g.orig
    lines = [f"{orig[g.src[i]]} {orig[g.dst[i]]} {g.ts[i]}" for i in range(g.m)]
    return "\n".join(lines) + ("\n" if lines else "")


class StaticGraph:
    """Undirected simple projection of a temporal multigraph.

    Common-neighbor counts per static edge are computed on first use by
    stepping through the lower-degree endpoint's neighbors and testing
    adjacency with the other endpoint.
    """

    __slots__ = ("n", "adj", "degree", "edges", "edge_degree", "_adj_sets", "_common")

    def __init__(self, n: int, adj: list[list[int]]):
        self.n = n
        self.adj = adj
        self.degree = [len(a) for a in adj]
        self.edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
        self.edge_degree = [min(self.degree[u], self.degree[v]) for u, v in self.edges]
        self._adj_sets: list[set[int]] | None = None
        self._common: dict[tuple[int, int], int] | None = None

    @property
    def adj_sets(self) -> list[set[int]]:
        if self._adj_sets is None:
            self._adj_sets = [set(a) for a in self.adj]
        return self._adj_sets

    def common_counts(self) -> dict[tuple[int, int], int]:
        """(u, v) -> |N(u) & N(v)| for every static edge, u < v."""
        if self._common is None:
            sets = self.adj_sets
            common: dict[tuple[int, int], int] = {}
            for u, v in self.edges:
                x, y = (u, v) if self.degree[u] <= self.degree[v] else (v, u)
                other = sets[y]
                common[(u, v)] = sum(1 for w in self.adj[x] if w in other)
            self._common = common
        return self._common

    def common_of(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self.common_counts()[key]

    def sum_edge_degree(self) -> int:
        return sum(self.edge_degree)


def build_static(g: TemporalGraph) -> StaticGraph:
    """Erase directions, timestamps, and multiplicities."""
    n = g.n
    if not n:
        return StaticGraph(0, [])
    x, y = np.divmod(g.pair_key, n)
    keys = np.sort(np.concatenate((x * n + y, y * n + x)))
    u, v = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    bounds = np.searchsorted(u, np.arange(n + 1)).tolist()
    nbrs = v.tolist()
    adj = [nbrs[bounds[i] : bounds[i + 1]] for i in range(n)]
    return StaticGraph(n, adj)


@dataclass
class DegeneracyOrdering:
    """Min-degree peeling order and the orientation it induces.

    pi[u] is u's rank in the removal order (0 removed first); alpha is the
    largest residual degree seen at any removal; out_adj[u] lists the static
    neighbors of u with larger rank, sorted by id.
    """

    pi: list[int]
    order: list[int]
    alpha: int
    out_adj: list[list[int]]


def degeneracy_order(static: StaticGraph) -> DegeneracyOrdering:
    """Repeatedly remove the lowest-degree vertex, smallest id first on ties.

    Uses a lazy min-heap keyed by (current degree, id), which honors the id
    tie rule exactly at O((n + m) log n) cost.
    """
    n = static.n
    deg = list(static.degree)
    heap: list[tuple[int, int]] = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    pi = [0] * n
    order: list[int] = []
    alpha = 0
    for rank in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if not removed[v] and d == deg[v]:
                break
        removed[v] = True
        pi[v] = rank
        order.append(v)
        if d > alpha:
            alpha = d
        for u in static.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    out_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in static.edges:
        if pi[u] < pi[v]:
            out_adj[u].append(v)
        else:
            out_adj[v].append(u)
    for lst in out_adj:
        lst.sort()
    return DegeneracyOrdering(pi, order, alpha, out_adj)


@dataclass
class GraphStats:
    """Read-only summary used by reports and the CLI."""

    n: int
    m: int
    alpha: int
    sigma_max: int
    sum_edge_degree: int

    def as_dict(self) -> dict[str, int]:
        return {
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "sigma_max": self.sigma_max,
            "sum_edge_degree": self.sum_edge_degree,
        }


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
