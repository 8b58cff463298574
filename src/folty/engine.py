"""Per-edge triangle-closing counts split by a degeneracy orientation.

For a temporal edge e on static pair {x, y}, let s be the endpoint with the
smaller peeling rank. A common neighbor w of x and y closes a triangle with
e = (x, y, t) when there are edges (x, w, t2) and (y, w, t3) with
t <= t2 <= t3 <= t + delta. The counting is split into

  out_count[e]  closing neighbors w with rank(w) > rank(s), found by chained
                searches over the lists incident to s;
  in_count[e]   closing neighbors with rank(w) < rank(s), found by turning
                each w's evidence into intervals of t, merging them into
                disjoint runs, and counting the runs that contain e's t.

Both passes walk the same enumeration of static triangles (a, b, c) with
rank(a) < rank(b) < rank(c), found by intersecting oriented adjacency lists.
The low vertex a is the out-side witness for pairs {a,b} and {a,c}, and the
in-side witness for pair {b,c}. Either way only the lists of pairs that
touch a are expanded entry by entry.

Both passes are vectorized over the graph's CSR pair layout. A job names its
lists by pair id; every chained lookup is one np.searchsorted on the
composite key pair_id * R + t_rank (TemporalGraph.pair_comp). Triangles
become jobs TRIANGLE_BLOCK at a time, and jobs run in blocks of about BLOCK
expanded entries, so temporaries stay small. Window checks compare t3 - t
as an unsigned 64-bit difference, so timestamps at the int64 extremes and
any delta are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .graph import DegeneracyOrdering, StaticGraph, TemporalGraph, build_static, degeneracy_order

# The passes do not use the stabbing tree; the name stays importable from
# this module because the benchmark's tracer and its tests look it up here.
from .segtree import IntervalSegmentTree  # noqa: F401

#: Triangles turned into jobs at a time.
TRIANGLE_BLOCK = 2048
#: Expanded list entries per vectorized block (a block may exceed it by the
#: size of its last list, since one list is never split).
BLOCK = 8192

_SIGN = np.uint64(1 << 63)
_I64_MIN = np.int64(-(2**63))


@dataclass
class CountTable:
    """Per-edge closing-neighbor tallies for one delta."""

    in_count: list[int]
    out_count: list[int]
    delta: int

    def totals(self) -> list[int]:
        return [a + b for a, b in zip(self.in_count, self.out_count)]


def oriented_triangles(
    static: StaticGraph, ordering: DegeneracyOrdering
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (a, b, cs): for the oriented edge (a, b), every c in
    out_adj[a] & out_adj[b]. Each static triangle appears exactly once,
    with rank(a) < rank(b) < rank(c) for every yielded c."""
    out_adj = ordering.out_adj
    for a in range(static.n):
        na = out_adj[a]
        if len(na) < 2:
            continue
        for b in na:
            nb = out_adj[b]
            if not nb:
                continue
            common = _intersect_sorted(na, nb)
            if common:
                yield a, b, common


def _intersect_sorted(xs: list[int], ys: list[int]) -> list[int]:
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x = xs[i]
        y = ys[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def _window(g: TemporalGraph, delta: int) -> np.uint64:
    """delta as uint64, clamped to the timestamp span: every larger window
    closes the same triangles, and the span always fits in 64 bits."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    span = int(g.t_distinct[-1]) - int(g.t_distinct[0]) if g.m else 0
    return np.uint64(min(delta, span))


def _minus(t: np.ndarray, d: np.uint64) -> np.ndarray:
    """t - d for int64 t and uint64 d, saturated at the int64 minimum."""
    u = t.view(np.uint64)
    return np.where(d > u ^ _SIGN, _I64_MIN, (u - d).view(np.int64))


def _triangle_blocks(
    g: TemporalGraph,
    triangles: Iterator[tuple[int, int, list[int]]],
    by_pair: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The triangles as (a, b, c) arrays, TRIANGLE_BLOCK triangles at a time;
    with by_pair, grouped by the static pair {b, c}."""
    heads: list[tuple[int, int]] = []
    lens: list[int] = []
    tails: list[list[int]] = []
    for a, b, cs in triangles:
        heads.append((a, b))
        lens.append(len(cs))
        tails.append(cs)
    ab = np.repeat(np.array(heads, dtype=np.int64).reshape(-1, 2), lens, axis=0)
    a, b = ab[:, 0], ab[:, 1]
    c = np.fromiter(chain.from_iterable(tails), dtype=np.int64, count=len(ab))
    order = np.argsort(b * g.n + c, kind="stable") if by_pair else np.arange(len(c))
    for lo in range(0, len(c), TRIANGLE_BLOCK):
        idx = order[lo : lo + TRIANGLE_BLOCK]
        yield a[idx], b[idx], c[idx]


def _pair_ids(g: TemporalGraph, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair id of each directed pair (x[i], y[i]); -1 where it has no edge."""
    key = x * g.n + y
    p = np.minimum(np.searchsorted(g.pair_key, key), len(g.pair_key) - 1)
    return np.where(g.pair_key[p] == key, p, -1)


def _entries(g: TemporalGraph, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices of the lists of pairs p, concatenated, and the index
    into p of the list each entry belongs to."""
    sizes = g.pair_start[p + 1] - g.pair_start[p]
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(p)), sizes)
    return np.arange(ends[-1]) + (g.pair_start[p] - ends + sizes)[owner], owner


def _blocks(g: TemporalGraph, p: np.ndarray) -> list[slice]:
    """Slices of p whose lists start within one BLOCK-wide window of the
    concatenated entries."""
    if not len(p):
        return []
    sizes = g.pair_start[p + 1] - g.pair_start[p]
    starts = np.cumsum(sizes) - sizes
    marks = np.arange(0, starts[-1] + sizes[-1], BLOCK)
    cuts = np.append(np.searchsorted(starts, marks), len(p)).tolist()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def out_pass(
    g: TemporalGraph,
    static: StaticGraph,
    ordering: DegeneracyOrdering,
    delta: int,
    triangles: Iterator[tuple[int, int, list[int]]] | None = None,
) -> list[int]:
    """out_count[e] for every edge: closing neighbors on the source's out side.

    Each triangle (a, b, c) gives four (L1, L2, L3) jobs: pair {a, b} with
    witness c as (E_ab, E_ac, E_bc) and (E_ba, E_bc, E_ac), and pair {a, c}
    with witness b as (E_ac, E_ab, E_cb) and (E_ca, E_cb, E_ab). An L1 edge at
    t is credited iff the first L2 entry at or after t, then the first L3
    entry at or after that, exist and the latter is within delta of t.
    """
    d = _window(g, delta)
    out_count = np.zeros(g.m, dtype=np.int64)
    if triangles is None:
        triangles = oriented_triangles(static, ordering)
    r = len(g.t_distinct)
    comp, start, ts = g.pair_comp, g.pair_start, g.pair_ts
    for a, b, c in _triangle_blocks(g, triangles):
        ab, ba, ac, ca, bc, cb = (
            _pair_ids(g, x, y) for x, y in ((a, b), (b, a), (a, c), (c, a), (b, c), (c, b))
        )
        p1 = np.concatenate((ab, ba, ac, ca))
        p2 = np.concatenate((ac, bc, ab, cb))
        p3 = np.concatenate((bc, ac, cb, ab))
        keep = (p1 >= 0) & (p2 >= 0) & (p3 >= 0)
        p1, p2, p3 = p1[keep], p2[keep], p3[keep]
        for block in _blocks(g, p1):
            i, job = _entries(g, p1[block])
            q1, q2, q3 = p1[block][job], p2[block][job], p3[block][job]
            j = np.searchsorted(comp, comp[i] + (q2 - q1) * r)
            hit = j < start[q2 + 1]
            i, j, q2, q3 = i[hit], j[hit], q2[hit], q3[hit]
            k = np.searchsorted(comp, comp[j] + (q3 - q2) * r)
            hit = k < start[q3 + 1]
            i, k = i[hit], k[hit]
            hit = ts[k].view(np.uint64) - ts[i].view(np.uint64) <= d
            np.add.at(out_count, g.pair_eid[i[hit]], 1)
    return out_count.tolist()


def in_pass(
    g: TemporalGraph,
    static: StaticGraph,
    ordering: DegeneracyOrdering,
    delta: int,
    triangles: Iterator[tuple[int, int, list[int]]] | None = None,
) -> list[int]:
    """in_count[e] for every edge: closing neighbors on the source's in side.

    Each triangle (a, b, c) gives the target pair (b, c) the witness a, with
    L2 = E_ba and L3 = E_ca, and the target (c, b) the same with the lists
    swapped. Every L2 entry f whose first L3 entry at or after t(f) lies
    within delta contributes the interval [t3 - delta, t(f)]: exactly the t
    with t <= t(f) <= t3 <= t + delta. One witness's intervals ascend in both
    ends, so one pass merges them into disjoint runs, and the target edge at
    t gains #(runs with lo <= t) - #(runs with hi < t), which is the number
    of witnesses whose runs contain t.

    Triangles and jobs are grouped by target pair, so a target's edges are
    looked up once per block its jobs fall in. Runs live in rank space: lo is
    the number of distinct timestamps below t3 - delta, hi the rank of t(f),
    both offset by target pair id * R as in pair_comp, so the targets of a
    block share one pair of sorted arrays.
    """
    d = _window(g, delta)
    in_count = np.zeros(g.m, dtype=np.int64)
    if triangles is None:
        triangles = oriented_triangles(static, ordering)
    r = len(g.t_distinct)
    comp, start, ts = g.pair_comp, g.pair_start, g.pair_ts
    for a, b, c in _triangle_blocks(g, triangles, by_pair=True):
        ba, ca, bc, cb = (_pair_ids(g, x, y) for x, y in ((b, a), (c, a), (b, c), (c, b)))
        pt = np.concatenate((bc, cb))
        p2 = np.concatenate((ba, ca))
        p3 = np.concatenate((ca, ba))
        keep = (pt >= 0) & (p2 >= 0) & (p3 >= 0)
        order = np.argsort(pt[keep], kind="stable")
        pt, p2, p3 = pt[keep][order], p2[keep][order], p3[keep][order]
        for block in _blocks(g, p2):
            i, job = _entries(g, p2[block])
            q2, q3 = p2[block][job], p3[block][job]
            k = np.searchsorted(comp, comp[i] + (q3 - q2) * r)
            hit = k < start[q3 + 1]
            i, k, job, q2 = i[hit], k[hit], job[hit], q2[hit]
            hit = ts[k].view(np.uint64) - ts[i].view(np.uint64) <= d
            i, k, job, q2 = i[hit], k[hit], job[hit], q2[hit]
            if not len(i):
                continue
            lo = np.searchsorted(g.t_distinct, _minus(ts[k], d))
            hi = comp[i] - q2 * r
            first = np.ones(len(i), dtype=bool)
            first[1:] = (job[1:] != job[:-1]) | (lo[1:] > hi[:-1])
            last = np.append(first[1:], True)
            target = pt[block][job]
            base = target * r
            lo_keys = np.sort((base + lo)[first])
            hi_keys = np.sort((base + hi)[last])
            e, _ = _entries(g, target[np.diff(target, prepend=-1) != 0])
            q = comp[e]
            in_count[g.pair_eid[e]] += np.searchsorted(lo_keys, q, "right") - np.searchsorted(hi_keys, q)
    return in_count.tolist()


def compute_counts(
    g: TemporalGraph,
    delta: int,
    static: StaticGraph | None = None,
    ordering: DegeneracyOrdering | None = None,
    threads: int = 1,
) -> CountTable:
    """Run both passes and return the per-edge count table.

    `threads` is accepted for interface stability; execution is
    single-threaded, so results are identical for every value.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if static is None:
        static = build_static(g)
    if ordering is None:
        ordering = degeneracy_order(static)
    triangles = list(oriented_triangles(static, ordering))
    out_count = out_pass(g, static, ordering, delta, iter(triangles))
    in_count = in_pass(g, static, ordering, delta, iter(triangles))
    return CountTable(in_count=in_count, out_count=out_count, delta=delta)
